"""Every name that the package and each of its modules export resolves, once;
every count and grid argument of the public API is checked at the boundary;
the CLI reads the library through its public names only."""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import gumbelsys
import gumbelsys.cli
from gumbelsys import entropy, orders, rng, simulate, systems
from gumbelsys import (GumbelSysError, QuadratureSpec, SystemModel, Topology, UsageError,
                       random_majorization_pair)

MODULES = ["gumbelsys", *sorted(f"gumbelsys.{m.name}"
                                for m in pkgutil.iter_modules(gumbelsys.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(exported) == sorted(set(exported)), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def _count_calls():
    """Each integer count of the public API, as a call of one count."""
    s = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    xs = np.linspace(-1.0, 1.0, 20)
    return {
        "make_grid": lambda c: systems.make_grid(s, s, c),
        "make_p_grid": orders.make_p_grid,
        "make_t_grid": lambda c: orders.make_t_grid(s, s, c),
        "sample_system": lambda c: simulate.sample_system(s, 0, c),
        "sample_pair": lambda c: simulate.sample_pair(s, s, 0, c),
        "open_uniform": lambda c: rng.open_uniform(rng.stream(0, "u"), c),
        "n_boot": lambda c: simulate.empirical_quantile_spread(xs, xs, 0, 0.25, 0.75, c),
        "random_majorization_pair": lambda c: random_majorization_pair(rng.stream(0, "m"), c),
        "max_subdivisions": lambda c: QuadratureSpec(max_subdivisions=c),
    }


@pytest.mark.parametrize("count", [2049.0, 2050.0, True, "3", np.float64(40.0)])
@pytest.mark.parametrize("name", list(_count_calls()))
def test_a_count_that_is_no_integer_is_the_packages_error(name, count):
    # a float count raised a bare TypeError from numpy in seven of these, and
    # make_grid returned the memo's grid for 2049.0 once 2049 had been built
    call = _count_calls()[name]
    if name == "make_grid":
        call(2049)
    with pytest.raises(GumbelSysError, match="must be an integer >= "):
        call(count)


@pytest.mark.parametrize("name", list(_count_calls()))
def test_a_numpy_integer_count_is_a_count(name):
    _count_calls()[name](np.int64(40))


def _grid_calls():
    """Each public function that reads a 1-D grid or times, with that argument."""
    a = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    b = SystemModel(Topology.SERIES, (0.5, 0.5), 1.0)
    calls = {name: (lambda g, f=getattr(orders, name): f(a, b, g))
             for name in ("check_lr", "check_hr", "check_rh", "check_st", "check_disp",
                          "check_lu", "implication_audit")}
    calls["residual_entropy"] = lambda g: entropy.residual_entropy(a, g)
    calls["entropy_curve"] = lambda g: entropy.entropy_curve(a, g)
    xa = simulate.sample_pair(a, b, 0, 100)
    calls["empirical_cdf_dominance"] = lambda g: simulate.empirical_cdf_dominance(a, b, *xa, g)
    return calls


@pytest.mark.parametrize("name", list(_grid_calls()))
def test_a_grid_that_is_not_1d_is_a_usage_error(name):
    # a (3, 4) grid raised IndexError, TypeError or ValueError, or check_lr
    # returned a verdict on the flattened grid
    grid = np.linspace(0.1, 0.9, 12).reshape(3, 4)
    with pytest.raises(UsageError, match=r"must be 1-D, got shape \(3, 4\)$"):
        _grid_calls()[name](grid)


def test_the_1d_gate_hands_make_grids_view_on_uncopied():
    # a copy would be writeable, and the series pass memo keyed on the grid would miss
    s = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    grid = systems.make_grid(s, s)
    assert orders._points(grid, None) is grid and not grid.flags.writeable


def test_cli_imports_only_public_library_names():
    # the entropy command took its default times from the private systems._grid
    tree = ast.parse(Path(gumbelsys.cli.__file__).read_text(encoding="utf-8"))
    library = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
               for a in node.names}
    private = [f"{node.module}.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level or node.module == "gumbelsys"
                                                       or node.module.startswith("gumbelsys."))
               for a in node.names if a.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in library and node.attr.startswith("_")]
    assert private == []
