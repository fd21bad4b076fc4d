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
from gumbelsys import (DomainError, GumbelSysError, QuadratureSpec, SystemModel, Topology,
                       UsageError, random_majorization_pair)

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
    assert orders._validate_pair(s, s, grid=grid)[2] is grid and not grid.flags.writeable


_CHECKS = ("check_lr", "check_hr", "check_rh", "check_st", "check_disp", "check_lu")


@pytest.mark.parametrize("direction", ["first_greater", None, 1])
@pytest.mark.parametrize("name", _CHECKS)
def test_a_direction_that_is_not_a_direction_is_a_usage_error(name, direction):
    # each ran as FIRST_SMALLER and labelled the verdict with the value given:
    # "first_greater" got st and rh HOLDS, disp and lu FAILS, each the
    # opposite of Direction.FIRST_GREATER's verdict on this pair
    a = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    b = SystemModel(Topology.SERIES, (0.5, 0.5), 1.0)
    with pytest.raises(UsageError, match=f"^direction must be a Direction, got {direction!r}$"):
        getattr(orders, name)(a, b, direction=direction)


def test_a_relation_that_is_not_a_relation_is_a_usage_error():
    # was a bare KeyError: 'hr'
    s = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    with pytest.raises(UsageError, match="^relation must be a Relation, got 'hr'$"):
        orders.check("hr", s, s, orders.Direction.FIRST_SMALLER)


@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_a_seed_is_a_count(seed):
    # 1.5 and True drew seed 1's stream, and -1 raised numpy's bare ValueError
    s = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    with pytest.raises(DomainError, match="^seed must be "):
        simulate.sample_system(s, seed, 3)


def _real_calls():
    """Each real-number argument with a range, as a call of that argument."""
    s = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    xs = np.linspace(-1.0, 1.0, 20)
    return {
        "tail_cutoff": lambda v: systems.make_grid(s, s, 65, v),
        "rel_tol": lambda v: QuadratureSpec(rel_tol=v),
        "abs_tol": lambda v: QuadratureSpec(abs_tol=v),
        "tail_mass_cutoff": lambda v: QuadratureSpec(tail_mass_cutoff=v),
        "alpha": lambda v: simulate.empirical_quantile_spread(xs, xs, 0, v, 0.75),
        "beta": lambda v: simulate.empirical_quantile_spread(xs, xs, 0, 0.25, v),
        "spread": lambda v: random_majorization_pair(rng.stream(0, "m"), 3, v),
    }


@pytest.mark.parametrize("value", ["0.1", True, None])
@pytest.mark.parametrize("name", list(_real_calls()))
def test_a_real_that_is_not_a_number_is_a_domain_error(name, value):
    # a string raised a bare TypeError ('<' not supported between float and str)
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got {value!r}$"):
        _real_calls()[name](value)


@pytest.mark.parametrize("name", list(_real_calls()))
def test_a_numpy_real_is_a_real(name):
    _real_calls()[name](np.float64(1e-5) if name == "rel_tol" else np.float64(0.3))


@pytest.mark.parametrize("mus,sigma,field", [
    (("abc",), 1.0, "mus"), (None, 1.0, "mus"), ((1.0,), "x", "sigma"), ("12", 1.0, "mus"),
    pytest.param((10**400,), 1.0, "mus", id="mus-past-the-doubles"),
    pytest.param((1.0,), 10**400, "sigma", id="sigma-past-the-doubles")])
def test_a_system_field_that_is_not_a_number_is_a_domain_error(mus, sigma, field):
    # were a bare ValueError (could not convert string to float) or TypeError;
    # "12" was the system (2.0, 1.0), and 10**400 raised a bare OverflowError
    with pytest.raises(DomainError, match=f"^{field} must be "):
        SystemModel(Topology.SERIES, mus, sigma)


def _quad_calls():
    """Each public function that reads a QuadratureSpec, as a call of that spec."""
    a = SystemModel(Topology.SERIES, (1.0, 0.0), 1.0)
    b = SystemModel(Topology.SERIES, (0.5, 0.5), 1.0)
    first_smaller = orders.Direction.FIRST_SMALLER
    return {
        "check_lu": lambda q: orders.check_lu(a, b, quad=q),
        "check": lambda q: orders.check(orders.Relation.LU, a, b, first_smaller, quad=q),
        "implication_audit": lambda q: orders.implication_audit(
            a, b, include_entropy_orders=True, quad=q),
        "residual_entropy": lambda q: entropy.residual_entropy(a, 0.5, q),
        "entropy_curve": lambda q: entropy.entropy_curve(a, [0.5], q),
        "shannon_entropy": lambda q: entropy.shannon_entropy(a, q),
    }


@pytest.mark.parametrize("name", list(_quad_calls()))
def test_a_quad_that_is_not_a_spec_is_a_usage_error(name):
    # each raised a bare AttributeError: 'str' object has no attribute 'tail_mass_cutoff'
    with pytest.raises(UsageError, match="^quad must be a QuadratureSpec, got 'x'$"):
        _quad_calls()[name]("x")


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


def test_every_import_of_the_package_is_read():
    # a name a module imports and never reads, such as an import the last
    # caller of a removed helper left behind; a line marked noqa: F401
    # imports on purpose
    for name in MODULES:
        path = Path(importlib.import_module(name).__file__)
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "# noqa: F401" not in lines[node.lineno - 1]
                    for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = set(importlib.import_module(name).__all__)
        assert sorted(imported - read - exported) == [], name
