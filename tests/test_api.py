"""Every name that the package and each of its modules export resolves, once."""

import importlib
import pkgutil

import pytest

import gumbelsys

MODULES = ["gumbelsys", *sorted(f"gumbelsys.{m.name}"
                                for m in pkgutil.iter_modules(gumbelsys.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(exported) == sorted(set(exported)), "a name is listed twice"
    assert [n for n in exported if not hasattr(module, n)] == []
