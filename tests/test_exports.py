"""Every public name a module lists must exist."""

import importlib

import pytest

MODULES = ["nonlinearity", "singular_ode", "evolution", "iteration",
           "threshold", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"heatlab.{name}")
    missing = [n for n in mod.__all__ if getattr(mod, n, None) is None]
    assert not missing, f"heatlab.{name}.__all__ lists missing {missing}"
