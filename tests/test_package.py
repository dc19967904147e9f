"""The package namespace: public names and submodules resolve on first use.
And each row of the table in ``tests/ci.py`` names a check and reaches at
least as far as its Tier-1 defaults."""

from __future__ import annotations

import importlib
import inspect
import types

import pytest

import ci
import zcx


@pytest.mark.parametrize("name", zcx.__all__)
def test_public_name_is_the_object_of_its_home_module(name):
    obj = getattr(zcx, name)
    assert obj.__module__.startswith("zcx.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_submodules_and_unknown_names():
    assert zcx.gf is zcx.series.gf
    for name in ("core", "classify", "enumerate", "gentree", "series", "verify", "cli"):
        module = getattr(zcx, name)
        assert isinstance(module, types.ModuleType)
        assert module.__name__ == f"zcx.{name}"
    with pytest.raises(AttributeError):
        zcx.nope


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from zcx import *", namespace)
    assert all(namespace[name] is getattr(zcx, name) for name in zcx.__all__)


def _reach(bound):
    """The largest size, or the draw count, order or tree size itself."""
    return bound if isinstance(bound, int) else max(bound)


def test_ci_rows_name_checks_and_reach_at_least_their_tier1_defaults():
    for module, name, args in ci.CHECKS:
        fn = getattr(importlib.import_module(module), name)
        params = inspect.signature(fn).parameters
        for key, value in args.items():
            default = params[key].default
            assert default is not inspect.Parameter.empty, (name, key)
            assert _reach(value) >= _reach(default), (name, key, value, default)
