"""The package namespace: public names and submodules resolve on first use."""

from __future__ import annotations

import importlib
import types

import pytest

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
