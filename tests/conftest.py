"""Fixtures shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zcx import gentree, series
from zcx.core import decode


@pytest.fixture
def halve_first_term(monkeypatch):
    """A function that makes catalog entry ``name`` a wrong closed form,
    its first term halved, which gives it fractional coefficients."""

    def halve(name):
        builder, params = series._CATALOG[name]

        def halved(*args):
            (c, *rest), *others = builder(*args)
            return [(Fraction(c) / 2, *rest), *others]

        monkeypatch.setitem(series._CATALOG, name, (halved, params))

    return halve


@pytest.fixture
def rewrite_children(monkeypatch):
    """A function that makes the tree grow the shape encoded ``code`` into
    ``rewrite(kids)`` in place of its (operation, rows) children.  The walk
    and ``children`` grow each shape through ``_kids``, which calls
    ``gentree._grow``."""

    def install(code, rewrite):
        real, victim = gentree._grow, decode(code).rows

        def grow(rows, *info):
            kids = real(rows, *info)
            return rewrite(kids) if rows == victim else kids

        monkeypatch.setattr(gentree, "_grow", grow)

    return install
