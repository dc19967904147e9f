"""Fixtures shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zcx import series


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
