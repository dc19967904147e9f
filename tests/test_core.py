"""Polyomino representation: validation, normalization, encoding, mirror."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zcx.core import (
    Disconnected,
    EmptyRow,
    NotConvex,
    Polyomino,
    PolyominoError,
    check_rows,
    decode,
    from_rows,
    mirror,
    size,
)
from zcx.enumerate import all_convex

from oracles import convexity


def _cellset_fault(intervals):
    """The class from_rows must raise for these nonempty intervals, or None:
    EmptyRow for a row with left > right, else what their cell set breaks."""
    if any(l > r for l, r in intervals):
        return EmptyRow
    return convexity(Polyomino(intervals).cell_set())


def _from_rows_fault(intervals):
    try:
        from_rows(intervals)
    except PolyominoError as exc:
        return type(exc)
    return None


def test_from_rows_single_cell():
    p = from_rows([(0, 0)])
    assert p.rows == ((0, 0),)
    assert size(p) == 2


def test_from_rows_nw_shifted_pair_is_valid_and_normalized():
    p = from_rows([(1, 2), (0, 1)])
    assert p.rows == ((1, 2), (0, 1))
    assert size(p) == 5


def test_from_rows_normalizes_translation():
    p = from_rows([(3, 4), (2, 3)])
    assert p.rows == ((1, 2), (0, 1))


def test_from_rows_accepts_lists_and_rejects_non_int_endpoints():
    assert from_rows([[3, 4], [2, 3]]).rows == ((1, 2), (0, 1))
    for rows in ([(0.7, 1.9)], [(0, 1), (True, 2)], [("0", "1")]):
        with pytest.raises(PolyominoError, match="not both ints"):
            from_rows(rows)


def test_from_rows_disconnected():
    with pytest.raises(Disconnected):
        from_rows([(0, 0), (2, 2)])


def test_from_rows_empty_row():
    with pytest.raises(EmptyRow):
        from_rows([(2, 1)])
    with pytest.raises(EmptyRow):
        from_rows([])


def test_from_rows_not_convex():
    # column 0 occupied in rows 0 and 2 but not 1
    with pytest.raises(NotConvex):
        from_rows([(0, 1), (1, 1), (0, 1)])
    with pytest.raises(NotConvex):
        from_rows([(0, 1), (0, 0), (0, 1)])


# Bad row lists, with the exception and message the checks raise: every
# overlap is checked before any column, a left-end gap is named before a
# right-end gap, and the first gap at an end is the one named.
FAULTS = [
    pytest.param([(0, 1), (1, 1), (0, 1), (3, 3)], Disconnected,
                 "rows 0-1 and 3-3 do not overlap",
                 id="left-gap-then-disconnection"),
    pytest.param([(0, 1), (0, 0), (0, 1), (2, 2)], Disconnected,
                 "rows 0-1 and 2-2 do not overlap",
                 id="right-gap-then-disconnection"),
    pytest.param([(0, 0), (2, 2)], Disconnected,
                 "rows 0-0 and 2-2 do not overlap", id="disconnection"),
    pytest.param([(0, 3), (0, 2), (0, 3), (1, 3), (0, 3)], NotConvex,
                 "column 0 occupied on both sides of a gap",
                 id="right-gap-below-left-gap"),
    pytest.param([(0, 2), (1, 1), (0, 2)], NotConvex,
                 "column 0 occupied on both sides of a gap",
                 id="both-gaps-on-one-row"),
    pytest.param([(0, 3), (0, 1), (0, 2), (0, 1), (0, 3)], NotConvex,
                 "column 2 occupied on both sides of a gap",
                 id="two-right-gaps"),
    pytest.param([(3, 4), (0, 4), (2, 4), (1, 4), (0, 4)], NotConvex,
                 "column 1 occupied on both sides of a gap",
                 id="two-left-gaps"),
    pytest.param([(1, 3), (0, 2), (1, 3)], NotConvex,
                 "column 3 occupied on both sides of a gap", id="right-gap"),
]


@pytest.mark.parametrize("rows, error, message", FAULTS)
def test_row_checks_keep_their_fault_order(rows, error, message):
    # The census checks row tuples; from_rows checks a list.
    for check, arg in ((check_rows, tuple(rows)), (from_rows, rows)):
        with pytest.raises(PolyominoError) as info:
            check(arg)
        assert info.type is error and str(info.value) == message


def test_check_rows_returns_ascent_and_last_column():
    # On every convex tuple of up to 4 rows over columns 0..3, the one row
    # scan returns the quadratic definition of ascending (no row strictly
    # left of a lower row at both ends) and the largest right endpoint.
    spans = [(l, r) for l in range(4) for r in range(l, 4)]
    seen = Counter()
    for height in range(1, 5):
        for rows in itertools.product(spans, repeat=height):
            if convexity(Polyomino(rows).cell_set()) is not None:
                continue
            ascending = not any(
                rows[j][0] < rows[i][0] and rows[j][1] < rows[i][1]
                for j in range(height) for i in range(j))
            assert check_rows(rows) == (ascending, max(r for _, r in rows)), rows
            seen[ascending] += 1
    assert seen[True] and seen[False]


def test_size_examples():
    assert size(from_rows([(0, 0)])) == 2
    assert size(from_rows([(0, 2), (0, 2)])) == 5
    assert size(from_rows([(1, 2), (0, 1)])) == 5


def test_mirror_examples():
    assert mirror(from_rows([(0, 0)])).rows == ((0, 0),)
    assert mirror(from_rows([(1, 2), (0, 1)])).rows == ((0, 1), (1, 2))


def test_encode_decode_examples():
    assert from_rows([(0, 0)]).encode() == "0-0"
    assert from_rows([(1, 2), (0, 1)]).encode() == "1-2;0-1"
    assert decode("0-1").rows == ((0, 1),)


@pytest.mark.parametrize("bad", ["", "0", "0-", "-1", "a-b", "0-0;;0-0", "0-0;",
                                 "00-01", "0-01", "01-1", "0-01;1-1"])
def test_decode_rejects_malformed(bad):
    with pytest.raises(PolyominoError):
        decode(bad)


def test_decode_rejects_nonconvex():
    with pytest.raises(Disconnected):
        decode("0-0;2-2")


def test_render():
    assert from_rows([(1, 2), (0, 1)]).render() == "##.\n.##"
    assert from_rows([(0, 0)]).render() == "#"


def test_roundtrip_up_to_size_10():
    for n in range(2, 11):
        for p in all_convex(n):
            assert decode(p.encode()) == p


def test_mirror_involution_and_size_up_to_8():
    for n in range(2, 9):
        for p in all_convex(n):
            m = mirror(p)
            assert size(m) == size(p)
            assert mirror(m) == p


def _exhaustive_interval_lists(max_rows, max_col):
    pairs = [
        (l, r) for l in range(max_col + 1) for r in range(max_col + 1)
    ]
    lists = [[]]
    for _ in range(max_rows):
        lists = [base + [pair] for base in lists for pair in pairs] + lists
    return [lst for lst in lists if lst]


def test_from_rows_matches_cellset_oracle_exhaustively():
    for intervals in _exhaustive_interval_lists(3, 2):
        assert _from_rows_fault(intervals) is _cellset_fault(intervals), intervals


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        min_size=1,
        max_size=6,
    )
)
def test_from_rows_matches_cellset_oracle_random(intervals):
    want = _cellset_fault(intervals)
    assert _from_rows_fault(intervals) is want
    if want is None:
        shift = min(l for l, _ in intervals)
        assert from_rows(intervals).rows == tuple(
            (l - shift, r - shift) for l, r in intervals)


def test_column_accessor():
    p = from_rows([(1, 2), (0, 1)])
    assert p.column(0) == (1, 1)
    assert p.column(1) == (0, 1)
    assert p.column(2) == (0, 0)
    with pytest.raises(IndexError):
        p.column(3)


def test_total_order_is_encoding_order():
    polys = list(all_convex(5))
    assert sorted(polys) == sorted(polys, key=Polyomino.encode)
    assert (decode("0-0") < decode("0-1")) == ("0-0" < "0-1")
