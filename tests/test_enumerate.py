"""Enumeration: counts, uniqueness, completeness against a subset oracle."""

from __future__ import annotations

from itertools import product
from math import comb

from zcx.core import size
from zcx.enumerate import (
    _block_intervals,
    all_convex,
    block_polyominoes,
    blocks,
    count_convex,
    first_rows,
)
from zcx.series import gf

from oracles import convexity


def _oracle_convex_encodings(n: int) -> list[str]:
    """Completely independent generator: all cell subsets of every r x c
    bounding box with r + c = n, kept when the subset is a connected
    HV-convex polyomino spanning the box, sorted."""
    found = []
    for r in range(1, n):
        c = n - r
        grid = list(product(range(c), range(r)))
        for mask in range(1, 1 << (r * c)):
            cells = {grid[i] for i in range(r * c) if mask >> i & 1}
            if _spans(cells, r, c) and convexity(cells) is None:
                rows = []
                for y in range(r):
                    xs = [x for x, yy in cells if yy == y]
                    rows.append(f"{min(xs)}-{max(xs)}")
                found.append(";".join(rows))
    return sorted(found)


def _spans(cells, r, c):
    xs = {x for x, _ in cells}
    ys = {y for _, y in cells}
    return (
        ys == set(range(r)) and min(xs) == 0 and max(xs) == c - 1
    )


def test_smallest_sizes():
    assert [p.encode() for p in all_convex(2)] == ["0-0"]
    assert count_convex(4) == 7
    assert count_convex(5) == 28


def test_no_duplicates_up_to_10():
    for n in range(2, 11):
        encodings = [p.encode() for p in all_convex(n)]
        assert len(encodings) == len(set(encodings))


def test_every_emitted_polyomino_has_the_right_size():
    for n in range(2, 10):
        assert all(size(p) == n for p in all_convex(n))


def test_completeness_against_subset_oracle():
    for n in range(2, 9):
        got = sorted(p.encode() for p in all_convex(n))
        assert got == _oracle_convex_encodings(n)


def test_counts_match_convex_gf(sizes=range(2, 12)):
    g = gf("Cgf", max(sizes) + 1)
    for n in sizes:
        assert count_convex(n) == g.integer_coefficient(n), n


def test_stream_ordering():
    for n in (5, 6, 7):
        stream = list(all_convex(n))
        # blocks ordered by row count
        row_counts = [p.n_rows for p in stream]
        assert row_counts == sorted(row_counts)
        # encoding order inside each block
        for r, c in blocks(n):
            segment = [p.encode() for p in stream if p.n_rows == r]
            assert segment == sorted(segment)


def test_block_partition_is_a_partition():
    n = 7
    union = []
    for r, c in blocks(n):
        union += [p.encode() for p in block_polyominoes(r, c)]
    assert sorted(union) == sorted(p.encode() for p in all_convex(n))
    assert len(union) == len(set(union))


def test_bottom_row_split_is_the_block_walk_in_order():
    # The census splits each block into one task per bottom row.  The walk
    # takes each row's left, then its right, in increasing order, so it
    # yields the row tuples in lexicographic order.
    for n in range(2, 11):
        for r, c in blocks(n):
            whole = list(_block_intervals(r, c))
            assert whole == sorted(whole), (r, c)
            parts = []
            for first in first_rows(c):
                part = list(_block_intervals(r, c, first))
                assert all(rows[0] == first for rows in part), (r, c, first)
                parts += part
            assert parts == whole, (r, c)
            assert len(set(whole)) == len(whole), (r, c)


def _gessel(r: int, c: int) -> int:
    """Gessel's count of convex polyominoes with r rows and c columns:
    ((m+n+mn)/(m+n)) C(2m+2n, 2m) - (2mn/(m+n)) C(m+n, m)^2 with m = c - 1
    and n = r - 1, and 1 for the single cell."""
    m, n = c - 1, r - 1
    if m + n == 0:
        return 1
    top = (m + n + m * n) * comb(2 * m + 2 * n, 2 * m) - 2 * m * n * comb(m + n, m) ** 2
    assert top % (m + n) == 0, (r, c)
    return top // (m + n)


def test_every_block_holds_gessels_count():
    # Each (r, c) block on its own, r > c included, which the census does
    # not walk: it reads those blocks off their transposes.
    for r in range(1, 11):
        for c in range(1, 12 - r):
            assert sum(1 for _ in _block_intervals(r, c)) == _gessel(r, c), (r, c)
