"""Exhaustive enumeration of convex polyominoes by semi-perimeter.

A convex polyomino with r rows and c columns (r + c = n) is a sequence of
row intervals whose left endpoints are valley-unimodal, whose right
endpoints are mountain-unimodal, with consecutive rows overlapping, some
left endpoint equal to 0 and some right endpoint equal to c-1.  The
generator walks this space row by row, abandoning a prefix as soon as the
required column span can no longer be reached: once the left endpoints have
started rising they can never return to 0, and once the right endpoints
have started falling they can never reach c-1.

Every shape that reaches a census or a listing is re-validated, so a slip
in the unimodality characterization would surface as an exception rather
than a wrong count: :func:`block_polyominoes` (and so :func:`all_convex`)
builds each shape through :func:`zcx.core.from_rows`, and the census walk
(:func:`zcx.classify.census`) runs :func:`zcx.core.check_rows` on each raw
row tuple it classifies.  :func:`count_convex` counts without validating.
"""

from __future__ import annotations

from typing import Iterator

from .core import Polyomino, from_rows


def _block_intervals(
    r: int, c: int, first: tuple[int, int] | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All convex interval sequences with exactly r rows and c columns; with
    ``first``, only those whose bottom row is that interval."""
    out_rows: list[tuple[int, int]] = []

    def rec(prev_l, prev_r, l_rising, r_falling, min_l, max_r):
        depth = len(out_rows)
        if depth == r:
            if min_l == 0 and max_r == c - 1:
                yield tuple(out_rows)
            return
        # Feasibility: endpoints that can no longer move toward the walls.
        if l_rising and min_l > 0:
            return
        if r_falling and max_r < c - 1:
            return
        lo_l = prev_l if l_rising else 0
        for l2 in range(lo_l, prev_r + 1):
            next_l_rising = l_rising or l2 > prev_l
            hi_r = prev_r if r_falling else c - 1
            for r2 in range(max(l2, prev_l), hi_r + 1):
                next_r_falling = r_falling or r2 < prev_r
                out_rows.append((l2, r2))
                yield from rec(
                    l2,
                    r2,
                    next_l_rising,
                    next_r_falling,
                    min(min_l, l2),
                    max(max_r, r2),
                )
                out_rows.pop()

    for l0, r0 in [first] if first else first_rows(c):
        out_rows.append((l0, r0))
        yield from rec(l0, r0, False, False, l0, r0)
        out_rows.pop()


def first_rows(c: int) -> list[tuple[int, int]]:
    """Every interval a bottom row of a c-column shape can be, in walk order."""
    return [(l0, r0) for l0 in range(c) for r0 in range(l0, c)]


def blocks(n: int) -> Iterator[tuple[int, int]]:
    """(rows, cols) pairs with rows + cols = n, ordered by row count."""
    if n < 2:
        raise ValueError("size must be >= 2")
    for r in range(1, n):
        yield r, n - r


def block_polyominoes(r: int, c: int) -> Iterator[Polyomino]:
    """Convex polyominoes with r rows and c columns, unordered."""
    for rows in _block_intervals(r, c):
        yield from_rows(rows)


def all_convex(n: int) -> Iterator[Polyomino]:
    """Every convex polyomino of size n exactly once.

    Within each (rows, cols) block the stream is sorted by canonical
    encoding; blocks are ordered by row count.
    """
    for r, c in blocks(n):
        block = list(block_polyominoes(r, c))
        block.sort(key=Polyomino.encode)
        yield from block


def count_convex(n: int) -> int:
    """Number of convex polyominoes of size n (no objects materialized)."""
    total = 0
    for r, c in blocks(n):
        for _ in _block_intervals(r, c):
            total += 1
    return total
