"""Exhaustive enumeration of convex polyominoes by semi-perimeter.

A convex polyomino with r rows and c columns (r + c = n) is a sequence of
row intervals whose left endpoints are valley-unimodal, whose right
endpoints are mountain-unimodal, with consecutive rows overlapping, some
left endpoint equal to 0 and some right endpoint equal to c-1.  The
generator walks this space depth first, row by row, in one loop over an
explicit stack of prefixes, so each tuple passes through one generator
frame rather than one per row.  A prefix is dropped as soon as the required
column span can no longer be reached: once the left endpoints have started
rising they can never return to 0, and once the right endpoints have
started falling they can never reach c-1.  The last row is chosen in place,
reaching column 0 or c-1 where the prefix has not.

Every shape that reaches a census or a listing is re-validated, so a slip
in the unimodality characterization would surface as an exception rather
than a wrong count: :func:`block_polyominoes` (and so :func:`all_convex`)
builds each shape through :func:`zcx.core.from_rows`, and the census walk
(:func:`zcx.classify.census`) runs :func:`zcx.core.check_rows` on each raw
row tuple it classifies, which also gives the tuple's ascending bit.
:func:`count_convex` counts without validating.
"""

from __future__ import annotations

from typing import Iterator

from .core import Polyomino, from_rows


def _block_intervals(
    r: int, c: int, first: tuple[int, int] | None = None
) -> Iterator[tuple[tuple[int, int], ...]]:
    """All convex interval sequences with exactly r rows and c columns; with
    ``first``, only those whose bottom row is that interval, in walk order.
    The stack holds (rows, min left, max right, lefts rising, rights
    falling) per prefix; children are pushed in reverse so that they pop
    in order."""
    w = c - 1
    for l0, r0 in [first] if first else first_rows(c):
        stack = [(((l0, r0),), l0, r0, False, False)]
        while stack:
            rows, mn, mx, rising, falling = stack.pop()
            pl, pr = rows[-1]
            hi = pr if falling else w
            if len(rows) == r:
                if mn == 0 and mx == w:
                    yield rows
            elif len(rows) == r - 1:
                # The last row must reach the walls the prefix missed.
                lefts = range(pl if rising else 0, pr + 1) if mn == 0 else (0,)
                for l2 in lefts:
                    if mx == w:
                        for r2 in range(l2 if l2 > pl else pl, hi + 1):
                            yield rows + ((l2, r2),)
                    else:
                        yield rows + ((l2, w),)
            else:
                kids = []
                for l2 in range(pl if rising else 0, pr + 1):
                    up = rising or l2 > pl
                    if up and mn > 0 and l2 > 0:
                        continue    # the lefts can no longer reach 0
                    for r2 in range(l2 if l2 > pl else pl, hi + 1):
                        down = falling or r2 < pr
                        if down and mx < w and r2 < w:
                            continue
                        kids.append((rows + ((l2, r2),), mn if mn < l2 else l2,
                                     mx if mx > r2 else r2, up, down))
                stack += reversed(kids)


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
