"""The row sweep: a second oracle for the census's (ne, nw) histogram.

A N/E path between two cells of a convex polyomino stays within the rows
between them, so the fewest turns from one start to every cell follow from
one sweep of the rows, bottom to top.  For each start the sweep carries its
profile on the current row: h(x), the fewest turns to stand on cell x
heading north.  Stepping up a row, a cell over the previous row is entered
from below, n(x) = h(x); a sweep east gives e(x) = min(e(x - 1),
n(x - 1) + 1), the fewest turns to stand on x heading east; and then
h'(x) = min(n(x), e(x) + 1).  A start at s has h(s) = 0, and h = 1 east
of s in its row.  The NE-degree is the largest min(n(x), e(x)) over every
start and every cell it reaches.  The NW-degree is the same sweep on the
mirror image.

Only column bottoms need to be starts, by the first lemma of
:mod:`zcx.classify`: the cells of a row outside the row below, and every
cell of the bottom row.  ``every_cell=True`` starts from every cell
instead, which tests that lemma.

The shapes come from a depth-first walk of their own, row by row from the
bottom: the left ends fall and then rise, the right ends rise and then
fall, and consecutive rows overlap.  Every prefix of rows is a shape, and
its profiles carry to its extensions, so each shape costs one row step.
Equal profiles merge, since their futures are equal.  Nothing else is
dropped: the sweep shares no code with the census kernel, and has no greedy
walk, no pruning by the running maximum and no run bound.
"""

from __future__ import annotations

from collections import Counter

from zcx import classify

FAR = 1 << 30   # more turns than any path makes


def step(profiles: set, below: tuple[int, int] | None, row: tuple[int, int],
         every_cell: bool) -> tuple[set, int]:
    """The profiles on ``row`` grown from ``profiles`` on the row
    ``below`` (None for the bottom row), with the row's new starts, and the
    largest pair cost among the cells of ``row`` they reach."""
    lo, hi = row
    out = set()
    worst = 0
    if below is not None:
        bl, bh = below
        for h in profiles:
            new = []
            e = n_west = FAR
            for x in range(lo, hi + 1):
                if n_west + 1 < e:
                    e = n_west + 1
                n = h[x - bl] if bl <= x <= bh else FAR
                reach = n if n < e else e
                if FAR > reach > worst:
                    worst = reach
                new.append(n if n <= e + 1 else e + 1)
                n_west = n
            if min(new) < FAR:
                out.add(tuple(new))
    for s in range(lo, hi + 1):
        if every_cell or below is None or not bl <= s <= bh:
            out.add((FAR,) * (s - lo) + (0,) + (1,) * (hi - s))
    return out, worst


def histograms(max_size: int, every_cell: bool = False) -> list[Counter]:
    """The (ne, nw) histogram of the convex polyominoes of each size
    0..max_size (empty below 2), by the sweep over its own row walk."""
    hist = [Counter() for _ in range(max_size + 1)]

    def visit(row, falling, rising, left, right, height, ne, nw):
        # The left ends may still fall while ``falling``, and the right
        # ends may still rise while ``rising``; left..right are the columns.
        size = height + right - left + 1
        hist[size][ne[1], nw[1]] += 1
        spare = max_size - size - 1     # the columns a next row may add
        if spare < 0:
            return
        lo, hi = row
        for lo2 in range(lo - spare if falling else lo, hi + 1):
            for hi2 in range(max(lo, lo2), (hi + spare if rising else hi) + 1):
                l2, r2 = min(left, lo2), max(right, hi2)
                if r2 - l2 > right - left + spare:
                    continue
                ne2, ne_worst = step(ne[0], row, (lo2, hi2), every_cell)
                nw2, nw_worst = step(nw[0], (-hi, -lo), (-hi2, -lo2), every_cell)
                visit((lo2, hi2), falling and lo2 <= lo, rising and hi2 >= hi,
                      l2, r2, height + 1,
                      (ne2, max(ne[1], ne_worst)), (nw2, max(nw[1], nw_worst)))

    for width in range(1, max_size):
        row = (0, width - 1)
        ne, _ = step(set(), None, row, every_cell)
        nw, _ = step(set(), None, (1 - width, 0), every_cell)
        visit(row, True, True, 0, width - 1, 1, (ne, 0), (nw, 0))
    return hist


def test_sweep_histogram_equals_the_census_up_to_9(max_size=9, census=classify.census):
    hist = histograms(max_size)
    for n in range(2, max_size + 1):
        assert dict(sorted(hist[n].items())) == census(n).by_degree_pair, n


def test_column_bottoms_are_enough_starts_up_to_8():
    # The kernel's first lemma: moving a path's start to the bottom of its
    # column never lowers the turns it needs.
    assert histograms(8, every_cell=True) == histograms(8)
