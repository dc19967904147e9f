"""Convexity degrees, class predicates, and the per-size census.

The NE-degree of a convex polyomino is the largest, over ordered cell pairs
joined by some internal path of North/East steps, of the least number of
direction changes such a path needs; the NW-degree is defined with
North/West steps.  Three facts about convex polyominoes reduce the NE-degree
to a few greedy walks:

* replacing the path's start by the bottom cell of its column never
  decreases the minimal turn count (extend the path downward along the
  column and splice);
* by the 180 degree rotation, replacing its end by the top cell of its
  column never decreases it either, so only the pairs (bottom of column i,
  top of column j) with j > i and top_j >= bottom_i matter, and every such
  pair is joined by a N/E path;
* a path that runs as far as it can before each turn, capped at the
  target's row and column, needs the fewest turns.  So a pair's minimal
  turn count is the smaller run count of two greedy walks, one per first
  heading, minus one; an empty first run is covered by the other heading.

Only the maximum over the pairs is wanted, so the kernel prunes by it.  It
walks north first to the end; if that walk needs no more turns than the
best pair so far, the pair cannot raise the maximum and the east-first
walk is skipped, and otherwise the east-first walk stops once it is no
shorter than the north-first one.  The targets are scanned right to left,
the far columns first, which raises the maximum early (about 11 % fewer
east-first walks than left to right up to size 10).  Every run after the
first moves at least one cell, so a walk takes at most rows + width runs;
the north-first walk raises AssertionError past that bound, and the
east-first walk, capped by it, stays within it.  A NW walk on the mirror
image is a NE walk, so one kernel serves both directions.  The tests check
the kernel against an exhaustive oracle that uses none of these lemmas: from
every cell, one pass over the cells in the order N/E steps visit them
(:func:`degree_pair_bruteforce`).

The census (:func:`census`) builds no objects.  It walks the raw row tuples
of the blocks with r rows <= c columns and validates each one, which also
tests it ascending.  The mirror, the vertical flip and the 180 degree
rotation map a block onto itself, keep the four-stack and centered bits
and keep or swap the NE and NW degrees and the ascending and descending
bits.  So the kernel and the descent scan run only once per orbit, from
the least of its four images; each distinct image is counted with those
degrees and bits, swapped where the image is a mirror or a flip, and with
its corners read for the directed and top-right bits.  Transposition maps
the (r, c) block onto the (c, r) block and keeps every census bit except
``centered``: the transpose has a full-width row iff the shape has a
full-height column, which for a convex shape holds iff its bottom and top
rows overlap.  So each image in an r < c block is counted twice, as itself
and as its transpose.  The object path (:meth:`CensusRow.add` over
:func:`degree_pair` and the ``is_*`` predicates) calls the same rules on a
shape's own rows, so the census adds only the orbit and transpose
bookkeeping, which the tests check against it.  The rules' oracles are
the brute-force searches (:func:`degree_pair_bruteforce`,
:func:`is_four_stack_bruteforce`) and the tests' quadratic and
breadth-first definitions of ascending and directed convex.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Any, Callable, ContextManager, NamedTuple

from .core import Polyomino, check_rows, mirror
from .enumerate import _block_intervals, blocks, first_rows


def _column_ends(rows: tuple[tuple[int, int], ...],
                 width: int) -> tuple[list[int], list[int]]:
    """The bottom and the top row of each column.  The mirror image's
    columns are these read backwards."""
    bottom = [len(rows)] * width
    top = [0] * width
    for y, (l, r) in enumerate(rows):
        top[l:r + 1] = [y] * (r + 1 - l)
    for y in range(len(rows) - 1, -1, -1):
        l, r = rows[y]
        bottom[l:r + 1] = [y] * (r + 1 - l)
    return bottom, top


def _ne_max_turns(rows: tuple[tuple[int, int], ...], bottom: list[int],
                  top: list[int]) -> int:
    """Largest minimal turn count over NE-reachable cell pairs, from at
    most two greedy walks per (bottom of column i, top of column j) pair,
    pruned by the running maximum; see the module docstring for why these
    walks suffice.  ``bottom`` and ``top`` are the column ends of ``rows``
    (:func:`_column_ends`)."""
    width = len(bottom)
    limit = len(rows) + width  # runs after the first are never empty
    best = 0
    for i in range(width):
        y0 = bottom[i]
        for j in range(width - 1, i, -1):
            ty = top[j]
            if ty < y0:
                continue
            # North first, to the end: the pair needs at most runs - 1
            # turns.  Ternaries, not min(): this is the census hot spot.
            x, y, runs = i, y0, 0
            while True:
                y = top[x] if top[x] < ty else ty
                runs += 1
                if x == j and y == ty:
                    break
                x = rows[y][1] if rows[y][1] < j else j
                runs += 1
                if x == j and y == ty or runs > limit:
                    break
            if runs > limit:
                raise AssertionError(f"greedy walk stuck at {(x, y)}")
            if runs - 1 <= best:
                continue
            # East first, only while it is shorter than the north walk.
            x, y, east = i, y0, 0
            while east < runs:
                x = rows[y][1] if rows[y][1] < j else j
                east += 1
                if x == j and y == ty or east == runs:
                    break
                y = top[x] if top[x] < ty else ty
                east += 1
                if x == j and y == ty:
                    break
            if east - 1 > best:
                best = east - 1
    return best


class DegreePair(NamedTuple):
    """Raw NE/NW convexity degrees; the global degree is their maximum."""

    ne: int
    nw: int


def degree_pair(p: Polyomino) -> DegreePair:
    bottom, top = _column_ends(p.rows, p.width)
    ne = _ne_max_turns(p.rows, bottom, top)
    nw = _ne_max_turns(mirror(p).rows, bottom[::-1], top[::-1])
    return DegreePair(ne, nw)


def degree_pair_bruteforce(p: Polyomino) -> DegreePair:
    """Reference oracle: from every cell as a start, one pass over the
    shape's cells in the order N/E steps visit them (rows bottom to top,
    each left to right), so every step leads to a later cell.  The pass
    carries the fewest turns to stand on each cell heading across and
    heading up, and the NE-degree is the largest over every start and every
    reached cell.  NW is the same pass with each row read right to left.
    Quadratic in the cell count and free of the kernel's lemmas; used to
    validate the production implementation."""

    def max_turns(dx: int) -> int:
        order = [(x, y) for y, (l, r) in enumerate(p.rows)
                 for x in (range(l, r + 1) if dx == 1 else range(r, l - 1, -1))]
        far = len(order)        # more turns than any path makes
        best = 0
        for i, start in enumerate(order):
            turns = {start: (0, 0)}     # cell -> (across, up)
            for x, y in order[i + 1:]:
                ba, bu = turns.get((x - dx, y), (far, far))
                sa, su = turns.get((x, y - 1), (far, far))
                # Ternaries, not min(): about three times faster here.
                a = ba if ba <= bu else bu + 1
                u = su if su <= sa else sa + 1
                if a < far or u < far:
                    turns[x, y] = a, u
                    if a > best and u > best:
                        best = a if a < u else u
        return best

    return DegreePair(max_turns(1), max_turns(-1))


def is_four_stack_bruteforce(p: Polyomino) -> bool:
    """Reference oracle: scan every candidate rectangle and test containment
    plus corner emptiness directly on the cell set."""
    cells = p.cell_set()
    nr = len(p.rows)
    w = p.width
    for i in range(nr):
        for j in range(i, nr):
            for a in range(w):
                for b in range(a, w):
                    if not all(
                        (x, y) in cells
                        for y in range(i, j + 1)
                        for x in range(a, b + 1)
                    ):
                        continue
                    if all(
                        i <= y <= j or a <= x <= b for x, y in cells
                    ):
                        return True
    return False


def _four_stack(rows: tuple[tuple[int, int], ...], w: int) -> bool:
    """Four-stack test on the rows of a convex shape whose columns are
    0..w: some rows i..j whose common columns hold every other row.

    A full-width row is one.  Without one, rows i..j must hold every row at
    column 0 or w (an outside one would put i..j at its wall, and then some
    row at both), so i <= i_hi and j >= j_lo.  Rows 0..i_hi widen upward
    and rows j_lo.. narrow, so the other rows fit iff row i - 1 lies within
    row j and row j + 1 within row i, and rows i and j overlap.
    """
    if (0, w) in rows:
        return True
    last = len(rows) - 1
    lefts, rights = [a for a, _ in rows], [b for _, b in rows]
    i_hi = min(lefts.index(0), rights.index(w))
    j_lo = last - min(lefts[::-1].index(0), rights[::-1].index(w))
    return any(
        li <= rj and lj <= ri
        and (i == 0 or lj <= lefts[i - 1] and rights[i - 1] <= rj)
        and (j == last or li <= lefts[j + 1] and rights[j + 1] <= ri)
        for i, (li, ri) in enumerate(rows[:i_hi + 1])
        for j, (lj, rj) in enumerate(rows[j_lo:], j_lo))


def is_centered(p: Polyomino) -> bool:
    """Some row spans the full width of the bounding rectangle."""
    return (0, p.width - 1) in p.rows


def is_four_stack(p: Polyomino) -> bool:
    """Decomposable into a supporting rectangle with empty corner regions
    (:func:`_four_stack`)."""
    return _four_stack(p.rows, p.width - 1)


def is_ascending(p: Polyomino) -> bool:
    """No row pair is strictly NW-shifted (a higher row strictly left of a
    lower one on both endpoints); the surviving relations are inclusion
    and NE-shift.  The test is :func:`zcx.core.check_rows`'s."""
    return check_rows(p.rows)[0]


def is_descending(p: Polyomino) -> bool:
    """The mirror image is ascending: no row is strictly NE-shifted."""
    return check_rows(mirror(p).rows)[0]


def is_directed_convex(p: Polyomino) -> bool:
    """Cell (0,0) present and every cell reachable from it by N/E steps:
    the bottom row starts at column 0 and, as a row's leftmost cell is
    entered from below, the lefts never fall, which the valley-unimodal
    lefts of a convex shape ensure once the bottom one is 0."""
    return p.rows[0][0] == 0


class Signature(NamedTuple):
    """Everything the census records about one shape."""

    ne: int
    nw: int
    centered: bool
    four_stack: bool
    ascending: bool
    descending: bool
    directed_convex: bool
    top_rect: bool  # the top row ends in the rightmost column


# Every census column, in JSON order: its name, its place among the CSV
# columns (None: JSON only) and the shapes it counts, as a test on the
# signature.  The last three are joint aggregates for the structure suite.
COLUMNS: dict[str, tuple[int | None, Callable[[Signature], bool]]] = {
    "total_convex": (1, lambda s: True),
    "l_convex": (2, lambda s: s.ne <= 1 and s.nw <= 1),
    "z_convex": (5, lambda s: s.ne <= 2 and s.nw <= 2),
    "centered": (3, lambda s: s.centered),
    "four_stack": (4, lambda s: s.four_stack),
    "ascending": (6, lambda s: s.ascending),
    "descending": (7, lambda s: s.descending),
    "ascending_and_descending": (None, lambda s: s.ascending and s.descending),
    "c22": (10, lambda s: s.ne == 2 and s.nw == 2),
    "c21": (9, lambda s: s.ne == 2 and s.nw <= 1),
    "c12": (8, lambda s: s.nw == 2 and s.ne <= 1),
    "directed_convex": (11, lambda s: s.directed_convex),
    "c22_four_stack": (None, lambda s: s.ne == s.nw == 2 and s.four_stack),
    "prop4_mismatch": (None, lambda s: s.ascending != (s.nw <= 1)),
    "rect_ascending": (None, lambda s: s.ascending and s.top_rect),
}


class CensusRow:
    """Histogram of shape signatures for one size; each column of
    :data:`COLUMNS` reads as an attribute (``row.c22``).  Rows are equal
    when their sizes and histograms are."""

    __slots__ = ("size", "counts")
    __hash__ = None     # mutable

    def __init__(self, size: int, counts: Counter[Signature] | None = None):
        self.size = size
        self.counts = Counter() if counts is None else counts

    def __eq__(self, other):
        if other.__class__ is not CensusRow:
            return NotImplemented
        return (self.size, self.counts) == (other.size, other.counts)

    def __repr__(self) -> str:
        return f"CensusRow(size={self.size!r}, counts={self.counts!r})"

    def add(self, p: Polyomino) -> None:
        d = degree_pair(p)
        self.counts[Signature(
            d.ne, d.nw, is_centered(p), is_four_stack(p), is_ascending(p),
            is_descending(p), is_directed_convex(p),
            p.rows[-1][1] == p.width - 1,
        )] += 1

    def __getattr__(self, name: str) -> int:
        if name not in COLUMNS:
            raise AttributeError(name)
        test = COLUMNS[name][1]
        return sum(v for s, v in self.counts.items() if test(s))

    @property
    def by_degree_pair(self) -> dict[tuple[int, int], int]:
        """The (ne, nw) marginal of the histogram, in sorted order."""
        pairs: Counter[tuple[int, int]] = Counter()
        for s, v in self.counts.items():
            pairs[s.ne, s.nw] += v
        return dict(sorted(pairs.items()))

    def to_dict(self) -> dict:
        out: dict = {"size": self.size}
        out.update((name, str(getattr(self, name))) for name in COLUMNS)
        out["by_degree_pair"] = {
            f"{ne},{nw}": str(v) for (ne, nw), v in self.by_degree_pair.items()
        }
        return out


# The smallest size whose census pays for worker processes.  On a 2-core VM
# with Python 3.11, timed alternately, the census at 9 takes 0.04-0.07 s on
# one worker and 0.16-0.25 s with a pool of two spawned workers started for
# it, at 10 0.32-0.47 s against 0.32-0.51 s (medians equal), and at 11
# 1.0-1.8 s against 0.63-0.96 s.
POOL_MIN_SIZE = 10


def _census_task(r: int, c: int, first: tuple[int, int]) -> CensusRow:
    """Census of the (r, c) shapes whose bottom row is ``first``, and for
    r < c of their transposes, the (c, r) shapes, read off the raw row
    tuples one symmetry orbit at a time; see :func:`census`.  The class
    bits come from the rules the ``is_*`` predicates call, the images'
    ascending and descending bits, like their degrees, from the orbit;
    only the orbit and transpose bookkeeping is this function's own.  The
    counts are keyed by plain tuples, made ``Signature`` keys at the end."""
    counts: Counter[tuple] = Counter()    # Signature fields, as tuples
    w = c - 1
    # The mirror of a bottom row right of centre starts further left, so a
    # task with such a bottom row holds no orbit representative.
    has_reps = first[0] + first[1] <= w
    for rows in _block_intervals(r, c, first):
        ascending = check_rows(rows)[0]
        if not has_reps:
            continue
        # The flip and (by its bottom row) the rotation before the mirror
        # is built: most tuples that are not representatives stop here.
        flip = rows[::-1]
        (l0, r0), (lt, rt) = rows[0], rows[-1]
        if flip < rows or (w - rt, w - lt) < (l0, r0):
            continue
        mir = tuple((w - b, w - a) for a, b in rows)
        rot = mir[::-1]
        if mir < rows or rot < rows:
            continue
        bottom, top = _column_ends(rows, c)
        ne = _ne_max_turns(rows, bottom, top)
        nw = _ne_max_turns(mir, bottom[::-1], top[::-1])
        centered = (0, w) in rows
        four_stack = _four_stack(rows, w)
        # The transpose is centered iff some column is full height, that is
        # iff the bottom and top rows overlap.
        full_column = max(l0, lt) <= min(r0, rt)
        # The mirror image is ascending iff the shape is descending.
        descending = check_rows(mir)[0]
        # Equal images carry equal bits, so the dict counts each once.
        ours, swapped = (ne, nw, ascending, descending), (nw, ne, descending, ascending)
        images = {rows: ours, mir: swapped, flip: swapped, rot: ours}
        for img, (img_ne, img_nw, img_asc, img_desc) in images.items():
            directed = img[0][0] == 0
            top_rect = img[-1][1] == w
            counts[img_ne, img_nw, centered, four_stack, img_asc,
                   img_desc, directed, top_rect] += 1
            if r < c:
                counts[img_ne, img_nw, full_column, four_stack, img_asc,
                       img_desc, directed, top_rect] += 1
    return CensusRow(r + c, Counter(
        {Signature._make(key): v for key, v in counts.items()}))


class _SpawnPool:
    """A spawn ``ProcessPoolExecutor`` of ``workers`` processes, made on the
    first ``map`` (making one starts multiprocessing's resource tracker)
    and shut down on exit if it was made."""

    def __init__(self, workers: int):
        self.workers, self.executor = workers, None

    def __enter__(self) -> "_SpawnPool":
        return self

    def __exit__(self, *exc) -> None:
        if self.executor is not None:
            self.executor.shutdown()

    def map(self, fn, *iterables):
        if self.executor is None:
            import multiprocessing as mp
            import os
            import sys
            from concurrent.futures import ProcessPoolExecutor

            # A spawned worker imports the main script from its file.
            path = getattr(sys.modules["__main__"], "__file__", None)
            if path is not None and not os.path.isfile(path):
                raise ValueError(
                    f"census workers cannot import the main script {path!r}:"
                    " it names no file; save the script to a file and run that")
            spawn = mp.get_context("spawn")
            self.executor = ProcessPoolExecutor(self.workers, mp_context=spawn)
        return self.executor.map(fn, *iterables)


def census_pool(workers: int) -> ContextManager[Any]:
    """One process pool for the censuses of a command, or None for one
    worker.  It starts no process before :func:`census` gives it a task.

    The workers are spawned: they start from a fresh import and inherit no
    state.  A script that starts them needs the
    ``if __name__ == "__main__":`` guard; without it each worker runs the
    script again while it starts, fails, and the census raises
    ``BrokenProcessPool`` instead of waiting for a worker that never comes.
    A script read from stdin (``python - <<EOF``) names no file the
    workers could import, guard or not: the first census that maps over
    the pool raises ValueError before any process starts.
    """
    return contextlib.nullcontext() if workers < 2 else _SpawnPool(workers)


def census(n: int, pool: Any = None) -> CensusRow:
    """Classify every convex polyomino of size n.

    The mirror (column x to c-1-x), the vertical flip (the rows in reverse
    order) and the 180 degree rotation (both) map the block of shapes with
    r rows and c columns onto itself.  The rotation keeps the degree pair;
    the mirror and the flip swap NE and NW (a N/E path becomes a N/W path,
    or a S/E path, which read backwards is a N/W path with the same turns).
    So do the ascending and descending bits: the mirror and the flip turn
    a strictly NW-shifted row pair into a NE-shifted one.  All three keep the
    four-stack and centered bits, and the full-height-column bit below.
    So the kernel runs only on each orbit's representative, the least of
    its four row tuples, and on its mirror.  The walk runs
    :func:`zcx.core.check_rows`, which gives the ascending bit, on every
    tuple it visits and then skips those that are not representatives; one
    more scan, of the mirror, gives the descending bit.  Every distinct
    image is counted once, with the representative's degree pair and
    ascending and descending bits (swapped for the mirror and the flip),
    the shared bits, and the directed-convex and top-right-corner bits read
    off the corners of its own rows.  So the flip and rotation images'
    Prop. 4 bits are read by symmetry, like their degrees, and
    ``prop4_mismatch`` still counts every shape.

    Transposing a shape (its columns become its rows) maps the (r rows,
    c cols) block onto the (c, r) block.  It keeps the degree pair (a N/E
    path becomes an E/N path, and a N/W path an E/S path, which read
    backwards is a W/N path with the same turns), and the four-stack,
    ascending, descending, directed-convex and top-right-corner bits; a
    full-width row becomes a full-height column.  So only the blocks with
    r <= c are walked, and for r < c each image also counts once for its
    transpose, with ``centered`` replaced by the full-height-column bit.
    Transposition swaps the mirror and the flip, so it maps the orbit of a
    shape onto the orbit of its transpose, and every shape of both blocks
    is counted exactly once.  The tests check the census against the
    object path (:meth:`CensusRow.add` over every block) for sizes 2..10,
    and each image's object-path signature against the one read off its
    orbit's representative for sizes 2..9.

    The walk is split into (block, bottom row) tasks, merged in a fixed
    order, so the result does not depend on the worker count.  They run
    in ``pool`` (see :func:`census_pool`) if one is given and
    n >= :data:`POOL_MIN_SIZE`, and in this process otherwise.
    """
    tasks = [(r, c, first) for r, c in blocks(n) if r <= c
             for first in first_rows(c)]
    run = pool.map if pool is not None and n >= POOL_MIN_SIZE else map
    out = CensusRow(n)
    for part in run(_census_task, *zip(*tasks)):
        out.counts.update(part.counts)
    return out


_CSV_COLUMNS = [name for _, name in sorted(
    (place, name) for name, (place, _) in COLUMNS.items() if place)]


def census_csv(rows: list[CensusRow]) -> str:
    """CSV with size and the CSV columns of :data:`COLUMNS` (total_convex
    headed "total"), then deg_<ne>_<nw> histogram columns for every degree
    pair observed in any row."""
    pairs = sorted({key for row in rows for key in row.by_degree_pair})
    header = ["size", "total"] + _CSV_COLUMNS[1:]
    header += [f"deg_{ne}_{nw}" for ne, nw in pairs]
    lines = [",".join(header)]
    for row in rows:
        hist = row.by_degree_pair
        values = [row.size] + [getattr(row, name) for name in _CSV_COLUMNS]
        values += [hist.get(pair, 0) for pair in pairs]
        lines.append(",".join(str(v) for v in values))
    return "\n".join(lines) + "\n"
