"""Generating tree for ascending polyominoes: labels, growth, productions.

Ascending polyominoes grow one unit of size at a time through six local
operations.  On a centered polyomino (one with a full-width row) the
operations are:

* Left Cell -- glue one cell to the left of a base row (the base being the
  maximal block of full-width rows); the child has a single cell in its
  leftmost column.
* Right Cell -- glue one cell to the right of a base row; blocked for the
  L0 and L families, whose leftmost column holds a single cell, which
  keeps generation unambiguous.
* Row -- add one more full-width row to the base.
* Shift -- insert a right-aligned shorter row immediately above the base;
  only for the S0 and S families (other cases are reachable by Left Cell
  or Row).
* Nc -- append a new column of r' cells against the last column strictly
  above the base, leaving the centered world.

Non-centered polyominoes only grow by Nc* (same column appending, plus one
extra cell on top of the rightmost column when that column reaches the top
of the shape).

Each polyomino carries a label: family (C0, C, C1, L0, L, R, S0, S for
centered, NC for non-centered), base height b, left offset w, last-column
excess r, and a rectangular flag (last column reaching the maximal height).
The label decides how a polyomino grows.  ``succ`` rewrites a label into
the multiset of its children's labels, and ``levels`` iterates that
rewriting symbolically, a generator that yields one level at a time.  It
never expands a label into its children, and it never holds the base
height of the C, C0 and C1 labels: such a label's only source is the same
label with base b - 1 one level up, so the labels with b = 2 that entered
at each level (the history) give every C, C0 and C1 label of later
levels.  The state is held as vectors of counts: the L and S labels and
the history's running sum over b as rows over w of count vectors over r,
the L0, S0 and C0 labels as vectors over w, and the NC labels as vectors
over r.  A step applies each production to whole rows, as vector
additions: L(w + 1, r) is the sum of the L, S and C rows at w, S(w, 0)
and the Nc inputs are row and column sums, the Shift runs S(j, r + 1),
j <= w, are suffix sums of the S rows over w, and the Left Cell runs
L(1, r + j), j < b, of the C, C0 and C1 labels are one running vector,
shifted by one in r at each level.  A step at level m so costs O(m^2)
additions done by ``map``, against O(m^3) labels in the level, and no
Python statement per label.  Each level's totals are row sums; iterating
it reads its labels, keyed by plain (family, b, w, r, rect) tuples that
compare and hash as the TreeLabels, from the vectors and the history.
``succ`` stays the per-label oracle the tests compare the step with.

``children`` and ``parent`` realize the same tree on actual polyominoes.
Both read the label, the base position and the last column from
``_label_rows``, and pick operations by family, as ``succ`` does.  That
labeller works on a raw row tuple: ``core.check_rows``, the package's one
row scan, checks the rows convex, tests them ascending and finds the last
column, and a reverse scan reads the label; each distinct label is
validated once.  The parent step ``_parent_rows`` also works on rows, and so
does the one grow-and-label step ``_kids``: it makes the children's rows
with ``_grow`` and labels each child with ``_label_rows``.  ``walk``
visits the tree depth first on row tuples, holding one root path rather
than a level and building no Polyomino.  It labels each shape once, when
``_kids`` makes it, and grows it from that label with the same step as
``children``.  ``constructive_levels`` counts the labels it carries.  The
gentree suite ties each level of the walk to the label DP's and checks
each edge with the parent step on the child's label; the refined suite
reads the label DP alone.  ``children``, ``label_of`` and ``parent`` stay
the per-shape oracles, and the tests check that the walk, the enumerator
and the label DP agree level by level.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cache, partial, reduce
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Polyomino, check_rows, from_rows


class NotAscending(ValueError):
    """Operation applied to a polyomino outside the ascending class."""


class InvalidLabel(ValueError):
    """Label violates the family invariants."""


FAMILIES = ("C0", "C", "C1", "L0", "L", "R", "S0", "S", "NC")

OP_LEFT_CELL = "left_cell"
OP_RIGHT_CELL = "right_cell"
OP_ROW = "row"
OP_SHIFT = "shift"
OP_NC = "nc"
OP_NC_STAR = "nc_star"


class TreeLabel(NamedTuple):
    """Generating-tree label (family, b, w, r, rectangular flag).

    Non-centered labels keep only r; b and w are stored as 1 and 0.
    """

    family: str
    b: int
    w: int
    r: int
    rect: bool

    def validate(self) -> "TreeLabel":
        f = self.family
        if f not in FAMILIES:
            raise InvalidLabel(f"unknown family {f!r}")
        b, w, r, rect = self.b, self.w, self.r, self.rect
        if f in ("C0", "L0", "S0"):
            if not rect or r != 0 or w < 1:
                raise InvalidLabel(f"{f} labels are rectangular with r=0, w>=1")
        if f in ("C0", "C", "C1"):
            if b < 2:
                raise InvalidLabel(f"{f} labels need b > 1")
        elif f != "NC" and b != 1:
            raise InvalidLabel(f"{f} labels need b = 1")
        if f == "C1" and (w != 0 or r != 0 or rect):
            raise InvalidLabel("C1 labels are non-rectangular with w=r=0")
        if f == "C" and w < 1:
            raise InvalidLabel("C labels need w > 0")
        if f == "L" and w < 1:
            raise InvalidLabel("L labels need w > 0")
        if f == "R" and (b != 1 or w != 0 or r != 0 or rect):
            raise InvalidLabel("R labels are (1,0,0) non-rectangular")
        if f == "S":
            if w < 1:
                raise InvalidLabel("S labels need w > 0")
            if rect and r < 1:
                raise InvalidLabel("rectangular S labels need r > 0")
        if f == "NC" and (b != 1 or w != 0 or r < 1):
            raise InvalidLabel("NC labels are stored as (1, 0, r) with r >= 1")
        return self


ROOT_LABEL = TreeLabel("L0", 1, 1, 0, True)


@cache
def _valid_label(family: str, b: int, w: int, r: int, rect: bool) -> TreeLabel:
    """The validated label with these fields.  ``validate`` is a pure
    function of them, so each distinct label is validated once; the
    cache holds one entry per label (581 labels occur up to size 13)."""
    return TreeLabel(family, b, w, r, rect).validate()


def _label_rows(rows: tuple) -> tuple[TreeLabel, int, int]:
    """The validated label of the shape with these rows (leftmost column
    0), the index of its top base row and the index of its last column.
    A non-centered shape has no base; its "top" is the row just below its
    last column (-1 when that column starts at the bottom), so that in
    both cases the run of rows ending in the last column above the base
    starts at top + 1.

    Every shape the module labels, walks or grows goes through this one
    function.  ``core.check_rows`` raises Disconnected or NotConvex on
    rows that are not convex and returns the ascending bit and the last
    column in the same pass; a false bit raises NotAscending.  A reverse
    scan from the top then reads the last column's run, the base and the
    label's fields.
    """
    ascending, last = check_rows(rows)
    if not ascending:
        raise NotAscending(Polyomino(rows).encode())

    rect = rows[-1][1] == last
    y = len(rows) - 1
    while rows[y][1] < last:
        y -= 1
    hi = y      # the top row of the last column
    while y >= 0 and rows[y][1] == last and rows[y][0]:
        y -= 1
    if y < 0 or rows[y][1] < last:
        # Non-centered: r counts the cells of the last column.
        return _valid_label("NC", 1, 0, hi - y, rect), y, last
    top = y
    full = (0, last)
    while y >= 0 and rows[y] == full:
        y -= 1
    b = top - y
    flipped = top == len(rows) - 1
    w = last + 1 if flipped else rows[top + 1][0]
    r = hi - top
    if b > 1:
        family = "C0" if flipped else ("C1" if w == 0 else "C")
    elif w and (y < 0 or rows[y][0]):
        # The base row is the only row in the leftmost column.
        family = "L0" if flipped else "L"
    elif w == 0:
        family = "R"
    else:
        family = "S0" if flipped else "S"
    return _valid_label(family, b, w, r, rect), top, last


def label_of(p: Polyomino) -> TreeLabel:
    """Label per the family rules; raises NotAscending outside the class."""
    return _label_rows(p.rows)[0]


def children(p: Polyomino) -> list[tuple[str, Polyomino]]:
    """All ascending polyominoes of the next size grown from p, tagged by
    operation, in deterministic order.  The label decides which operations
    apply, as in ``succ``; each child is checked by labelling it."""
    return [(op, Polyomino(rows))
            for op, rows, *_ in _kids(p.rows, *_label_rows(p.rows))]


def _kids(
    rows: tuple, label: TreeLabel, top: int, last: int
) -> list[tuple[str, tuple, TreeLabel, int, int]]:
    """The (operation, rows, label, top, last) of each child of the shape
    with these rows, label, top row and last column: ``_grow`` makes the
    rows and ``_label_rows`` checks and labels each child."""
    return [(op, kid, *_label_rows(kid)) for op, kid in _grow(rows, label, top, last)]


def _grow(
    rows: tuple, label: TreeLabel, top: int, last: int
) -> list[tuple[str, tuple]]:
    """The (operation, rows) of each child, as for ``_kids``.  The
    operations keep the leftmost column at 0 and copy the unchanged rows
    by slicing; the children are not checked here, but no two may have
    the same rows.
    """
    f, b, w, r, rect = label
    above = top + 1
    grown: list[tuple[str, tuple]] = []

    if f != "NC":
        base = range(top, top - b, -1)
        wide = ((0, last + 1),)
        # Left Cell: one new cell left of each base row.
        moved = tuple([(l + 1, rr + 1) for l, rr in rows])
        for k in base:
            grown.append((OP_LEFT_CELL, moved[:k] + wide + moved[k + 1 :]))

        # Right Cell: blocked for L0 and L, whose leftmost column is one cell.
        if f not in ("L0", "L"):
            for k in base:
                grown.append((OP_RIGHT_CELL, rows[:k] + wide + rows[k + 1 :]))

        # Row: one more full-width row in the base.
        grown.append((OP_ROW, rows[:above] + ((0, last),) + rows[above:]))

        # Shift: insert a right-aligned row immediately above the base.
        if f in ("S0", "S"):
            for j in range(1, w if f == "S0" else w + 1):
                grown.append((OP_SHIFT, rows[:above] + ((j, last),) + rows[above:]))

    # Nc / Nc*: append a column of r' cells against the r-row run of the
    # last column, which starts at row top + 1.
    op = OP_NC_STAR if f == "NC" else OP_NC
    longer = tuple([(l, last + 1) for l, _ in rows[above : above + r]])
    for rp in range(1, r + 1):
        for start in range(r - rp + 1):
            y = above + start
            grown.append((op, rows[:y] + longer[start : start + rp] + rows[y + rp :]))
    # Nc*: one extra cell on top of a rectangular non-centered shape.
    if f == "NC" and rect:
        grown.append((OP_NC_STAR, rows + ((last, last),)))

    if len({g for _, g in grown}) != len(grown):
        raise AssertionError(f"duplicate children of {Polyomino(rows).encode()}")
    return grown


def parent(p: Polyomino) -> tuple[str, Polyomino] | None:
    """The unique (operation, parent) producing p; None for the root."""
    step = _parent_rows(p.rows, *_label_rows(p.rows))
    return None if step is None else (step[0], from_rows(step[1]))


def _parent_rows(
    rows: tuple, label: TreeLabel, top: int, last: int
) -> tuple[str, tuple] | None:
    """The operation and the normalized rows of the parent of the shape
    with these rows, given its label, top row and last column (as
    ``_label_rows`` returns them); None for the root.  The rows are not
    checked: ``parent`` validates them."""
    if rows == ((0, 0),):
        return None
    f, b, _, r, _ = label

    if f == "NC":
        # Case 1: the top cell of the rightmost column sticks out alone.
        if rows[-1] == (last, last):
            return OP_NC_STAR, rows[:-1]
        # Case 2: remove the whole last column, rows top + 1 .. top + r.
        # The parent is centered when a row then spans its width.
        end = top + 1 + r
        shorter = tuple([(l, last - 1) for l, _ in rows[top + 1 : end]])
        q = rows[: top + 1] + shorter + rows[end:]
        return (OP_NC if (0, last - 1) in q else OP_NC_STAR), q

    if b > 1:
        return OP_ROW, rows[:top] + rows[top + 1 :]
    if f in ("L0", "L"):
        # Remove the base row's left cell (case 2.1); the base row was the
        # leftmost column's only cell, so every row moves one column left.
        moved = tuple([(l - 1, rr - 1) for l, rr in rows])
        return OP_LEFT_CELL, moved[:top] + ((0, last - 1),) + moved[top + 1 :]
    if r == 0:
        # The base row alone reaches the last column: remove its right
        # cell (case 2.2).
        return OP_RIGHT_CELL, rows[:top] + ((0, last - 1),) + rows[top + 1 :]
    # Case 2.3: remove the row immediately above the base.
    return OP_SHIFT, rows[: top + 1] + rows[top + 2 :]


# ---------------------------------------------------------------------------
# Symbolic productions
# ---------------------------------------------------------------------------

def _nc_part(r: int, rect: bool) -> list[tuple[TreeLabel, int]]:
    """Children labels contributed by Nc / the column part of Nc*.

    A rectangular source with parameter r yields each length r' once
    rectangular (topmost placement) and r - r' times non-rectangular,
    binom(r+1, 2) children in total; a non-rectangular source yields
    every length r' exactly r - r' + 1 times, all non-rectangular.
    """
    out = []
    if rect:
        for rp in range(1, r + 1):
            out.append((TreeLabel("NC", 1, 0, rp, True), 1))
            if rp < r:
                out.append((TreeLabel("NC", 1, 0, rp, False), r - rp))
    else:
        for rp in range(1, r + 1):
            out.append((TreeLabel("NC", 1, 0, rp, False), r - rp + 1))
    return out


def succ(label: TreeLabel) -> list[tuple[TreeLabel, int]]:
    """The multiset of children labels produced by one growth step."""
    label = TreeLabel(*label).validate()
    f, b, w, r, rect = label
    out: list[tuple[TreeLabel, int]] = []

    if f == "C0":
        out.append((TreeLabel("L0", 1, w + 1, 0, True), 1))
        for j in range(1, b):
            out.append((TreeLabel("L", 1, 1, j, True), 1))
        out.append((TreeLabel("S0", 1, w + 1, 0, True), 1))
        if b > 1:
            out.append((TreeLabel("R", 1, 0, 0, False), b - 1))
        out.append((TreeLabel("C0", b + 1, w, 0, True), 1))
    elif f == "C":
        out.append((TreeLabel("L", 1, w + 1, r, rect), 1))
        for j in range(1, b):
            out.append((TreeLabel("L", 1, 1, r + j, rect), 1))
        out.append((TreeLabel("S", 1, w, 0, False), 1))
        out.append((TreeLabel("R", 1, 0, 0, False), b - 1))
        out.append((TreeLabel("C", b + 1, w, r, rect), 1))
        out.extend(_nc_part(r, rect))
    elif f == "C1":
        for j in range(b):
            out.append((TreeLabel("L", 1, 1, j, False), 1))
        out.append((TreeLabel("R", 1, 0, 0, False), b))
        out.append((TreeLabel("C1", b + 1, 0, 0, False), 1))
    elif f == "L0":
        out.append((TreeLabel("L0", 1, w + 1, 0, True), 1))
        out.append((TreeLabel("C0", 2, w, 0, True), 1))
    elif f == "L":
        out.append((TreeLabel("L", 1, w + 1, r, rect), 1))
        out.append((TreeLabel("C", 2, w, r, rect), 1))
        out.extend(_nc_part(r, rect))
    elif f == "R":
        out.append((TreeLabel("L", 1, 1, 0, False), 1))
        out.append((TreeLabel("R", 1, 0, 0, False), 1))
        out.append((TreeLabel("C1", 2, 0, 0, False), 1))
    elif f == "S0":
        out.append((TreeLabel("L0", 1, w + 1, 0, True), 1))
        out.append((TreeLabel("S0", 1, w + 1, 0, True), 1))
        out.append((TreeLabel("C0", 2, w, 0, True), 1))
        for j in range(1, w):
            out.append((TreeLabel("S", 1, j, 1, True), 1))
    elif f == "S":
        out.append((TreeLabel("L", 1, w + 1, r, rect), 1))
        out.append((TreeLabel("S", 1, w, 0, False), 1))
        out.append((TreeLabel("C", 2, w, r, rect), 1))
        for j in range(1, w + 1):
            out.append((TreeLabel("S", 1, j, r + 1, rect), 1))
        out.extend(_nc_part(r, rect))
    elif f == "NC":
        out.extend(_nc_part(r, rect))
        if rect:
            out.append((TreeLabel("NC", 1, 0, r + 1, True), 1))
    return [(child, m) for child, m in out if m > 0]


def _totals(pairs) -> tuple[int, int, int, int, int]:
    """The five totals of ``LabelLevel``, in that order, over
    ((family, b, w, r, rect), count) pairs."""
    total = nc = rect = nc_rect = 0
    for (f, _, _, _, rc), v in pairs:
        total += v
        if rc:
            rect += v
        if f == "NC":
            nc += v
            if rc:
                nc_rect += v
    return total, total - nc, nc, rect, nc_rect


class LabelLevel:
    """Multiset of labels at one tree level (= one object size) and its
    totals: all labels, the centered, non-centered and rectangular ones,
    and the non-centered rectangular ones.

    Iterating a level calls ``labels``, a function of no arguments, again
    and yields each label once, as a (label, count) pair keyed by a
    TreeLabel or the equal plain (family, b, w, r, rect) tuple; a level
    holds no dict.  Without ``totals`` they are summed over one call.
    Levels compare equal when their level numbers and label multisets are
    equal.
    """

    __slots__ = ("level", "_labels", "total", "centered_total",
                 "non_centered_total", "rectangular_total",
                 "non_centered_rectangular_total")

    def __init__(
        self,
        level: int,
        labels: Callable[[], Iterable[tuple[tuple, int]]],
        totals: tuple[int, int, int, int, int] | None = None,
    ):
        self.level = level
        self._labels = labels
        if totals is None:
            totals = _totals(labels())
        (self.total, self.centered_total, self.non_centered_total,
         self.rectangular_total, self.non_centered_rectangular_total) = totals

    def __iter__(self) -> Iterator[tuple[tuple, int]]:
        return iter(self._labels())

    def __eq__(self, other):
        if not isinstance(other, LabelLevel):
            return NotImplemented
        return self.level == other.level and dict(self) == dict(other)

    def __repr__(self) -> str:
        return f"LabelLevel(level={self.level}, labels={dict(self)!r})"


def _add(a: list, b: list, op: Callable = add) -> list:
    """The elementwise sum of two count vectors, as long as the longer;
    with ``op=_add``, of two lists of count vectors."""
    if len(a) < len(b):
        a, b = b, a
    return [*map(op, a, b), *a[len(b):]]


def _trim(vec: list) -> list:
    """vec without its trailing zeros."""
    while vec and not vec[-1]:
        vec.pop()
    return vec


def _put(vec: list, i: int, x: int) -> None:
    """Add x at index i of vec, growing it with zeros."""
    vec.extend([0] * (i + 1 - len(vec)))
    vec[i] += x


def _labels(state: tuple, history: list[tuple], depth: int) -> Iterator[tuple[tuple, int]]:
    """The (label, count) pairs of a level: the L, S, L0, S0, R and NC
    labels of ``state`` plus the C, C0 and C1 labels of the first ``depth``
    history entries, the last of them at b = 2.  Zero counts are left out."""
    l, s, l0, s0, r_count, nc = state
    rows = [("L", 1, l), ("S", 1, s)]           # pairs of lists of rows
    by_w = [("L0", 1, l0), ("S0", 1, s0)]       # vectors over w
    single = [(("R", 1, 0, 0, False), r_count)]
    for b, i in enumerate(range(depth - 1, -1, -1), 2):
        c_plain, c_rect, c0, c1 = history[i]
        rows.append(("C", b, (c_plain, c_rect)))
        by_w.append(("C0", b, c0))
        single.append((("C1", b, 0, 0, False), c1))
    yield from (((f, b, w, r, rect), x)
                for f, b, pair in rows
                for rect, vecs in zip((False, True), pair)
                for w, vec in enumerate(vecs, 1)
                for r, x in enumerate(vec) if x)
    yield from (((f, b, w, 0, True), x)
                for f, b, vec in by_w for w, x in enumerate(vec, 1) if x)
    yield from ((("NC", 1, 0, r, rect), x)
                for rect, vec in zip((False, True), nc)
                for r, x in enumerate(vec) if x)
    yield from ((key, x) for key, x in single if x)


class _LabelDP:
    """The label DP at one level, held as vectors of counts, with the base
    height of the C, C0 and C1 labels taken out.

    A C, C0 or C1 label of base height b >= 3 has one source, the same
    label with b - 1 one level up, so the label (b, k) at level n is the
    label (2, k) that entered at level n - b + 2.  Pairs are indexed by
    the rectangular flag; a list of rows holds, at index w - 1, the count
    vector over r.  The state is:

    * ``l``, ``s`` -- the L and S labels, as pairs of lists of rows;
    * ``l0``, ``s0`` -- the L0 and S0 labels, as vectors over w (index
      w - 1); ``r`` -- the count of the R label;
    * ``nc`` -- the NC labels, as a pair of vectors over r (index r);
    * ``history`` -- per level, oldest first, the C, C0 and C1 labels that
      entered at b = 2 there, as (C rows, rectangular C rows, C0 vector,
      C1 count); the entry i places from the end has b = i + 1 now;
    * ``acc``, ``c0``, ``c1`` -- the history summed over levels, so over b;
    * ``runs`` -- the Left Cell runs L(1, 1, r + j), j < b, of the C, C0
      and C1 labels, summed over the labels, as a pair of vectors over r;
      ``runs_total`` is their sum, the R children of those runs.

    Lists are never changed once built, so a level may keep references to
    them and read its labels from them on every iteration.  A step is a
    few vector additions over the O(m^2) (w, r) entries at level m, not a
    dict update per label.
    """

    def __init__(self, labels: Iterable[tuple[tuple, int]]):
        """Seed the state from (label, count) pairs, such as a level's: its
        C, C0 and C1 labels go into the history by base height."""
        self.l: tuple[list, list] = ([], [])
        self.s: tuple[list, list] = ([], [])
        self.l0: list[int] = []
        self.s0: list[int] = []
        self.r = 0
        self.nc: tuple[list, list] = ([], [])
        by_b: dict[int, list] = defaultdict(lambda: [[], [], [], 0])
        for (f, b, w, r, rect), x in labels:
            if f in ("C", "L", "S"):
                pair = by_b[b][:2] if f == "C" else (self.l if f == "L" else self.s)
                rows = pair[rect]
                rows.extend([] for _ in range(w - len(rows)))
                _put(rows[w - 1], r, x)
            elif f in ("C0", "L0", "S0"):
                vec = by_b[b][2] if f == "C0" else (self.l0 if f == "L0" else self.s0)
                _put(vec, w - 1, x)
            elif f == "C1":
                by_b[b][3] += x
            elif f == "R":
                self.r += x
            else:
                _put(self.nc[rect], r, x)
        self.history: list[tuple] = []
        self.acc: tuple[list, list] = ([], [])
        self.c0: list[int] = []
        self.c1 = 0
        self.runs: tuple[list, list] = ([], [])
        self.runs_total = 0
        for b in range(max(by_b, default=1), 1, -1):
            self._enter(*by_b.get(b, ([], [], [], 0)))

    def _enter(self, c_plain: list, c_rect: list, c0: list, c1: int) -> tuple:
        """Append the labels entering at b = 2 to the history and the sums
        over b, and return the new C sums per r (the column sums of
        ``acc``).  Every label of the history with b > j has a Left Cell
        child L(1, 1, r + j), so one more level shifts the runs by one in
        r on top of the new history's sum over w: runs' = shift(sum + runs).
        """
        self.history.append((c_plain, c_rect, c0, c1))
        self.acc = (_add(self.acc[0], c_plain, _add), _add(self.acc[1], c_rect, _add))
        self.c0 = _add(self.c0, c0)
        self.c1 += c1
        cols = tuple(reduce(_add, rows, []) for rows in self.acc)
        # C1 runs start at r = 0 unrectangular, C0 runs at r = 0 rectangular.
        plain, rect = _add(cols[0], [self.c1]), _add(cols[1], [sum(self.c0)])
        self.runs = tuple(_trim([0, *_add(p, run)])
                          for p, run in zip((plain, rect), self.runs))
        self.runs_total += sum(plain) + sum(rect)
        return cols

    def step(self) -> None:
        """Advance one level: the same multiset as summing ``succ`` over the
        labels, with each production applied to whole rows:

        * L(w + 1, r) sums the L, S and C rows at w, which is the row w of
          ``acc`` once the new C labels (the L and S rows) are in; the same
          holds for L0 and C0; L(1, r) is the Left Cell run, plus the C1
          and R labels at r = 0;
        * S(w, 0) sums the C and S rows at w over r; the Shift run
          S(j, r + 1), j <= w, of S is the suffix sum of the S rows over
          w, shifted by one in r, and S0(w) counts as an S row at w - 1
          with r = 0;
        * the Nc columns read the column sums of the new ``acc`` and the NC
          vectors: suffix sums of x and r*x over the source parameter r.
        """
        l, s, acc = self.l, self.s, self.acc
        left = (_add(self.runs[0], [self.c1 + self.r]), self.runs[1])
        r_next = self.runs_total + self.c1 + self.r     # one R per Left Cell child
        firsts = reduce(_add, [list(map(sum, by_w)) for by_w in (*s, *acc)])  # S(w, 0)
        shifts = []     # the Shift runs; S0(w) joins as a rectangular S row at w - 1
        for by_w in (s[0], _add(s[1], [[x] for x in self.s0[1:]], _add)):
            run, out = [], []
            for row in reversed(by_w):
                run = _add(row, run)
                out.append([0, *run])
            out.reverse()
            shifts.append(out)
        new_c0 = _add(self.l0, self.s0)
        self.s0 = [0, *_add(self.c0, self.s0)]
        cols = self._enter(_add(l[0], s[0], _add), _add(l[1], s[1], _add),
                           new_c0, self.r)
        self.l = ([left[0], *self.acc[0]], [left[1], *self.acc[1]])
        self.s = (_add(shifts[0], [[x] for x in firsts], _add), shifts[1])
        self.l0 = [0, *self.c0]
        self.r = r_next
        # Nc columns (see _nc_part): a source of parameter r and weight x gives
        # each r' <= r x(r - r') non-rectangular children, x more when it is
        # non-rectangular, and x rectangular ones when it is rectangular.  With
        # suffix sums over r >= r' of x and r*x, that is n1 - r'*n0 + n_plain.
        nc_plain, nc_rect = _add(cols[0], self.nc[0]), _add(cols[1], self.nc[1])
        n = max(len(nc_plain), len(nc_rect))
        nc_plain += [0] * (n - len(nc_plain))
        nc_rect += [0] * (n - len(nc_rect))
        plain, top = [0] * n, [0] * n
        n0 = n1 = n_plain = n_top = 0
        for rp in range(n - 1, 0, -1):
            a, t = nc_plain[rp], nc_rect[rp]
            n0 += a + t
            n1 += rp * (a + t)
            n_plain += a
            n_top += t
            plain[rp] = n1 - rp * n0 + n_plain
            top[rp] = n_top
        # A rectangular NC label also grows one cell on top: NC(r + 1).
        self.nc = (plain, _add(top, [0, *self.nc[1]]))

    def level(self, n: int) -> LabelLevel:
        """The current level as level n: totals from row sums, labels read
        from the vectors and the history on each iteration."""
        l_plain, l_rect, s_plain, s_rect, c_plain, c_rect = (
            sum(map(sum, by_w)) for by_w in (*self.l, *self.s, *self.acc))
        nc, nc_rect = sum(self.nc[0]) + sum(self.nc[1]), sum(self.nc[1])
        rect = (l_rect + s_rect + c_rect + sum(self.l0) + sum(self.s0)
                + sum(self.c0) + nc_rect)
        total = rect + l_plain + s_plain + c_plain + self.c1 + self.r + nc - nc_rect
        return LabelLevel(
            n,
            partial(_labels, (self.l, self.s, self.l0, self.s0, self.r, self.nc),
                    self.history, len(self.history)),
            (total, total - nc, nc, rect, nc_rect),
        )


def levels(max_size: int) -> Iterator[LabelLevel]:
    """Iterate the production system from the size-2 root.

    Yields one LabelLevel per size 2..max_size, each computed only when
    asked for; the totals per level are the numbers of ascending
    polyominoes.  A step at level m is O(m^2) vector additions over rows
    of counts, by ``_LabelDP``, and the totals are row sums; a level's
    labels are read from the vectors and the history on each iteration.
    The state holds the level's L, S, L0, S0, R and NC counts and, as the
    history, each C, C0 and C1 count once, in lists of counts rather than
    dict entries.  Raises ValueError below 2.
    """
    if max_size < 2:
        raise ValueError("max size must be >= 2")
    dp = _LabelDP([(ROOT_LABEL, 1)])
    for n in range(2, max_size + 1):
        if n > 2:
            dp.step()
        yield dp.level(n)


def count_levels(max_size: int) -> list[LabelLevel]:
    """Every level of ``levels(max_size)``, as a list; each level reads its
    labels when iterated."""
    return list(levels(max_size))


def walk(max_size: int) -> Iterator[tuple[int, tuple, TreeLabel, list[tuple]]]:
    """Depth-first walk of the tree from the size-2 root, on row tuples.

    Yields ``(n, rows, label, kids)`` once for every shape of size n in
    2..max_size, where kids is ``_kids`` of the shape, in the order of
    ``children``, and empty at max_size.  Each shape is labelled once,
    when ``_kids`` makes it: that checks it convex and ascending, and its
    label, top row and last column ride on the stack to its own growth.
    The stack holds the unvisited children along one root path, so memory
    grows with the depth, not with a level.  Raises ValueError below 2.
    """
    if max_size < 2:
        raise ValueError("max size must be >= 2")
    # The size rides on the stack: recomputing it per shape costs more.
    root = ((0, 0),)
    stack = [(2, root, *_label_rows(root))]
    while stack:
        n, rows, label, top, last = stack.pop()
        kids = _kids(rows, label, top, last) if n < max_size else []
        for _, kid, kid_label, kid_top, kid_last in kids:
            stack.append((n + 1, kid, kid_label, kid_top, kid_last))
        yield n, rows, label, kids


def constructive_levels(max_size: int) -> list[LabelLevel]:
    """The label multiset of each level 2..max_size, counted over the
    shapes ``walk`` visits with the labels it carries; ``levels`` derives
    the same symbolically.  Raises ValueError below 2."""
    counts = [Counter() for _ in range(max_size - 1)]
    for n, _, label, _ in walk(max_size):
        counts[n - 2][label] += 1
    return [LabelLevel(n, c.items) for n, c in enumerate(counts, 2)]
