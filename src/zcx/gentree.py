"""Generating tree for ascending polyominoes: labels, growth, productions.

Ascending polyominoes grow one unit of size at a time through six local
operations.  On a centered polyomino (one with a full-width row) the
operations are:

* Left Cell -- glue one cell to the left of a base row (the base being the
  maximal block of full-width rows); the child has a single cell in its
  leftmost column.
* Right Cell -- glue one cell to the right of a base row; blocked when the
  leftmost column holds a single cell, which keeps generation unambiguous.
* Row -- add one more full-width row to the base.
* Shift -- insert a right-aligned shorter row immediately above the base;
  only for base height 1, left offset w > 0 and at least two cells in the
  leftmost column (other cases are reachable by Left Cell or Row).
* Nc -- append a new column of r' cells against the last column strictly
  above the base, leaving the centered world.

Non-centered polyominoes only grow by Nc* (same column appending, plus one
extra cell on top of the rightmost column when that column reaches the top
of the shape).

Each polyomino carries a label: family (C0, C, C1, L0, L, R, S0, S for
centered, NC for non-centered), base height b, left offset w, last-column
excess r, and a rectangular flag (last column reaching the maximal height).
``succ`` rewrites a label into the multiset of its children's labels;
``count_levels`` iterates that rewriting symbolically, while ``children``
and ``parent`` realize the same tree on actual polyominoes.  The tests
check that the two views coincide level by level.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Polyomino, from_rows, size
from .classify import is_ascending, is_centered


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


def _shape(p: Polyomino):
    """Geometric quantities shared by the labeling and growth code."""
    rows = p.rows
    width = p.width
    full = [y for y, (l, r) in enumerate(rows) if l == 0 and r == width - 1]
    leftcol = sum(1 for l, _ in rows if l == 0)
    top_rect = rows[-1][1] == width - 1
    return rows, width, full, leftcol, top_rect


def label_of(p: Polyomino) -> TreeLabel:
    """Label per the family rules; raises NotAscending outside the class."""
    if not is_ascending(p):
        raise NotAscending(p.encode())
    rows, width, full, leftcol, rect = _shape(p)
    if not full:
        # Non-centered: r counts the cells of the last column.
        r = sum(1 for _, rr in rows if rr == width - 1)
        return TreeLabel("NC", 1, 0, r, rect).validate()
    base_top = full[-1]
    b = len(full)
    flipped = base_top == len(rows) - 1
    if flipped:
        w = width
    else:
        w = rows[base_top + 1][0]
    r = sum(1 for _, rr in rows[base_top + 1 :] if rr == width - 1)
    if b > 1:
        family = "C0" if flipped else ("C1" if w == 0 else "C")
    elif leftcol == 1:
        family = "L0" if flipped else "L"
    elif w == 0:
        family = "R"
    else:
        family = "S0" if flipped else "S"
    if family in ("C1", "R"):
        # These classes hold a single cell in the rightmost column.
        assert r == 0 and not rect, p.encode()
    return TreeLabel(family, b, w, r, rect).validate()


def is_rectangular(p: Polyomino) -> bool:
    """Topmost cell of the rightmost column reaches the maximal height."""
    return p.rows[-1][1] == p.width - 1


def children(p: Polyomino) -> list[tuple[str, Polyomino]]:
    """All ascending polyominoes of the next size grown from p, tagged by
    operation, in deterministic order."""
    if not is_ascending(p):
        raise NotAscending(p.encode())
    rows, width, full, leftcol, _ = _shape(p)
    out: list[tuple[str, Polyomino]] = []

    if full:
        base_bot, base_top = full[0], full[-1]
        b = len(full)
        flipped = base_top == len(rows) - 1
        w = width if flipped else rows[base_top + 1][0]
        r_cnt = sum(1 for _, rr in rows[base_top + 1 :] if rr == width - 1)

        # Left Cell: one new cell left of each base row.
        for k in range(base_top, base_bot - 1, -1):
            grown = [
                (0, rr + 1) if y == k else (l + 1, rr + 1)
                for y, (l, rr) in enumerate(rows)
            ]
            out.append((OP_LEFT_CELL, from_rows(grown)))

        # Right Cell: blocked when the leftmost column has a single cell.
        if leftcol >= 2:
            for k in range(base_top, base_bot - 1, -1):
                grown = [
                    (l, rr + 1) if y == k else (l, rr)
                    for y, (l, rr) in enumerate(rows)
                ]
                out.append((OP_RIGHT_CELL, from_rows(grown)))

        # Row: one more full-width row in the base.
        grown = list(rows[: base_top + 1]) + [(0, width - 1)] + list(rows[base_top + 1 :])
        out.append((OP_ROW, from_rows(grown)))

        # Shift: insert a right-aligned row immediately above the base.
        if w > 0 and leftcol >= 2 and b == 1:
            offsets = range(1, w) if flipped else range(1, w + 1)
            for j in offsets:
                grown = (
                    list(rows[: base_top + 1])
                    + [(j, width - 1)]
                    + list(rows[base_top + 1 :])
                )
                out.append((OP_SHIFT, from_rows(grown)))

        # Nc: append a column of r' cells strictly above the base.
        for rp in range(1, r_cnt + 1):
            for start in range(base_top + 1, base_top + r_cnt - rp + 2):
                grown = [
                    (l, rr + 1) if start <= y < start + rp else (l, rr)
                    for y, (l, rr) in enumerate(rows)
                ]
                out.append((OP_NC, from_rows(grown)))
    else:
        # Non-centered: Nc* on the block of rows touching the last column.
        touch = [y for y, (_, rr) in enumerate(rows) if rr == width - 1]
        u0, u1 = touch[0], touch[-1]
        r_cnt = u1 - u0 + 1
        for rp in range(1, r_cnt + 1):
            for start in range(u0, u1 - rp + 2):
                grown = [
                    (l, rr + 1) if start <= y < start + rp else (l, rr)
                    for y, (l, rr) in enumerate(rows)
                ]
                out.append((OP_NC_STAR, from_rows(grown)))
        if is_rectangular(p):
            grown = list(rows) + [(width - 1, width - 1)]
            out.append((OP_NC_STAR, from_rows(grown)))

    encodings = [c.encode() for _, c in out]
    if len(set(encodings)) != len(encodings):
        raise AssertionError(f"duplicate children of {p.encode()}")
    return out


def parent(p: Polyomino) -> tuple[str, Polyomino] | None:
    """The unique (operation, parent) producing p; None for the root."""
    if not is_ascending(p):
        raise NotAscending(p.encode())
    if size(p) == 2:
        return None
    rows, width, full, leftcol, _ = _shape(p)

    if not full:
        # Case 1: the top cell of the rightmost column sticks out alone.
        if rows[-1] == (width - 1, width - 1):
            return OP_NC_STAR, from_rows(rows[:-1])
        # Case 2: remove the whole last column.
        shrunk = []
        for l, r in rows:
            if r == width - 1:
                shrunk.append((l, r - 1))
            else:
                shrunk.append((l, r))
        q = from_rows(shrunk)
        op = OP_NC if is_centered(q) else OP_NC_STAR
        return op, q

    base_bot, base_top = full[0], full[-1]
    b = len(full)
    if b > 1:
        return OP_ROW, from_rows(rows[:base_top] + rows[base_top + 1 :])
    if leftcol == 1:
        # Remove the base row's left cell (case 2.1).
        shrunk = [
            (1, r) if y == base_top else (l, r) for y, (l, r) in enumerate(rows)
        ]
        return OP_LEFT_CELL, from_rows(shrunk)
    rightcol = sum(1 for _, r in rows if r == width - 1)
    if rightcol == 1:
        # Remove the base row's right cell (case 2.2).
        shrunk = [
            (l, r - 1) if y == base_top else (l, r) for y, (l, r) in enumerate(rows)
        ]
        return OP_RIGHT_CELL, from_rows(shrunk)
    # Case 2.3: remove the row immediately above the base.
    return OP_SHIFT, from_rows(rows[: base_top + 1] + rows[base_top + 2 :])


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


class LabelLevel(NamedTuple):
    """Multiset of labels at one tree level (= one object size)."""

    level: int
    counts: dict[TreeLabel, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def centered_total(self) -> int:
        return sum(v for k, v in self.counts.items() if k.family != "NC")

    @property
    def non_centered_total(self) -> int:
        return sum(v for k, v in self.counts.items() if k.family == "NC")

    @property
    def rectangular_total(self) -> int:
        return sum(v for k, v in self.counts.items() if k.rect)


def count_levels(max_size: int) -> list[LabelLevel]:
    """Iterate the production system from the size-2 root.

    Returns one LabelLevel per size 2..max_size; the totals per level are
    the numbers of ascending polyominoes.
    """
    if max_size < 2:
        raise ValueError("max_size must be >= 2")
    levels = [LabelLevel(2, {ROOT_LABEL: 1})]
    while levels[-1].level < max_size:
        nxt: dict[TreeLabel, int] = {}
        for label, cnt in levels[-1].counts.items():
            for child, mult in succ(label):
                nxt[child] = nxt.get(child, 0) + cnt * mult
        levels.append(LabelLevel(levels[-1].level + 1, nxt))
    return levels


# Largest size constructive_levels builds: every level is held in full,
# and the level at 12 is about four times the level at 11.
CONSTRUCT_CAP = 11


def constructive_levels(max_size: int) -> list[list[Polyomino]]:
    """Materialize the tree levels as polyominoes, each level sorted by
    encoding.  Raises ValueError above ``CONSTRUCT_CAP``."""
    from .core import decode

    if max_size > CONSTRUCT_CAP:
        raise ValueError(
            f"constructive levels are materialized whole and capped at size "
            f"{CONSTRUCT_CAP} (asked {max_size}); the label DP has no cap"
        )
    level = [decode("0-0")]
    out = [level]
    while size(level[0]) < max_size:
        nxt = [child for p in level for _, child in children(p)]
        nxt.sort(key=Polyomino.encode)
        out.append(nxt)
        level = nxt
    return out
