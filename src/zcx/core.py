"""Convex polyominoes as normalized stacks of row intervals.

A convex polyomino is stored as its rows, bottom to top, each row being an
inclusive interval [left, right] of occupied columns.  Together with the
construction-time checks this representation is exactly the class of convex
polyominoes: rows are intervals by construction, columns are forced to be
intervals, consecutive rows overlap (which gives connectivity), and the
whole shape is translated so the leftmost occupied column is 0.

The canonical text encoding writes the rows bottom to top as "L-R" joined
by ";", e.g. the single cell is "0-0" and a NW-shifted pair of dominoes is
"1-2;0-1".  Lexicographic order of encodings is the total order used for
deterministic output.
"""

from __future__ import annotations


class PolyominoError(ValueError):
    """Base class for invalid polyomino constructions."""


class EmptyRow(PolyominoError):
    """A row interval has left > right."""


class Disconnected(PolyominoError):
    """Two consecutive rows have disjoint column intervals."""


class NotConvex(PolyominoError):
    """Some column's occupied rows do not form a contiguous block."""


class Polyomino:
    """Immutable convex polyomino; build via :func:`from_rows` or :func:`decode`.

    ``rows[i] = (left, right)`` is the inclusive column interval of row i,
    counted from the bottom.  Instances are safe to share between workers.
    Two polyominoes are equal, and hash equal, when their rows are.
    """

    __slots__ = ("rows",)

    rows: tuple[tuple[int, int], ...]

    def __init__(self, rows: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Polyomino is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Polyomino is immutable")

    def __reduce__(self):
        return Polyomino, (self.rows,)

    def __eq__(self, other):
        if other.__class__ is not Polyomino:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"Polyomino(rows={self.rows!r})"

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return max(r for _, r in self.rows) + 1

    def cell_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x, y) for y, (l, r) in enumerate(self.rows) for x in range(l, r + 1)
        )

    def column(self, x: int) -> tuple[int, int]:
        """Inclusive row interval (bottom, top) of column x."""
        ys = [y for y, (l, r) in enumerate(self.rows) if l <= x <= r]
        if not ys:
            raise IndexError(f"column {x} not occupied")
        return min(ys), max(ys)

    def encode(self) -> str:
        return ";".join(f"{l}-{r}" for l, r in self.rows)

    def __lt__(self, other: "Polyomino") -> bool:
        # total order: lexicographic on canonical encodings
        return self.encode() < other.encode()

    def render(self) -> str:
        """ASCII picture, top row first, '#' occupied and '.' empty."""
        w = self.width
        lines = []
        for l, r in reversed(self.rows):
            lines.append("." * l + "#" * (r - l + 1) + "." * (w - 1 - r))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.encode()


def from_rows(intervals) -> Polyomino:
    """Validate and normalize a list of (left, right) row intervals.

    Raises PolyominoError unless each endpoint is an int, else EmptyRow,
    Disconnected or NotConvex unless the rows describe a convex polyomino.
    Columns shift so the least left is 0; row order is kept (bottom to top).
    """
    rows = [(l, r) for l, r in intervals]
    if not rows:
        raise EmptyRow("no rows")
    for l, r in rows:
        # type() is int, not isinstance: a bool is an int too.
        if type(l) is not int or type(r) is not int:
            raise PolyominoError(f"row endpoints {l!r}, {r!r} are not both ints")
        if l > r:
            raise EmptyRow(f"row interval {l}-{r} is empty")
    shift = min(l for l, _ in rows)
    rows = [(l - shift, r - shift) for l, r in rows]
    check_rows(rows)
    return Polyomino(tuple(rows))


def check_rows(rows) -> tuple[bool, int]:
    """Raise Disconnected or NotConvex unless consecutive rows overlap and
    every column is an interval, else return (ascending, the largest
    right).  The rows must be nonempty intervals, at least one.

    Columns are intervals iff the left endpoints are valley-unimodal
    (non-increasing then non-decreasing) and the right endpoints are
    mountain-unimodal; a violation pins down a non-contiguous column.  One
    pass checks every overlap and notes the first gap at each end; a gap
    is reported after all overlaps, a left one before a right one.

    Ascending: no row is strictly NW-shifted from a lower one (strictly
    left of it at both ends).  The lower rows with a left strictly right
    of the current row's form a prefix, and the row is NW-shifted iff its
    right is below their largest right, ``bound``: a strict fall of the
    lefts makes it the running maximum, a rise pops it back to the last
    fall from a left still strictly right of the current one."""
    left_gap = right_gap = None
    rising = falling = False
    ascending = True
    l0, r0 = rows[0]
    last = r0
    falls = []      # per strict fall of the lefts: (left before it, bound)
    bound = -1
    for l1, r1 in rows[1:]:
        if l1 > r0 or l0 > r1:
            raise Disconnected(f"rows {l0}-{r0} and {l1}-{r1} do not overlap")
        if l1 < l0:
            if rising and left_gap is None:
                left_gap = l1
            falls.append((l0, last))
            bound = last
        elif l1 > l0:
            rising = True
            while falls and falls[-1][0] <= l1:
                falls.pop()
            bound = falls[-1][1] if falls else -1
        if r1 < bound:
            ascending = False
        if r1 < r0:
            falling = True
        elif r1 > r0:
            if falling and right_gap is None:
                right_gap = r1
            # The largest so far, or a right gap raises NotConvex below.
            last = r1
        l0, r0 = l1, r1
    gap = right_gap if left_gap is None else left_gap
    if gap is not None:
        raise NotConvex(f"column {gap} occupied on both sides of a gap")
    return ascending, last


def size(p: Polyomino) -> int:
    """Semi-perimeter: number of rows plus number of columns."""
    return p.n_rows + p.width


def mirror(p: Polyomino) -> Polyomino:
    """Reflect horizontally (left-right); an involution preserving size."""
    w = p.width - 1
    return Polyomino(tuple((w - r, w - l) for l, r in p.rows))


def decode(text: str) -> Polyomino:
    """Inverse of Polyomino.encode; validates through from_rows."""
    intervals = []
    for part in text.split(";"):
        l, _, r = part.partition("-")
        # Rows as encode writes them alone: int() also reads signs, spaces,
        # underscores, other scripts' digits and leading zeros.
        if not (l.isdecimal() and r.isdecimal() and part == f"{int(l)}-{int(r)}"):
            raise PolyominoError(f"malformed row {part!r}")
        intervals.append((int(l), int(r)))
    return from_rows(intervals)
