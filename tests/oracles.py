"""Definitions read off a raw cell set, independent of the row checks and
the class rules, for the tests to compare the fast paths with."""

from __future__ import annotations

from collections import deque

from zcx.core import Disconnected, NotConvex


def _reached(cells, start, steps):
    """The cells of ``cells`` reached from ``start`` by the unit ``steps``."""
    seen = {start}
    frontier = deque(seen)
    while frontier:
        x, y = frontier.popleft()
        for dx, dy in steps:
            cell = (x + dx, y + dy)
            if cell in cells and cell not in seen:
                seen.add(cell)
                frontier.append(cell)
    return seen


def convexity(cells):
    """None when a nonempty set of (x, y) cells is a convex polyomino, else
    the exception class it breaks: Disconnected when the cells are not
    4-connected, NotConvex when they are but a row or a column is not an
    interval."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    if _reached(cells, next(iter(cells)), steps) != cells:
        return Disconnected
    lines = {}
    for x, y in cells:
        lines.setdefault(("row", y), []).append(x)
        lines.setdefault(("column", x), []).append(y)
    if any(max(at) - min(at) + 1 != len(at) for at in lines.values()):
        return NotConvex
    return None


def directed(cells):
    """Whether every cell is reached from (0, 0) by north and east steps."""
    return (0, 0) in cells and _reached(cells, (0, 0), ((1, 0), (0, 1))) == cells


def centered(cells):
    """Whether some row covers every column."""
    columns = {x for x, _ in cells}
    return any(all((x, y) in cells for x in columns)
               for y in {y for _, y in cells})
