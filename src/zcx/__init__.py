"""Exact-arithmetic census and verification toolkit for convex polyominoes
classified by NE/NW convexity degree.

Names resolve on first use: ``zcx.gf`` imports ``zcx.series`` when it is
first read, so importing ``zcx`` loads no submodule.
"""

import importlib

_HOMES = {
    "core": (
        "Disconnected", "EmptyRow", "NotConvex", "Polyomino", "PolyominoError",
        "decode", "from_rows", "mirror", "size",
    ),
    "classify": ("CensusRow", "DegreePair", "census", "degree_pair"),
    "enumerate": ("all_convex", "count_convex"),
    "gentree": (
        "InvalidLabel", "NotAscending", "TreeLabel", "children",
        "count_levels", "label_of", "parent", "succ",
    ),
    "series": ("Series", "gf", "h_formula", "rect_formula", "scalar_gf"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = ("core", "classify", "enumerate", "gentree", "series", "verify", "cli")

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
