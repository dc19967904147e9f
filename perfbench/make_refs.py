"""Freeze the reference outputs the benchmark checks against.

    python3 perfbench/make_refs.py

Writes, under refs/:

* census.json: the census rows (every class count) for sizes 2..10;
* series.json: every coefficient of the seven series-deep catalog names
  to order 1100, as residues modulo the prime 2^61 - 1;
* labels.json: the per-level label totals (all, centered, non-centered,
  rectangular) of the generating tree to size 40.

The committed files were made from the package as it stood when the
benchmark was defined; regenerate them only to extend a reference, never
to make a changed program pass.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from zcx import classify, gentree, series  # noqa: E402

from workloads import REFS, SERIES_NAMES, _modp  # noqa: E402

REF_CENSUS_MAX = 10
REF_SERIES_TERMS = 1100
REF_LABELS_MAX = 40


def census() -> dict:
    rows = [classify.census(n).to_dict() for n in range(2, REF_CENSUS_MAX + 1)]
    return {"max_size": REF_CENSUS_MAX, "rows": rows}


def series_residues() -> dict:
    residues = {name: [_modp(c) for c in series.gf(name, REF_SERIES_TERMS).coeffs]
                for name in SERIES_NAMES}
    return {"prime": "2^61-1", "terms": REF_SERIES_TERMS, "residues": residues}


def labels() -> dict:
    levels = [
        {
            "level": lv.level,
            "total": str(lv.total),
            "centered": str(lv.centered_total),
            "non_centered": str(lv.non_centered_total),
            "rectangular": str(lv.rectangular_total),
        }
        for lv in gentree.count_levels(REF_LABELS_MAX)
    ]
    return {"max_size": REF_LABELS_MAX, "levels": levels}


MAKERS = {"census": census, "series": series_residues, "labels": labels}


def main() -> None:
    REFS.mkdir(exist_ok=True)
    for name in MAKERS:
        # The 7700 series residues go on one line; the rest stay readable.
        indent = None if name == "series" else 1
        (REFS / f"{name}.json").write_text(json.dumps(MAKERS[name](), indent=indent) + "\n")


if __name__ == "__main__":
    main()
