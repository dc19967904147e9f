"""The checks CI runs past Tier-1, one row of ``CHECKS`` each.

    PYTHONPATH=src python tests/ci.py

A row names a check function, by its module and name, and the arguments
CI gives it.  The function's defaults are its Tier-1 bounds, and
``tests/test_package.py`` fails if a row reaches less far than them.  A
check that takes ``census`` reads one census memo, its sizes of 10 and
more counted on a pool of two workers, so each size is counted once per
run; the first check that reads a size pays for it.

Every check runs, even after one fails.  Each prints one line: PASS or
FAIL, the check with its arguments, and its seconds; a failure adds its
traceback, or the text of a report that did not pass.  The script exits
1 if any check failed.

The census workers are spawned and import this script, so its top level
holds only the table and standard-library imports besides
``zcx.classify``; the check modules are imported as the checks run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import traceback

from zcx import classify

CHECKS = [
    ("test_series", "test_functional_equations_hold_at_several_parameter_sets",
     {"order": 200}),
    ("test_series", "test_size_identities_hold", {"order": 2049}),
    ("test_enumerate", "test_counts_match_convex_gf", {"sizes": (10, 11)}),
    ("test_classify", "test_ascending_and_descending_agree_with_the_definition",
     {"sizes": [11]}),
    ("test_classify", "test_directed_convex_examples_and_oracle", {"sizes": [11]}),
    ("test_classify", "test_four_stack_agrees_with_bruteforce", {"sizes": [10]}),
    ("test_classify", "test_degree_agrees_with_bruteforce_exhaustively",
     {"sizes": [10]}),
    ("test_classify", "test_orbit_images_share_the_representative_signature",
     {"sizes": [10]}),
    ("test_classify", "test_kernels_agree_with_the_oracles_on_large_random_shapes",
     {"draws": 500}),
    ("test_classify", "test_tree_reaches_the_root_from_large_random_shapes",
     {"draws": 500}),
    ("test_classify", "test_labeller_equals_the_family_rules_on_large_random_shapes",
     {"draws": 500}),
    ("test_classify",
     "test_check_rows_equals_the_cell_set_definition_on_large_random_shapes",
     {"draws": 500}),
    ("test_gentree", "test_a_child_keeps_its_parents_ne_degree_or_adds_one",
     {"max_size": 13}),
    ("test_acceptance", "test_census_histograms_frozen_at_the_frontier",
     {"sizes": range(11, 14)}),
    ("zcx.verify", "suite_identities", {"max_n": 13}),
    ("zcx.verify", "suite_structure", {"max_n": 13}),
    ("zcx.verify", "suite_gentree", {"max_construct": 13, "max_labels": 200}),
    ("test_row_sweep", "test_sweep_histogram_equals_the_census_up_to_9",
     {"max_size": 12}),
]


def run(fn, kwargs) -> str | None:
    """Call one check: None if it passed, else what to print."""
    try:
        result = fn(**kwargs)
    except Exception:   # one failing check must not stop the rest
        return traceback.format_exc()
    if getattr(result, "passed", True) is False:
        return result.to_text()
    return None


def main() -> int:
    failed = 0
    with classify.census_pool(2) as pool:
        census = functools.cache(functools.partial(classify.census, pool=pool))
        for module, name, args in CHECKS:
            fn = getattr(importlib.import_module(module), name)
            kwargs = dict(args)
            if "census" in inspect.signature(fn).parameters:
                kwargs["census"] = census
            t0 = time.perf_counter()
            failure = run(fn, kwargs)
            bound = ", ".join(f"{key}={value!r}" for key, value in args.items())
            print(f"{'FAIL' if failure else 'PASS'}  {module}.{name}({bound})"
                  f"  {time.perf_counter() - t0:.1f}s", flush=True)
            if failure:
                failed += 1
                print(failure.rstrip(), flush=True)
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
