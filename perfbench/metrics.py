"""The benchmark's metrics: names, units, and what each layer metric should move.

End-to-end metrics are measured with tracing off.  Per-layer metrics come
from the spans of a traced run (spans.py); times and counts are summed over
the operations of one round and reported as the median over the traced
rounds.  Calls and counts repeat exactly from run to run.
"""

from __future__ import annotations

import statistics

END_TO_END = (
    # (name, unit, better)
    ("wall_s", "s", "lower"),        # a round's operations, spawn to exit; slowest round
    ("cpu_s", "s", "lower"),         # user + sys of a round's operation processes; slowest round
    ("setup_s", "s", "lower"),       # spawn until zcx.cli is imported; upper decile
    ("peak_rss_mib", "MiB", "lower"),  # largest peak RSS of any operation
)

CLASSIFY = "wall_s/cpu_s on census, partly on mixed"
SERIES = "wall_s on series-deep and mixed"
SERIES_DEEP = "wall_s/peak_rss_mib on series-deep; mixed at low order"
LABELS = "wall_s/peak_rss_mib on labels"
MIXED = "wall_s on mixed"

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("classify.degree_pair.calls", "count", "lower", CLASSIFY),
    ("classify.degree_pair.self_s", "s", "lower", CLASSIFY),
    ("classify.is_four_stack.self_s", "s", "lower", "wall_s on census"),
    ("classify.is_ascending.self_s", "s", "lower", "wall_s on census"),
    ("classify.is_descending.self_s", "s", "lower", "wall_s on census"),
    ("classify.is_centered.self_s", "s", "lower", "wall_s on census"),
    ("classify.is_directed_convex.self_s", "s", "lower", "wall_s on census"),
    ("classify.census.total_s", "s", "lower", "wall_s on census"),
    ("classify.census_add.self_s", "s", "lower", "wall_s on census"),
    ("classify.shapes_per_s", "1/s", "higher", "wall_s on census"),
    ("enumerate.shapes", "count", "lower", "wall_s on census and mixed"),
    ("enumerate.walk.self_s", "s", "lower", "wall_s on census and mixed"),
    ("core.from_rows.calls", "count", "lower", "wall_s on census; mixed through children"),
    ("core.from_rows.self_s", "s", "lower", "wall_s on census; mixed through children"),
    ("series.gf.calls", "count", "lower", SERIES),
    ("series.gf.total_s", "s", "lower", SERIES),
    ("series.coeffs_per_s", "1/s", "higher", SERIES),
    ("series.mul.calls", "count", "lower", SERIES_DEEP),
    ("series.mul.self_s", "s", "lower", SERIES_DEEP),
    ("series.sqrt.total_s", "s", "lower", SERIES_DEEP),
    ("series.inverse.total_s", "s", "lower", SERIES_DEEP),
    ("series.div.total_s", "s", "lower", SERIES_DEEP),
    ("series.fe_checks.total_s", "s", "lower", MIXED),
    ("series.kernel_checks.total_s", "s", "lower", MIXED),
    ("gentree.count_levels.total_s", "s", "lower", "wall_s on labels"),
    ("gentree.count_levels.self_s", "s", "lower", "wall_s on labels (the level merge)"),
    ("gentree.succ.calls", "count", "lower", "wall_s on labels"),
    ("gentree.succ.self_s", "s", "lower", "wall_s on labels"),
    ("gentree.succ.children", "count", "lower", LABELS),
    ("gentree.labels.distinct", "count", "lower", LABELS),
    ("gentree.merge_ratio", "ratio", "higher", LABELS),
    ("gentree.children.calls", "count", "lower", MIXED),
    ("gentree.children.self_s", "s", "lower", MIXED),
    ("gentree.parent.calls", "count", "lower", "wall_s on mixed, through the gentree suite"),
    ("gentree.parent.self_s", "s", "lower", "wall_s on mixed, through the gentree suite"),
    ("gentree.label_of.calls", "count", "lower", MIXED),
    ("gentree.label_of.self_s", "s", "lower", MIXED),
    ("gentree.constructive_levels.total_s", "s", "lower", MIXED),
    ("verify.suite.identities.total_s", "s", "lower", MIXED),
    ("verify.suite.structure.total_s", "s", "lower", MIXED),
    ("verify.suite.refined.total_s", "s", "lower", MIXED),
    ("verify.suite.kernels.total_s", "s", "lower", MIXED),
    ("verify.suite.gentree.total_s", "s", "lower", MIXED),
    ("verify.census_calls", "count", "lower", MIXED),
    ("verify.census_sizes", "count", "lower", MIXED),
    ("cli.main.total_s", "s", "lower", "wall_s on every workload"),
    ("cli.self_s", "s", "lower", "wall_s on series-deep (parsing and serialization)"),
    ("cli.output_bytes", "bytes", "lower", "wall_s on series-deep"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("trace.wall_s", "s", "lower", "traced wall_s of the same rounds (tracing overhead base)"),
    ("trace.untraced_wall_s", "s", "lower", "wall_s, measured inside the traced run"),
    ("trace.overhead_ratio", "ratio", "lower", "trace.wall_s over trace.untraced_wall_s, minus 1"),
    ("trace.remainder_s", "s", "lower", "traced wall_s outside every span: start-up and import"),
)

def merge(aggs: list[dict]) -> dict:
    """Sum the span aggregates of the operations of one round."""
    names: dict[str, dict] = {}
    census_calls = census_sizes = 0
    for agg in aggs:
        for name, row in agg["names"].items():
            acc = names.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        census_calls += len(agg["verify_census"])
        census_sizes += len(set(agg["verify_census"]))
    return {
        "names": names,
        "root_s": sum(a["root_s"] for a in aggs),
        "import_s": [a["import_s"] for a in aggs],
        "census_calls": census_calls,
        "census_sizes": census_sizes,
    }


def self_share_by_layer(agg: dict) -> dict[str, float]:
    """Each module's share of the traced self time, largest first; the
    layer is the span name's first component (classify, series, ...)."""
    layers: dict[str, float] = {}
    for name, row in agg["names"].items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    total = sum(layers.values())
    return dict(sorted(((k, _ratio(v, total)) for k, v in layers.items()),
                       key=lambda kv: -kv[1]))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced round, trace.remainder_s included.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.total_s`` read the
    span aggregate directly; the rest are derived below.
    """
    spans = agg["names"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    derived = {
        "classify.shapes_per_s": _ratio(span("classify.census_add", "calls"),
                                        span("classify.census", "total_s")),
        "enumerate.shapes": span("enumerate.walk", "work"),
        "series.coeffs_per_s": _ratio(span("series.gf", "work"),
                                      span("series.gf", "total_s")),
        "gentree.succ.children": span("gentree.succ", "work"),
        "gentree.labels.distinct": span("gentree.count_levels", "work"),
        "gentree.merge_ratio": _ratio(span("gentree.count_levels", "work"),
                                      span("gentree.succ", "work")),
        "verify.census_calls": agg["census_calls"],
        "verify.census_sizes": agg["census_sizes"],
        "cli.self_s": span("cli.main", "self_s"),
        "cli.output_bytes": output_bytes,
        "setup.import_s": statistics.median(agg["import_s"]) if agg["import_s"] else 0.0,
        "trace.remainder_s": wall_s - agg["root_s"],
    }
    out = {}
    for name, _, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif not name.startswith("trace."):   # the rest of trace.* is run-level
            span_name, _, key = name.rpartition(".")
            out[name] = span(span_name, key)
    return out
