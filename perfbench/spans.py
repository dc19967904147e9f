"""Outside-in span tracing of the zcx package, and span aggregation.

The operation runner (``op.py``) wraps the public functions of every zcx
module with :class:`Recorder` spans before it runs an operation.  Each span
is (name, parent span, start, end, work count); the spans stay in flat
arrays in memory and are written to one binary file when the operation
ends.  The benchmark process reads the file back with :func:`load` and
:func:`aggregate` turns the spans into per-name calls, inclusive time, self
time (the span minus the time covered by its child spans) and work counts.

Nothing under ``src/`` is edited: wrapping replaces module attributes and
class attributes at run time, in every zcx module that imported the name,
so calls between modules and inside a module both pass through the spans.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# (span name, module, attribute, work counter).  A work counter maps the
# call's (args, result) to an integer stored with the span.
TARGETS = (
    ("cli.main", "zcx.cli", "main", None),
    ("classify.census", "zcx.classify", "census", lambda a, r: a[0]),
    ("classify.census_add", "zcx.classify", "CensusRow.add", None),
    ("classify.degree_pair", "zcx.classify", "degree_pair", None),
    ("classify.is_four_stack", "zcx.classify", "is_four_stack", None),
    ("classify.is_ascending", "zcx.classify", "is_ascending", None),
    ("classify.is_descending", "zcx.classify", "is_descending", None),
    ("classify.is_centered", "zcx.classify", "is_centered", None),
    ("classify.is_directed_convex", "zcx.classify", "is_directed_convex", None),
    ("core.from_rows", "zcx.core", "from_rows", None),
    ("enumerate.walk", "zcx.enumerate", "block_polyominoes", "generator"),
    ("series.gf", "zcx.series", "gf", lambda a, r: r.order),
    ("series.mul", "zcx.series", "Series.__mul__", None),
    ("series.sqrt", "zcx.series", "Series.sqrt", None),
    ("series.inverse", "zcx.series", "Series.inverse", None),
    ("series.div", "zcx.series", "Series.__truediv__", None),
    ("series.fe_checks", "zcx.series", "functional_equation_checks", None),
    ("series.kernel_checks", "zcx.series", "kernel_checks", None),
    ("gentree.count_levels", "zcx.gentree", "count_levels",
     lambda a, r: sum(len(level.counts) for level in r[1:])),
    ("gentree.succ", "zcx.gentree", "succ", lambda a, r: len(r)),
    ("gentree.children", "zcx.gentree", "children", None),
    ("gentree.parent", "zcx.gentree", "parent", None),
    ("gentree.label_of", "zcx.gentree", "label_of", None),
    ("gentree.constructive_levels", "zcx.gentree", "constructive_levels", None),
    ("verify.suite.identities", "zcx.verify", "suite_identities", None),
    ("verify.suite.structure", "zcx.verify", "suite_structure", None),
    ("verify.suite.refined", "zcx.verify", "suite_refined_gf", None),
    ("verify.suite.kernels", "zcx.verify", "suite_kernels", None),
    ("verify.suite.gentree", "zcx.verify", "suite_gentree", None),
)

_TYPECODES = ("i", "i", "d", "d", "q")   # name, parent, start, end, work


class Recorder:
    """In-memory span store: one array per span field, indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack = [-1]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.work.append(0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, work: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()
        self.work[sid] = work

    def wrap(self, span: str, fn, work=None):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = len(self.names)
        self.names.append(span)
        opener, closer = self._open, self._close
        if work == "generator":
            # One span per next(): the walk between two yielded items.  The
            # span closes before the item is handed to the consumer, so the
            # consumer's work is not counted as walking.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = opener(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        closer(sid, 0)
                        return
                    except BaseException:
                        closer(sid, 0)
                        raise
                    closer(sid, 1)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            sid = opener(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                closer(sid, 0)
                raise
            closer(sid, work(args, result) if work else 0)
            return result
        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        header = {"names": self.names, "count": len(self.name), "import_s": import_s}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end, self.work):
                arr.tofile(fh)


def instrument(recorder: Recorder) -> None:
    """Wrap every target in place, wherever a zcx module holds a reference."""
    modules = [
        importlib.import_module(m)
        for m in ("zcx", "zcx.core", "zcx.enumerate", "zcx.classify",
                  "zcx.series", "zcx.gentree", "zcx.verify", "zcx.cli")
    ]
    for span, module_name, attr, work in TARGETS:
        owner = importlib.import_module(module_name)
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(span, cls.__dict__[meth], work))
            continue
        original = getattr(owner, attr)
        wrapped = recorder.wrap(span, original, work)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    # Dispatch tables such as verify.SUITES.
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped


def load(path: str) -> dict:
    """Read a span file written by :meth:`Recorder.dump`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = []
        for code in _TYPECODES:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            fields.append(arr)
    header["name"], header["parent"], header["start"], header["end"], header["work"] = fields
    return header


def aggregate(spans: dict) -> dict:
    """Per span name: calls, inclusive total_s, self_s and summed work.

    Also reports ``root_s`` (time covered by top-level spans) and the
    ``verify_census`` sizes: the ``n`` of each classify.census call made
    inside a verify suite, for the recomputation ratio.
    """
    names, parent, work = spans["names"], spans["parent"], spans["work"]
    name = spans["name"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    child = [0.0] * len(dur)
    root_s = 0.0
    for sid, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[sid]
        else:
            root_s += dur[sid]
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0} for n in names}
    verify_census = []
    census_id = names.index("classify.census") if "classify.census" in names else -1
    for sid, nid in enumerate(name):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += dur[sid] - child[sid]
        row["work"] += work[sid]
        p = parent[sid]
        if p < 0 or name[p] != nid:
            row["total_s"] += dur[sid]
        if nid == census_id:
            while p >= 0 and not names[name[p]].startswith("verify.suite."):
                p = parent[p]
            if p >= 0:
                verify_census.append(work[sid])
    return {"names": out, "root_s": root_s, "verify_census": verify_census,
            "import_s": spans["import_s"]}
