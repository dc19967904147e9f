"""Run one benchmark operation in a fresh interpreter.

    python3 perfbench/op.py SPEC_JSON [SPAN_FILE]

SPEC_JSON is one of
  {"argv": [...]}                       -> zcx.cli.main(argv), as the zcx command
  {"call": "<module>.<function>", "args": [...], "kwargs": {...}}
                                        -> the zcx library call, result printed as JSON
  {}                                    -> import zcx.cli and exit (set-up probe)

With SPAN_FILE the zcx functions are wrapped with spans (see spans.py) and
the spans are written to SPAN_FILE when the operation ends.  The program's
output goes to stdout unchanged; the exit status is the command's.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    span_file = sys.argv[2] if len(sys.argv) > 2 else None
    t0 = time.perf_counter()
    import zcx.cli
    import_s = time.perf_counter() - t0
    if not spec:
        return 0
    recorder = None
    if span_file:
        import spans

        recorder = spans.Recorder()
        spans.instrument(recorder)
    try:
        if "argv" in spec:
            return zcx.cli.main(spec["argv"])
        module, _, function = spec["call"].partition(".")
        result = getattr(getattr(zcx, module), function)(
            *spec.get("args", ()), **spec.get("kwargs", {}))
        if hasattr(result, "to_dict"):
            result = result.to_dict()
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    finally:
        if recorder is not None:
            sys.stdout.flush()
            recorder.dump(span_file, import_s)


if __name__ == "__main__":
    sys.exit(main())
