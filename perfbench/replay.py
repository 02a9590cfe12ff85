"""Replay one pass of a workload in this process, through `meanking.cli.main`.

Reads the ops (a JSON list, see workloads.py) from standard input and prints
one JSON object: the pass's wall time and, per op, its exit code, output
digest and validation result.  With --traced 1 it wraps the package's layer
functions first (see tracer.py), adds calls and self time per span name, and
writes the spans to --spans-out when the pass ends.  The benchmark runs this
as a child with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracer
import workloads


def run_op(op: dict) -> tuple[int, bytes]:
    # main is looked up on each call, so a traced wrapper installed after
    # import is the one that runs
    import meanking.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = meanking.cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a failed run
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue().encode()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traced", type=int, choices=[0, 1], required=True)
    parser.add_argument("--src", required=True, help="the src/ directory the package must come from")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    ops = json.load(sys.stdin)

    import meanking.cli

    src = Path(args.src).resolve()
    if src not in Path(meanking.cli.__file__).resolve().parents:
        print(f"error: meanking imported from {meanking.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    trace = tracer.Tracer()
    if args.traced:
        trace.install()
    records = []
    start = time.perf_counter()
    for op in ops:
        first = len(trace.spans)
        t0 = time.perf_counter()
        rc, out = run_op(op)
        wall = time.perf_counter() - t0
        records.append({
            "argv": op["argv"],
            "returncode": rc,
            "wall_s": wall,
            "sha256": hashlib.sha256(out).hexdigest(),
            "error": workloads.validate(op, rc, out),
            "calls": dict(Counter(span[0] for span in trace.spans[first:])),
        })
    wall = time.perf_counter() - start

    result = {"wall_s": wall, "ops": records}
    if args.traced:
        result["layers"] = tracer.summarize(trace.spans)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump({"fields": ["name", "start", "end", "parent"], "spans": trace.spans}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
