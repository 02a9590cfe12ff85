"""End-to-end and per-layer benchmark of the `meanking` CLI.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run it from anywhere; it measures the checkout it sits in, importing the
package from that checkout's src/ (no install needed).

Process model: this script is one client in a closed loop.  Each op is a fresh
`meanking ...` child process, started only after the previous one ended, with
BLAS/OpenMP pools pinned to one thread.  A fresh process per op is what a CLI
user pays, and it keeps a process-level cache from carrying one op's work
into the next.  The ops of a workload's pass run round and round until the
next op would end after --seconds, and each op's time is its median.

--trace 0 reports the end-to-end metrics (END_TO_END below).  --trace 1
replays the same ops in-process through `meanking.cli.main`, alternating an
untraced and a traced child, and reports calls and self time per layer
function and the tracing overhead (see tracer.py).

Every op's output is checked (workloads.validate); a failed op counts in
`failed`.  Details - every op's wall time, exit code and output digest, the
workload-specific metrics, the environment - go to
.perfbench-results/<workload>-seed<seed>-trace<trace>.json in the checkout.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0 when every op was correct, 1 when
one failed, 2 when the checkout has no src/meanking to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench-results"

# Every child runs with one thread per BLAS/OpenMP pool, so one op keeps at
# most two threads busy, and a fixed hash seed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# What the `meanking` console script runs, and the same without the command.
CLI = "import sys; from meanking.cli import main; sys.exit(main())"
IMPORT_ONLY = "import meanking.cli"
PROBE = (
    "import json, platform, numpy, meanking.cli; "
    "print(json.dumps({'file': meanking.cli.__file__, 'numpy': numpy.__version__, "
    "'python': platform.python_version()}))"
)
SETUP_PROBES = 7
# far above any op's time; a hung op fails and the run still ends within 180 s
OP_TIMEOUT_S = 60

# Reported on the last line with --trace 0; the same names as BENCHMARK.json.
#   setup_s      a fresh interpreter plus `import meanking.cli`, the median of
#                SETUP_PROBES starts; on exact-simulate, `simulate --rounds 1`
#   pass_s       one pass of the workload's ops, the sum of each op's median
#   work_per_s   identity checks proven per second of verify; on
#                exact-simulate, rounds per second of `simulate --rounds R`
#   peak_rss_mb  the largest peak RSS of any child in the run
END_TO_END = {"setup_s": "s", "pass_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# Workload-specific metrics, in the results file and the printed report only:
# the last line must carry metrics that every workload has and that are never 0.
DETAIL = {
    "verify_s": "s",
    "simulate_s": "s",
    "rounds_per_s": "1/s",
    "tomography_s": "s",
    "failed_op_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.startup_s": "s"}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(CHILD_ENV, PYTHONPATH=str(SRC))
    return env


def run_child(argv: list[str], timeout: float, stdin: bytes | None = None) -> tuple[int | None, bytes, bytes, float]:
    """Run argv to completion; returns (exit code or None on timeout, stdout, stderr, wall s)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return code, out, err, time.perf_counter() - start


def probe() -> dict:
    """Untimed first start: checks where the package comes from, and writes
    its bytecode so that timed starts all find it."""
    code, out, err, _ = run_child([sys.executable, "-c", PROBE], timeout=OP_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"error: cannot import meanking from {SRC}:\n{err.decode(errors='replace')}")
    info = json.loads(out)
    if SRC.resolve() not in Path(info["file"]).resolve().parents:
        raise SystemExit(f"error: meanking imported from {info['file']}, not from {SRC}")
    return info


def startup_samples(n: int) -> list[float]:
    """Wall time of fresh interpreters that only import meanking.cli."""
    samples = []
    for _ in range(n):
        code, _, err, wall = run_child([sys.executable, "-c", IMPORT_ONLY], timeout=OP_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"error: import meanking.cli failed:\n{err.decode(errors='replace')}")
        samples.append(wall)
    return samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without calling git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over src/meanking's files, which identifies the code measured
    when the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "meanking").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment(args, info: dict) -> dict:
    return {
        "python": info["python"],
        "numpy": info["numpy"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "child_env": CHILD_ENV,
        "workload_seed": args.seed,
        "scale": args.scale,
    }


def argv_key(op: dict) -> str:
    return " ".join(op["argv"])


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


class Checker:
    """Validates each op, counts failures and keeps output digests; an op
    whose output bytes differ from an earlier run of the same argv fails too."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def check(self, op: dict, digest: str, error: str | None) -> str | None:
        key = argv_key(op)
        first = self.digests.setdefault(key, digest)
        if error is None and first != digest:
            error = "output differs from an earlier run with the same argv"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(f"{key}: {error}")
        return error


def measure(args, ops: list[dict], checker: Checker) -> tuple[dict, dict, list[dict]]:
    """Untraced run: a fresh process per op, until the deadline.

    Each op's time is the median of its samples in the run; a pass's time
    is the sum of those medians over its ops.
    """
    start = time.perf_counter()
    simulate_workload = args.workload == "exact-simulate"
    startup = [] if simulate_workload else startup_samples(SETUP_PROBES)
    records: list[dict] = []
    walls: dict[str, list[float]] = {}
    # ops run in pass order, round and round, until the next op would
    # typically end after the deadline; every op runs at least once
    for index in itertools.count():
        op = ops[index % len(ops)]
        key = argv_key(op)
        if index >= len(ops) and time.perf_counter() - start + statistics.median(walls[key]) > args.seconds:
            break
        code, out, err, wall = run_child([sys.executable, "-c", CLI, *op["argv"]], OP_TIMEOUT_S)
        digest = hashlib.sha256(out).hexdigest()
        if code is None:
            error = f"timed out after {OP_TIMEOUT_S} s"
        else:
            error = workloads.validate(op, code, out)
        error = checker.check(op, digest, error)
        if error and err:
            error += " | stderr: " + err.decode(errors="replace").strip().splitlines()[-1]
        records.append({"pass": index // len(ops), "argv": op["argv"], "wall_s": wall,
                        "returncode": code, "sha256": digest, "error": error})
        walls.setdefault(key, []).append(wall)

    typical = {key: statistics.median(values) for key, values in walls.items()}

    def total(kind: str) -> float:
        return sum(typical[argv_key(op)] for op in ops if op["kind"] == kind)

    detail: dict[str, float | None] = dict.fromkeys(DETAIL)
    if simulate_workload:
        setup_op, sim_op = (next(op for op in ops if op["kind"] == kind) for kind in ("simulate_setup", "simulate"))
        setup = walls[argv_key(setup_op)]
        # the two calls of one pass run back to back, so their difference,
        # the rounds alone, is taken at one host speed
        rounds_s = [sim - s for s, sim in zip(setup, walls[argv_key(sim_op)])]
        detail["simulate_s"] = total("simulate")
        detail["rounds_per_s"] = (sim_op["rounds"] - 1) / statistics.median(rounds_s)
        # rounds over the whole call: a difference of two noisy times, as in
        # rounds_per_s, spreads about twice as wide from run to run
        work_per_s = sim_op["rounds"] / detail["simulate_s"]
    else:
        setup = startup
        # identity checks proven per second of verify
        detail["verify_s"] = total("verify")
        work_per_s = sum(workloads.work_units(op) for op in ops) / detail["verify_s"]
    if args.workload == "float-oracle":
        detail["tomography_s"] = total("tomography")
    detail["failed_op_ratio"] = checker.failed / checker.attempted

    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(typical[argv_key(op)] for op in ops),
        "work_per_s": work_per_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    samples = {"setup_s": summary(setup)}
    samples.update({key: summary(values) for key, values in walls.items()})
    return metrics, {"detail": detail, "samples": samples}, records


def replay(ops: list[dict], traced: bool, spans_out: Path | None, timeout: float) -> dict:
    argv = [sys.executable, str(HERE / "replay.py"), "--traced", str(int(traced)), "--src", str(SRC)]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    code, out, err, _ = run_child(argv, timeout, json.dumps(ops).encode())
    if code != 0:
        raise SystemExit(f"error: replay exited {code}:\n{err.decode(errors='replace')}")
    return json.loads(out.decode().splitlines()[-1])


def trace_run(args, ops: list[dict], checker: Checker) -> tuple[dict, dict, list[dict]]:
    """Traced run: in-process replays, untraced and traced in turn."""
    start = time.perf_counter()
    startup = startup_samples(SETUP_PROBES)
    spans_out = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
    plain_walls, traced_walls, layer_runs, records = [], [], [], []
    while True:
        for traced in (False, True):
            result = replay(ops, traced, spans_out if traced else None, 2 * OP_TIMEOUT_S)
            for op, rec in zip(ops, result["ops"]):
                rec["error"] = checker.check(op, rec["sha256"], rec["error"])
                rec["traced"] = traced
                records.append(rec)
            (traced_walls if traced else plain_walls).append(result["wall_s"])
            if traced:
                layer_runs.append(result["layers"])
        pair_walls = [a + b for a, b in zip(plain_walls, traced_walls)]
        # stop when another pair of typical length would end after the deadline
        if time.perf_counter() - start + statistics.median(pair_walls) > args.seconds:
            break

    counts_steady = all(
        {k: v["calls"] for k, v in layers.items()} == {k: v["calls"] for k, v in layer_runs[0].items()}
        for layers in layer_runs
    )
    metrics = {"cli.startup_s": statistics.median(startup)}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = layer_runs[0].get(name, {}).get("calls", 0)
        metrics[f"{name}.self_s"] = statistics.median(r.get(name, {}).get("self_s", 0.0) for r in layer_runs)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
    extra = {
        "call_counts_identical_across_passes": counts_steady,
        "samples": {
            "cli.startup_s": summary(startup),
            "untraced_pass_s": summary(plain_walls),
            "traced_pass_s": summary(traced_walls),
        },
        "spans_file": spans_out.relative_to(ROOT).as_posix(),
    }
    return metrics, extra, records


def run_one(args) -> int:
    ops = workloads.build_ops(args.workload, args.seed, args.scale, args.inject_failure)
    info = probe()
    RESULTS.mkdir(exist_ok=True)
    checker = Checker()
    if args.trace:
        metrics, extra, records = trace_run(args, ops, checker)
        units = per_layer_units()
    else:
        metrics, extra, records = measure(args, ops, checker)
        units = END_TO_END
    correct = checker.failed == 0 and extra.get("call_counts_identical_across_passes", True)
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args, info),
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "output_digests": {"workload_seed": args.seed, "sha256_by_argv": checker.digests},
        "ops": records,
        **extra,
    }
    if not args.trace:
        report["detail_metrics"] = {
            name: {"value": extra["detail"][name], "unit": unit} for name, unit in DETAIL.items()
        }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{checker.attempted} ops, {checker.failed} failed")
    shown = dict(report["metrics"])
    shown.update(report.get("detail_metrics", {}))
    for name, m in shown.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<44} {value:>12} {m['unit']}")
    for error in checker.errors[:10]:
        print(f"  FAILED {error}")
    print(f"  details: {out_path.relative_to(ROOT).as_posix()}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own child, so peak RSS is per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE)
        lines = proc.stdout.decode().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the meanking CLI; see the module docstring.")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="op sizes; 'smoke' is for the harness's own test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="append an op that must fail, to test failure counting")
    args = parser.parse_args()
    if not (SRC / "meanking" / "cli.py").is_file():
        print(f"error: {SRC / 'meanking'} not found; run from a meanking checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
