"""The benchmark's workloads and the check that every CLI output is correct.

An op is one `meanking` command line.  A workload is the list of ops of one
pass, built from the workload seed; the benchmark repeats the pass and times
each op.  `validate` decides whether an op's output is correct, against closed
forms for every check count, so a faster build that skips checks shows up as
a failed op instead of a gain.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("exact-verify", "exact-simulate", "float-oracle")

# Why each workload is in the benchmark; the same reasons are given in
# BENCHMARK.json.
WHY = {
    "exact-verify": "exact verify p=2,3,5,7: pure-Python ring arithmetic in mub and protocol; at seed "
    "verify --p 7 calls entangled_basis 3x, measurement_basis 2x, build_mub_family 9x, exact_overlap 10738x",
    "exact-simulate": "simulate p=7: --rounds 1 is set-up (Born tables, 2800 exact_overlap calls), then "
    "20000 rounds that never touch the ring; a ring speed-up moves set-up, not the rounds",
    "float-oracle": "float verify p=23 and tomography p=79 (an 8 MB family, more than a core's cache): "
    "numpy only, 0 exact_overlap calls, so a ring speed-up must leave it unchanged",
}

# Sizes per scale.  "full" is what the benchmark measures; "smoke" exercises
# the same ops at trivial sizes, for the harness's own test.
SCALES = {
    "full": {
        "exact_primes": (2, 3, 5, 7),
        "sim_p": 7,
        "sim_rounds": 20000,
        "float_verify_p": 23,
        "tomo_p": 79,
        "tomo_runs": 3,
    },
    "smoke": {
        "exact_primes": (2, 3),
        "sim_p": 3,
        "sim_rounds": 3000,
        "float_verify_p": 5,
        "tomo_p": 5,
        "tomo_runs": 2,
    },
}

VERIFY_CHECKS = ("unbiasedness", "trace_relations", "entangled_basis", "measurement_basis", "retrodiction")
TOMOGRAPHY_TOL = 1e-9


def expected_checks(p: int) -> dict[str, int]:
    """Closed-form number of checks each verify report must make at prime p."""
    return {
        "unbiasedness": ((p + 1) * p) ** 2,
        # periods, power rows, powers, identity, commutation table,
        # monomials, and two p^2 x p^2 Gram matrices
        "trace_relations": 2 * (p + 1) + 2 * p * p + ((p + 1) * p) ** 2 + 2 * p**4,
        "entangled_basis": p**4,
        "measurement_basis": 2 * p**4,
        "retrodiction": (p + 1) * p**3,
    }


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Seeds handed to the program, derived from the workload seed."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    seeds: list[int] = []
    while len(seeds) < count:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def verify_op(p: int, backend: str) -> dict:
    argv = ["verify", "--p", str(p), "--json"]
    if backend == "float":
        argv[3:3] = ["--backend", "float"]
    return {"kind": "verify", "argv": argv, "p": p, "backend": backend}


def simulate_op(p: int, rounds: int, seed: int, kind: str) -> dict:
    argv = ["simulate", "--p", str(p), "--rounds", str(rounds), "--seed", str(seed),
            "--king-strategy", "uniform", "--json"]
    return {"kind": kind, "argv": argv, "p": p, "rounds": rounds, "seed": seed}


def tomography_op(p: int, seed: int) -> dict:
    argv = ["tomography", "--p", str(p), "--seed", str(seed), "--json"]
    return {"kind": "tomography", "argv": argv, "p": p, "seed": seed}


def build_ops(workload: str, seed: int, scale: str = "full", inject_failure: bool = False) -> list[dict]:
    """The ops of one pass of `workload`, in the order they run."""
    size = SCALES[scale]
    if workload == "exact-verify":
        ops = [verify_op(p, "exact") for p in size["exact_primes"]]
    elif workload == "exact-simulate":
        (sim_seed,) = derived_seeds(workload, seed, 1)
        ops = [
            simulate_op(size["sim_p"], 1, sim_seed, "simulate_setup"),
            simulate_op(size["sim_p"], size["sim_rounds"], sim_seed, "simulate"),
        ]
    elif workload == "float-oracle":
        ops = [verify_op(size["float_verify_p"], "float")]
        ops += [tomography_op(size["tomo_p"], s)
                for s in derived_seeds(workload, seed, size["tomo_runs"])]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if inject_failure:
        # a composite dimension: the CLI refuses it with exit code 2, so the
        # harness must count this op as failed
        ops.append({"kind": "injected", "argv": ["verify", "--p", "4", "--json"], "p": 4,
                    "backend": "exact"})
    return ops


def validate(op: dict, returncode: int, out: bytes) -> str | None:
    """None when the op's output is correct, else the reason it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        return "missing schema_version 1"
    kind = op["kind"]
    if kind in ("verify", "injected"):
        return _validate_verify(op, doc)
    if kind in ("simulate", "simulate_setup"):
        return _validate_simulate(op, doc)
    if kind == "tomography":
        return _validate_tomography(op, doc)
    return f"unknown op kind {kind!r}"


def _validate_verify(op: dict, doc: dict) -> str | None:
    p = op["p"]
    if (doc.get("command"), doc.get("p"), doc.get("backend")) != ("verify", p, op["backend"]):
        return "verify output names the wrong command, prime or backend"
    if doc.get("passed") is not True:
        return "verify passed is not true"
    checks = doc.get("checks")
    if not isinstance(checks, list) or [c.get("name") for c in checks] != list(VERIFY_CHECKS):
        return "verify checks are not the five expected reports"
    closed = expected_checks(p)
    for check in checks:
        name = check["name"]
        if check.get("passed") is not True or check.get("violations") != []:
            return f"check {name} did not pass"
        if check.get("checks") != closed[name]:
            return f"check {name} made {check.get('checks')} checks, closed form {closed[name]}"
    return None


def _validate_simulate(op: dict, doc: dict) -> str | None:
    rounds = op["rounds"]
    expected = ("simulate", op["p"], rounds, op["seed"], "uniform")
    got = tuple(doc.get(k) for k in ("command", "p", "rounds", "seed", "strategy"))
    if got != expected:
        return f"simulate output header {got} differs from {expected}"
    if doc.get("success_rate") != 1.0 or doc.get("successes") != rounds:
        return f"success_rate {doc.get('success_rate')} below 1.0"
    histogram = doc.get("histogram")
    if not isinstance(histogram, dict):
        return "simulate histogram missing"
    total = sum(n for row in histogram.values() for n in row.values())
    if total != rounds:
        return f"histogram total {total} differs from rounds {rounds}"
    return None


def _validate_tomography(op: dict, doc: dict) -> str | None:
    p = op["p"]
    if (doc.get("command"), doc.get("p"), doc.get("seed")) != ("tomography", p, op["seed"]):
        return "tomography output names the wrong command, prime or seed"
    error = doc.get("frobenius_error")
    if not isinstance(error, float) or not math.isfinite(error) or error > TOMOGRAPHY_TOL:
        return f"frobenius_error {error} above {TOMOGRAPHY_TOL}"
    for key, rows in (("rho", p), ("reconstruction", p), ("table", p + 1)):
        if not isinstance(doc.get(key), list) or len(doc[key]) != rows:
            return f"tomography {key} does not have {rows} rows"
    return None


def work_units(op: dict) -> int:
    """Identity checks a verify op proves; 0 for other ops."""
    if op["kind"] != "verify":
        return 0
    return sum(expected_checks(op["p"]).values())
