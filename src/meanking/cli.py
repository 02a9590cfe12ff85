"""Command-line entry point: verify, simulate, bases, tomography, diagnose.

All output is deterministic: a fixed default seed (never wall-clock entropy),
sorted JSON keys, no timestamps.  Exit codes: 0 success, 1 invariant or
protocol failure, 2 invalid input or output that cannot be written (a full
device, a closed pipe).  The only environment variable honored is
NO_COLOR, which disables the PASS/FAIL coloring of text output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from .mub import (
    DIAGNOSE_MAX_N,
    EXACT,
    FLOAT,
    PrimeDim,
    build_mub_family,
    check_composite,
    diagnose_composite,
    verify_trace_relations,
    verify_unbiasedness,
    _float_basis,
    _integer,
)
from .protocol import (
    RetrodictionSetup,
    check_simulate_args,
    simulate,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)
from .tomography import DensityMatrix, _probabilities, _reconstruction, random_density

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

# ceilings on p that keep every command interactive: the p^2 x p^2 Gram checks
# of verify, simulate's O(p^4) set-up, the (p+1)p^2 amplitudes of bases and
# tomography's p+1 p x p products
EXACT_VERIFY_MAX_P = 13
FLOAT_VERIFY_MAX_P = 31
TOMOGRAPHY_MAX_P = 127
TOMOGRAPHY_MAX_ERROR = 1e-9  # the largest Frobenius error of tomography's round trip that passes
# simulate --emit-rounds keeps every round as three ints until the JSON is
# written a round at a time: a kept round added 0.08 kB of peak RSS at p = 3 and
# 31, with --out as on stdout, so the ceiling bounds the output (0.55 kB a round)
EMIT_ROUNDS_MAX = 50_000


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status(passed: bool) -> str:
    word = "PASS" if passed else "FAIL"
    if _use_color():
        code = "32" if passed else "31"
        return f"\x1b[{code}m{word}\x1b[0m"
    return word


class InvalidInput(Exception):
    """Invalid input or unwritable output; the CLI maps this to exit code 2."""


@contextlib.contextmanager
def _output(out_path: str | None):
    """stdout, or the --out target, opened after validation and before any work
    without emptying it.  A regular file (through any symlink) is written as the
    command runs into a temporary file beside it, which takes the file's
    permission bits and is renamed over it once the command has finished: a
    failed run or write leaves the file as it was, and removes it if the run
    created it.  Any other target, such as a device, is written in place.  No
    copy of the output is held: simulate --p 31 --rounds 50000 --emit-rounds
    --json --out f peaked at 119.6 MB buffered, 82.1 MB streamed, as on stdout.
    A failed write raises InvalidInput."""
    try:
        if out_path is None:
            yield sys.stdout
            sys.stdout.flush()
            return
        existed, real = os.path.exists(out_path), os.path.realpath(out_path)
        temp = None
        try:
            handle = open(out_path, "a")  # a device by the given path: into a pipe, /dev/stdout resolves to pipe:[...]
            if os.path.isfile(real):
                handle.close()
                fd, temp = tempfile.mkstemp(dir=os.path.dirname(real))
                handle = open(fd, "w")
        except OSError as exc:
            if not existed and os.path.isfile(real):  # created by the open above
                os.remove(real)
            raise InvalidInput(f"cannot write --out {out_path}: {exc.strerror}") from None
        try:
            with handle:
                yield handle
            if temp:
                os.chmod(temp, stat.S_IMODE(os.stat(real).st_mode))
                os.replace(temp, real)
        except BaseException:
            if temp:
                os.remove(temp)
                if not existed:
                    os.remove(real)  # a dangling symlink stays as it was
            raise
    except OSError as exc:
        if out_path is None:
            # the interpreter flushes stdout again at exit: send what it holds to the null device
            with contextlib.suppress(OSError, ValueError):  # a stream without a descriptor
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise InvalidInput(f"cannot write output: {exc.strerror}") from None


def _emit_json(payload: dict, out) -> None:
    """Write the payload, with its schema version, as `_write_json` does, and a final newline."""
    _write_json({"schema_version": SCHEMA_VERSION, **payload}, out, "")
    out.write("\n")


def _write_json(obj, out, indent: str) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2), every line after the
    first prefixed by `indent`, a numpy array as a list (of rows), a complex
    entry as {"im", "re"}.  Dicts with string keys, lists of lists, arrays of
    2 or more axes and iterators (simulate's rounds, written an item at a time)
    are walked here; any other value, and each item of an iterator, is a leaf
    (`_write_leaf`)."""
    inner = indent + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = ((f"{json.dumps(key)}: ", value) for key, value in sorted(obj.items()))
        brackets, write = "{}", _write_json
    elif (type(obj) is list and obj and type(obj[0]) is list) or (isinstance(obj, np.ndarray) and obj.ndim >= 2):
        brackets, write, items = "[]", _write_json, (("", value) for value in obj)
    elif hasattr(obj, "__next__"):
        # each round whole: walking 20000 rounds' scalars took 2.7 times as long
        brackets, write, items = "[]", _write_leaf, (("", value) for value in obj)
    else:
        return _write_leaf(obj, out, indent)
    separator = brackets[0]
    for head, value in items:
        out.write(f"{separator}\n{inner}{head}")
        write(value, out, inner)
        separator = ","
    out.write(brackets if separator == brackets[0] else f"\n{indent}{brackets[1]}")


def _write_leaf(obj, out, indent: str) -> None:
    """Write a value `_write_json` does not walk: a 1-D array of finite floats,
    or of complex entries as {"im", "re"} (a row of the float bases' or of
    tomography's arrays), formatted in bulk; any other value, and a row that
    is empty or holds NaN or an infinity (which json.dumps spells its own
    way), by json.dumps."""
    if isinstance(obj, np.ndarray):
        complex_entries = obj.dtype.kind == "c"
        numbers = (np.stack([obj.imag, obj.real], axis=-1) if complex_entries else obj).ravel().tolist()
        if numbers and obj.dtype.kind in "fc" and all(map(math.isfinite, numbers)):
            inner, texts = indent + "  ", list(map(float.__repr__, numbers))
            if complex_entries:
                deeper = inner + "  "
                head, middle, tail = f'{{\n{deeper}"im": ', f',\n{deeper}"re": ', f"\n{inner}}}"
                texts = [head + im + middle + re + tail for im, re in zip(texts[::2], texts[1::2])]
            out.write("[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]")
            return
        # as the array's to_json lists it
        obj = [{"im": im, "re": re} for im, re in zip(numbers[::2], numbers[1::2])] if complex_entries else numbers
    out.write(json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent))


def _parse_prime(value: int, ceiling: int, what: str, hint: str = "") -> PrimeDim:
    # past the ceiling and the dimensions diagnose takes, refuse with the
    # ceiling message and without a primality test
    if value <= max(ceiling, DIAGNOSE_MAX_N):
        try:
            dim = PrimeDim(value)
        except ValueError as exc:
            raise InvalidInput(f"{exc}{hint}") from None
        if dim.p <= ceiling:
            return dim
    raise InvalidInput(f"p={value} exceeds the {what} ceiling of {ceiling}")


def cmd_verify(args) -> int:
    hint = ""
    if 4 <= args.p <= DIAGNOSE_MAX_N:
        hint = f"; for composite dimensions run `meanking diagnose --p {args.p}`"
    ceiling = EXACT_VERIFY_MAX_P if args.backend == EXACT else FLOAT_VERIFY_MAX_P
    dim = _parse_prime(args.p, ceiling, f"{args.backend}-backend verify", hint)
    with _output(args.out) as out:
        reports = [
            verify_unbiasedness(build_mub_family(dim, "object", args.backend)),
            verify_trace_relations(dim, args.backend),
        ]
        # built after the operator checks, so their arrays are gone before it peaks
        setup = RetrodictionSetup(dim, args.backend)
        reports += [
            verify_entangled_basis(setup),
            verify_measurement_basis(setup),
            verify_retrodiction(setup),
        ]
        passed = all(r.passed for r in reports)
        if args.json:
            _emit_json(
                {
                    "command": "verify",
                    "p": dim.p,
                    "backend": args.backend,
                    "passed": passed,
                    "checks": [r.to_json() for r in reports],
                },
                out,
            )
        else:
            lines = [f"verify p={dim.p} backend={args.backend}"]
            for r in reports:
                lines.append(f"  {r.name:<20} {_status(r.passed)} ({r.checks} checks)")
            lines.append("all identities hold" if passed else "violations found")
            out.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def cmd_simulate(args) -> int:
    dim = _parse_prime(args.p, FLOAT_VERIFY_MAX_P, "simulate")
    try:
        check_simulate_args(dim.p, args.rounds, args.king_strategy, args.seed)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    if args.emit_rounds and args.json and args.rounds > EMIT_ROUNDS_MAX:  # text output keeps no rounds
        raise InvalidInput(f"--emit-rounds keeps at most {EMIT_ROUNDS_MAX} rounds, got --rounds {args.rounds}")
    with _output(args.out) as out:
        summary = simulate(
            dim,
            rounds=args.rounds,
            strategy=args.king_strategy,
            seed=args.seed,
            keep_records=args.emit_rounds and args.json,  # text output lists no rounds
        )
        if args.json:
            payload = {"command": "simulate", **summary.to_json()}
            if args.emit_rounds:
                payload["rounds_detail"] = summary.round_dicts()
            _emit_json(payload, out)
        else:
            out.write(
                f"simulate p={dim.p} rounds={summary.rounds} seed={summary.seed} "
                f"strategy={summary.strategy}\n"
                f"successes={summary.successes} success_rate={summary.success_rate}\n"
            )
    return 0 if summary.success_rate == 1.0 else 1


def cmd_bases(args) -> int:
    dim = _parse_prime(args.p, FLOAT_VERIFY_MAX_P, "bases")
    with _output(args.out) as out:
        fam = build_mub_family(dim, args.side, args.backend)
        if args.format == "json":  # the float family as its array, written a row at a time
            fields = {"p": fam.p, "side": fam.side, "backend": fam.backend, "bases": fam.bases}
            _emit_json({"command": "bases", **(fam.to_json() if args.backend == EXACT else fields)}, out)
        else:
            float_fam = fam.as_float()
            lines = [f"bases p={dim.p} side={args.side} backend={args.backend}"]
            for m in range(dim.p + 1):
                lines.append(f"basis m={m}")
                for k in range(1, dim.p + 1):
                    ket = float_fam.ket(m, k)
                    comps = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in ket)
                    lines.append(f"  k={k}: {comps}")
            out.write("\n".join(lines) + "\n")
    return 0


def cmd_tomography(args) -> int:
    dim = _parse_prime(args.p, TOMOGRAPHY_MAX_P, "tomography")
    try:
        _integer("seed", args.seed, 0)  # numpy's generator takes only non-negative seeds
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    with _output(args.out) as out:
        bases = lambda: (_float_basis(dim.p, m) for m in range(dim.p + 1))  # one at a time, no family
        rho = random_density(dim, args.seed)
        table = _probabilities(rho, bases())
        rebuilt = DensityMatrix(dim=dim, matrix=_reconstruction(table, bases()))
        error = float(np.linalg.norm(rebuilt.matrix - rho.matrix))
        if args.json:  # text mode prints two lines and builds no payload
            payload = {
                "command": "tomography",
                "p": dim.p,
                "seed": args.seed,
                "rho": rho.matrix,  # each array written a row at a time, as its to_json lists it
                "table": table.table,
                "reconstruction": rebuilt.matrix,
                "frobenius_error": error,
            }
            _emit_json(payload, out)
        else:
            out.write(
                f"tomography p={dim.p} seed={args.seed}\n"
                f"frobenius_error={error:.3e} {_status(error <= TOMOGRAPHY_MAX_ERROR)}\n"
            )
    return 0 if error <= TOMOGRAPHY_MAX_ERROR else 1


def cmd_diagnose(args) -> int:
    try:
        check_composite(args.p)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None
    with _output(args.out) as out:
        diag = diagnose_composite(args.p)
        if args.json:
            _emit_json({"command": "diagnose", **diag.to_json()}, out)
        else:
            lines = [
                f"diagnose n={diag.n}: {len(diag.witnesses)} violated-invariant witnesses",
                f"first failure: {diag.first_failure}",
            ]
            for w in diag.witnesses[:8]:
                lines.append(f"  {w}")
            out.write("\n".join(lines) + "\n")
    return 0 if diag.witnesses else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanking",
        description=(
            "Complementary observables for prime dimensions: construction, "
            "exact verification, retrodiction-protocol simulation, tomography, "
            "and composite-dimension diagnosis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # every subcommand's flags
    common.add_argument("--p", type=int, required=True)
    common.add_argument("--out", default=None)
    with_json = argparse.ArgumentParser(add_help=False, parents=[common])  # all but bases, which has --format
    with_json.add_argument("--json", action="store_true")

    verify = sub.add_parser(
        "verify",
        parents=[with_json],
        help="check every construction identity at a prime p "
        f"(exact backend up to p={EXACT_VERIFY_MAX_P}, float up to p={FLOAT_VERIFY_MAX_P})",
    )
    verify.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT)
    verify.set_defaults(func=cmd_verify)

    sim = sub.add_parser(
        "simulate", parents=[with_json], help=f"play seeded protocol rounds (p up to {FLOAT_VERIFY_MAX_P})"
    )
    sim.add_argument("--rounds", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sim.add_argument("--king-strategy", default="uniform", metavar="uniform|fixed:<m>")
    sim.add_argument(
        "--emit-rounds", action="store_true", help=f"list every round in the JSON (--rounds up to {EMIT_ROUNDS_MAX})"
    )
    sim.set_defaults(func=cmd_simulate)

    bases = sub.add_parser(
        "bases", parents=[common], help=f"emit the p+1 orthonormal bases (p up to {FLOAT_VERIFY_MAX_P})"
    )
    bases.add_argument("--side", choices=["object", "ancilla"], default="object")
    bases.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT)
    bases.add_argument("--format", choices=["json", "text"], default="json")
    bases.set_defaults(func=cmd_bases)

    tomo = sub.add_parser(
        "tomography",
        parents=[with_json],
        help=f"round-trip a random state through its probability table (p up to {TOMOGRAPHY_MAX_P})",
    )
    tomo.add_argument("--seed", type=int, default=DEFAULT_SEED)
    tomo.set_defaults(func=cmd_tomography)

    diag = sub.add_parser("diagnose", parents=[with_json], help="show what breaks at a composite dimension")
    diag.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or help (0), returned as every exit code is
        return exc.code
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
