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
import io
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
)
from .protocol import (
    RetrodictionSetup,
    check_simulate_args,
    simulate,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)
from .tomography import probabilities_of, random_density, reconstruct

SCHEMA_VERSION = 1
DEFAULT_SEED = 42

# ceilings on p that keep every command interactive: the p^2 x p^2 Gram checks
# of verify, simulate's O(p^4) set-up, the (p+1)p^2 amplitudes of bases and
# the (p+1) x p x p arrays of tomography
EXACT_VERIFY_MAX_P = 13
FLOAT_VERIFY_MAX_P = 31
TOMOGRAPHY_MAX_P = 127
# simulate --emit-rounds keeps every round as three ints until the JSON is
# written, a round at a time: a kept round added 0.08 kB of peak RSS at p = 3
# and at p = 31, so the ceiling bounds the output (0.55 kB a round at p = 31)
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


def _write_whole(path: str, text: str) -> None:
    """Write `text` to a regular file as a temporary file in its directory, given
    the file's permission bits and renamed over it (through any symlink), so a
    failed write leaves the file as it was.  A device is written in place."""
    real = os.path.realpath(path)
    if not os.path.isfile(real):
        with open(path, "w") as handle:
            handle.write(text)
        return
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(real))
    try:
        with open(fd, "w") as handle:
            os.chmod(temp, stat.S_IMODE(os.stat(real).st_mode))
            handle.write(text)
        os.replace(temp, real)
    except BaseException:
        os.remove(temp)
        raise


@contextlib.contextmanager
def _output(out_path: str | None):
    """stdout, or a buffer for --out.  The file is opened after validation and
    before any work, without emptying it, and replaced only once the command
    has finished: a failed run or write leaves it as it was, and removes it if
    the run created it.  A failed write of the output raises InvalidInput."""
    try:
        if not out_path:
            yield sys.stdout
            sys.stdout.flush()
            return
        existed = os.path.exists(out_path)
        try:
            open(out_path, "a").close()
        except OSError as exc:
            raise InvalidInput(f"cannot write --out {out_path}: {exc.strerror}") from None
        buffer = io.StringIO()
        try:
            yield buffer
            _write_whole(out_path, buffer.getvalue())
        except BaseException:
            if not existed:
                os.remove(os.path.realpath(out_path))  # a dangling symlink stays as it was
            raise
    except OSError as exc:
        if not out_path:
            # the interpreter flushes stdout again at exit: send what it holds to the null device
            with contextlib.suppress(OSError, ValueError):  # a stream without a descriptor
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        raise InvalidInput(f"cannot write output: {exc.strerror}") from None


def _emit_json(payload: dict, out) -> None:
    """Write `_json_text` of the payload a value at a time; an iterator value (simulate's rounds) an item at a time."""
    separator = "{"
    for key, value in sorted({"schema_version": SCHEMA_VERSION, **payload}.items()):
        out.write(f"{separator}\n  {json.dumps(key)}: ")
        if hasattr(value, "__next__"):
            opening = "["
            for item in value:
                out.write(f"{opening}\n    " + json.dumps(item, sort_keys=True, indent=2).replace("\n", "\n    "))
                opening = ","
            out.write("[]" if opening == "[" else "\n  ]")
        else:
            out.write(_json_text(value, "  "))
        separator = ","
    out.write("\n}\n")


def _json_text(obj, indent: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2), every line after the first
    prefixed by `indent`.  Dicts with string keys and lists of lists are walked
    here, so the long float lists (and lists of {"im", "re"} dicts) of
    tomography and bases can be formatted in bulk; any other value, such as a
    list of simulated rounds, goes to json.dumps whole."""
    inner = indent + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = [f"{json.dumps(key)}: {_json_text(value, inner)}" for key, value in sorted(obj.items())]
    elif type(obj) is list and obj and type(obj[0]) is list:
        items = [_json_text(value, inner) for value in obj]
    else:
        items = _float_items(obj, inner)
        if items is None:
            return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    brackets = "{}" if type(obj) is dict else "[]"
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


def _float_items(items, indent: str) -> list | None:
    """The JSON texts of a list of finite floats, or of {"im", "re"} dicts of
    finite floats, at `indent`; None for any other value."""
    if type(items) is not list or not items:
        return None
    complex_entries = all(type(x) is dict and x.keys() == {"im", "re"} for x in items)
    numbers = [value for x in items for value in (x["im"], x["re"])] if complex_entries else items
    if set(map(type, numbers)) != {float} or not all(map(math.isfinite, numbers)):
        return None  # json.dumps spells NaN and the infinities its own way
    texts = list(map(float.__repr__, numbers))
    if not complex_entries:
        return texts
    deeper = indent + "  "
    head, middle, tail = f'{{\n{deeper}"im": ', f',\n{deeper}"re": ', f"\n{indent}}}"
    return [head + im + middle + re + tail for im, re in zip(texts[::2], texts[1::2])]


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
        check_simulate_args(dim.p, args.rounds, args.king_strategy)
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
        if args.format == "json":
            _emit_json({"command": "bases", **fam.to_json()}, out)
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
    if args.seed < 0:  # numpy's generator takes only non-negative seeds
        raise InvalidInput(f"seed must be non-negative, got {args.seed}")
    with _output(args.out) as out:
        fam = build_mub_family(dim, "object", FLOAT)
        rho = random_density(dim, args.seed)
        table = probabilities_of(rho, fam)
        rebuilt = reconstruct(table, fam)
        del fam  # the (p+1, p, p) family is not held while the payload is built
        error = float(np.linalg.norm(rebuilt.matrix - rho.matrix))
        payload = {
            "command": "tomography",
            "p": dim.p,
            "seed": args.seed,
            "rho": rho.to_json(),
            "table": table.to_json(),
            "reconstruction": rebuilt.to_json(),
            "frobenius_error": error,
        }
        if args.json:
            _emit_json(payload, out)
        else:
            out.write(
                f"tomography p={dim.p} seed={args.seed}\n"
                f"frobenius_error={error:.3e} {_status(error <= 1e-9)}\n"
            )
    return 0 if error <= 1e-9 else 1


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
