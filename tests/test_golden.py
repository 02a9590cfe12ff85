"""CLI output pinned byte for byte.

Each file under tests/golden/ holds the stdout of one invocation of
`meanking.cli.main`, captured before the protocol layer was rebuilt around
closed-form bracket states and one shared setup (the p = 13 and p = 31
simulate captures were taken later, before rounds were drawn from integer
Born tables on one reseeded generator).  A refactor that changes a single
byte of any of them (a check count, a report order, a sampled round) fails
here.
"""

import hashlib
from pathlib import Path

import pytest

from meanking.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify_p2.json": ["verify", "--p", "2", "--json"],
    "verify_p5.json": ["verify", "--p", "5", "--json"],
    "verify_p3.txt": ["verify", "--p", "3"],
    "verify_p11_float.json": ["verify", "--p", "11", "--backend", "float", "--json"],
    "simulate_p3_emit_rounds.json": [
        "simulate", "--p", "3", "--rounds", "200", "--seed", "7", "--emit-rounds", "--json",
    ],
    "simulate_p5_fixed2.json": [
        "simulate", "--p", "5", "--rounds", "2000", "--king-strategy", "fixed:2", "--json",
    ],
    "simulate_p7.json": ["simulate", "--p", "7", "--rounds", "3000", "--seed", "42", "--json"],
    # p = 17 lies above SAMPLING_EXACT_MAX_P, so this one runs on the float backend
    "simulate_p17.json": ["simulate", "--p", "17", "--rounds", "500", "--seed", "1", "--json"],
    # the largest exact tables that are sampled, under a negative seed
    "simulate_p13_seed_neg9.json": ["simulate", "--p", "13", "--rounds", "2000", "--seed", "-9", "--json"],
    # the float tables at the simulate ceiling, the king fixed on the last basis
    "simulate_p31_fixed31_float.json": [
        "simulate", "--p", "31", "--rounds", "2000", "--seed", "8", "--king-strategy", "fixed:31", "--json",
    ],
    "bases_p2.json": ["bases", "--p", "2", "--format", "json"],
    # an odd prime's exact family, captured before families were emitted from their arrays
    "bases_p5.json": ["bases", "--p", "5", "--format", "json"],
    "bases_p5_float_ancilla.json": [
        "bases", "--p", "5", "--backend", "float", "--side", "ancilla", "--format", "json",
    ],
    "diagnose_p6.json": ["diagnose", "--p", "6", "--json"],
    "diagnose_p12.json": ["diagnose", "--p", "12", "--json"],
}


def test_every_golden_file_has_a_case():
    # stdlib_draws.json is no CLI output: test_stdlib_draws.py reads it
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted([*CASES, "stdlib_draws.json"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


# the outputs at the benchmark's sizes, too long to commit: their stdout's
# SHA-256, captured before the set-up stopped holding the post table and
# tomography's JSON was written from its arrays
DIGESTS = {
    "tomography --p 79 --seed 5 --json": "1aafc8b5ded1de639c3981c982627c6def74e9bc70712849eb0d0c75a8b0cfb0",
    "tomography --p 127 --seed 5 --json": "c537936c1701363359e275ebe3bf6b3d49ea5fa308d1c8b6eb4093074fd9a807",
    "verify --p 23 --backend float --json": "048ff592baa6775906e5e3079ee1cf2fce32a27e8b23283c436004525856071a",
    "verify --p 31 --backend float --json": "e8e2a81809679f3da9be379ab8b68ba69525ed65aee2c8e21fb4f5f7f7bc63ac",
    "verify --p 13 --json": "6c5584383bda2857b66b0a700ef75bf4b90c01fee0e02f0ed3a83bc449947919",
    "simulate --p 31 --rounds 1 --json": "f2fdfaba71c11d836fb9eb176c3b52e27d53a3e775fec0fda297be202242309f",
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_large_output_digest(argv, capsys):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[argv]
