"""CLI output pinned byte for byte.

Each file under tests/golden/ holds the stdout of one invocation of
`meanking.cli.main`, captured before the protocol layer was rebuilt around
closed-form bracket states and one shared setup (the p = 13 and p = 31
simulate captures were taken later, before rounds were drawn from integer
Born tables on one reseeded generator).  A refactor that changes a single
byte of any of them (a check count, a report order, a sampled round) fails
here.
"""

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
    "bases_p5_float_ancilla.json": [
        "bases", "--p", "5", "--backend", "float", "--side", "ancilla", "--format", "json",
    ],
    "diagnose_p6.json": ["diagnose", "--p", "6", "--json"],
    "diagnose_p12.json": ["diagnose", "--p", "12", "--json"],
}


def test_every_golden_file_has_a_case():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()
