"""Failure paths pinned byte for byte.

Each file under tests/violations/ holds the exact-backend report of one check
at p = 3 run on a deliberately corrupted construction, captured before the
checks were written once over a ring interface.  The float backend must list
the same violations in the same order; only `actual`, which each backend
encodes in its own number type, is left out of that comparison, and a Born
`weight` is compared to 12 decimals.
"""

import json
from pathlib import Path

import pytest

from meanking import mub
from meanking.cyclotomic import _RingArray
from meanking.mub import (
    EXACT,
    FLOAT,
    MubFamily,
    PrimeDim,
    build_mub_family,
    verify_trace_relations,
    verify_unbiasedness,
)
from meanking.protocol import (
    RetrodictionSetup,
    verify_bracket_closed_form,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)

VIOLATIONS = Path(__file__).parent / "violations"
P = 3


def _replace_row(rows, index, row):
    if isinstance(rows, _RingArray):
        return _RingArray(rows.p, _replace_row(rows.c, index, row.c), _replace_row(rows.t, index, row.t))
    rows = rows.copy()
    rows[index] = row
    return rows


def computational_ket_in_basis_2(backend, monkeypatch):
    fam = build_mub_family(PrimeDim(P), "object", backend)
    bases = _replace_row(fam.bases, 2, _replace_row(fam.bases[2], 0, fam.bases[0, 0]))
    return verify_unbiasedness(MubFamily(p=P, side="object", backend=backend, bases=bases))


def observable_1_is_observable_2(backend, monkeypatch):
    original = mub.build_observable

    def swapped(dim, m, backend=EXACT):
        return original(dim, 2 if m == 1 else m, backend)

    monkeypatch.setattr(mub, "build_observable", swapped)
    return verify_trace_relations(PrimeDim(P), backend)


def prepared_is_bracket_state_0(backend, monkeypatch):
    setup = RetrodictionSetup(PrimeDim(P), backend)
    setup.prepared = setup.states[0]  # the bracket state of labels[0]
    return verify_entangled_basis(setup)


def measurement_row_1_is_row_0(backend, monkeypatch):
    setup = RetrodictionSetup(PrimeDim(P), backend)
    setup.states = _replace_row(setup.states, 1, setup.states[0])
    return verify_measurement_basis(setup)


def labels_0_and_1_swapped(backend, monkeypatch):
    setup = RetrodictionSetup(PrimeDim(P), backend)
    setup.labels[0], setup.labels[1] = setup.labels[1], setup.labels[0]
    return verify_retrodiction(setup)


def post_0_1_is_post_1_1(backend, monkeypatch):
    setup = RetrodictionSetup(PrimeDim(P), backend)
    setup.posts = _replace_row(setup.posts, 0, setup.post(1, 1))
    return verify_bracket_closed_form(setup, sample_pairs=40, seed=3)


CASES = {
    "unbiasedness_p3.json": computational_ket_in_basis_2,
    "trace_relations_p3.json": observable_1_is_observable_2,
    "entangled_basis_p3.json": prepared_is_bracket_state_0,
    "measurement_basis_p3.json": measurement_row_1_is_row_0,
    "retrodiction_p3.json": labels_0_and_1_swapped,
    "bracket_closed_form_p3.json": post_0_1_is_post_1_1,
}


def _comparable(violations):
    return [
        {key: round(v, 12) if key == "weight" else v for key, v in entry.items() if key != "actual"}
        for entry in violations
    ]


def test_every_capture_has_a_case():
    assert sorted(path.name for path in VIOLATIONS.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_report_is_byte_identical(name, monkeypatch):
    report = CASES[name](EXACT, monkeypatch)
    text = json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"
    assert not report.passed
    assert text.encode() == (VIOLATIONS / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_float_names_the_same_violations(name, monkeypatch):
    exact = json.loads((VIOLATIONS / name).read_text())
    report = CASES[name](FLOAT, monkeypatch).to_json()
    assert report["checks"] == exact["checks"]
    assert _comparable(report["violations"]) == _comparable(exact["violations"])
