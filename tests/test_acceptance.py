"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion is one test that prints a PASS/FAIL line (run with -s to see
them).  Exact-backend checks use the cyclotomic zero test (no tolerance at
all); float-backend re-evaluations use 1e-10 absolute.
"""

import numpy as np
import pytest

from meanking.cli import main as cli_main
from meanking.mub import (
    EXACT,
    FLOAT,
    PrimeDim,
    build_mub_family,
    diagnose_composite,
    verify_trace_relations,
    verify_unbiasedness,
)
from meanking.protocol import (
    RetrodictionSetup,
    simulate,
    verify_bracket_closed_form,
    verify_entangled_basis,
    verify_measurement_basis,
    verify_retrodiction,
)
from meanking.tomography import probabilities_of, random_density, reconstruct

UNBIASED_PRIMES = [2, 3, 5, 7, 11, 13]
BASIS_PRIMES = [2, 3, 5, 7]


def _report(number: int, description: str, ok: bool) -> None:
    print(f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_unbiasedness_all_primes():
    ok = True
    for p in UNBIASED_PRIMES:
        dim = PrimeDim(p)
        exact = verify_unbiasedness(build_mub_family(dim, "object", EXACT))
        floaty = verify_unbiasedness(build_mub_family(dim, "object", FLOAT))
        ok = ok and exact.passed and floaty.passed
        assert exact.checks == ((p + 1) * p) ** 2
    _report(1, "unbiasedness, exact zero-test and float<=1e-10, p in {2..13}", ok)


def test_criterion_2_weyl_structure_all_primes():
    ok = True
    for p in UNBIASED_PRIMES:
        report = verify_trace_relations(PrimeDim(p), EXACT)
        ok = ok and report.passed
    _report(2, "period, commutation, and trace table exact, p in {2..13}", ok)


def test_criterion_3_entangled_basis_orthonormality():
    ok = True
    for p in BASIS_PRIMES:
        report = verify_entangled_basis(RetrodictionSetup(PrimeDim(p), EXACT))
        ok = ok and report.passed
        assert report.checks == p ** 4
    _report(3, "p^2 x p^2 entangled-basis Gram is the identity exactly, p in {2,3,5,7}", ok)


def test_criterion_4_bracket_closed_form():
    ok = True
    for p in [2, 3]:
        report = verify_bracket_closed_form(RetrodictionSetup(PrimeDim(p), EXACT))
        ok = ok and report.passed
        assert report.checks == (p ** (p + 1)) ** 2
    for p in [5, 7]:
        sampled = verify_bracket_closed_form(
            RetrodictionSetup(PrimeDim(p), FLOAT), sample_pairs=10_000, seed=p
        )
        exact_sample = verify_bracket_closed_form(
            RetrodictionSetup(PrimeDim(p), EXACT), sample_pairs=100, seed=p
        )
        ok = ok and sampled.passed and exact_sample.passed
        assert sampled.checks == 10_000
    _report(4, "bracket overlaps match the closed form (exhaustive p=2,3; 10^4 pairs p=5,7)", ok)


def test_criterion_5_measurement_basis():
    ok = True
    for p in BASIS_PRIMES:
        report = verify_measurement_basis(RetrodictionSetup(PrimeDim(p), EXACT))
        ok = ok and report.passed
    _report(5, "p^2 labeled states orthonormal and resolving the identity, p in {2,3,5,7}", ok)


def test_criterion_6a_certainty_static():
    ok = True
    for p in [2, 3, 5]:
        report = verify_retrodiction(RetrodictionSetup(PrimeDim(p), EXACT))
        ok = ok and report.passed
        assert report.checks == (p + 1) * p * p * p
    _report(6, "static certainty: no Born weight outside compatible labels, p in {2,3,5}", ok)


def test_criterion_6b_certainty_dynamic():
    s3 = simulate(PrimeDim(3), rounds=10_000, seed=42)
    s7 = simulate(PrimeDim(7), rounds=10_000, seed=42)
    ok = s3.success_rate == 1.0 and s7.success_rate == 1.0
    _report(6, "dynamic certainty: 10^4 simulated rounds at p=3 and p=7 all correct", ok)


def test_criterion_7_tomography_round_trip():
    ok = True
    worst = 0.0
    for p in BASIS_PRIMES:
        dim = PrimeDim(p)
        fam = build_mub_family(dim, "object", FLOAT)
        for seed in range(100):
            rho = random_density(dim, seed)
            rebuilt = reconstruct(probabilities_of(rho, fam), fam)
            err = float(np.linalg.norm(rebuilt.matrix - rho.matrix))
            worst = max(worst, err)
            ok = ok and err <= 1e-9
    _report(7, f"tomography round-trip <=1e-9 over 100 states per prime (worst {worst:.2e})", ok)


def test_criterion_8_composite_failure():
    diag = diagnose_composite(6)
    verify_code = cli_main(["verify", "--p", "6"])
    diagnose_code = cli_main(["diagnose", "--p", "6", "--json", "--out", "/dev/null"])
    ok = bool(diag.witnesses) and verify_code == 2 and diagnose_code == 0
    _report(8, "composite p=6: diagnosis yields witnesses, verify exits 2", ok)


def test_criterion_9_backend_agreement():
    ok = True
    for p in UNBIASED_PRIMES:
        dim = PrimeDim(p)
        ok = ok and verify_unbiasedness(build_mub_family(dim, "object", FLOAT)).passed
        ok = ok and verify_trace_relations(dim, FLOAT).passed
    for p in BASIS_PRIMES:
        dim = PrimeDim(p)
        setup = RetrodictionSetup(dim, FLOAT)
        ok = ok and verify_entangled_basis(setup).passed
        ok = ok and verify_measurement_basis(setup).passed
    for p in [2, 3, 5]:
        ok = ok and verify_retrodiction(RetrodictionSetup(PrimeDim(p), FLOAT)).passed
    for p in [2, 3]:
        ok = ok and verify_bracket_closed_form(RetrodictionSetup(PrimeDim(p), FLOAT)).passed
    _report(9, "every exact-backend identity re-evaluated in floats within 1e-10", ok)
