"""Probability tables and exact reconstruction from the complementary measurements."""

import json
from pathlib import Path

import numpy as np
import pytest

from meanking.cli import main
from meanking.mub import FLOAT, PrimeDim, build_mub_family
from meanking.tomography import (
    DensityMatrix,
    ProbabilityTable,
    probabilities_of,
    random_density,
    reconstruct,
    reconstruction_matrix,
)

TOMO_PRIMES = [2, 3, 5, 7]
PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
# stdout of `tomography --json` captured while both sums were single einsums
CAPTURES = Path(__file__).parent / "tomography"
CAPTURED = {
    "tomography_p5_seed7.json": ["tomography", "--p", "5", "--seed", "7", "--json"],
    "tomography_p31_seed3.json": ["tomography", "--p", "31", "--seed", "3", "--json"],
}


def family(p):
    return build_mub_family(PrimeDim(p), "object", FLOAT)


# --- references: each sum as one scalar einsum over all (m, k, i, j), O(p^4) ---


def probabilities_by_einsum(rho, fam):
    kets = fam.bases
    return np.einsum("mki,ij,mkj->mk", kets.conj(), rho.matrix, kets).real


def reconstruction_by_einsum(table, fam):
    p = table.dim.p
    kets = fam.bases
    weights = table.table - 1.0 / (p + 1)
    return np.einsum("mk,mki,mkj->ij", weights, kets, kets.conj())


class TestDensityMatrix:
    def test_random_density_is_valid_and_deterministic(self):
        dim = PrimeDim(3)
        rho1 = random_density(dim, 42)
        rho2 = random_density(dim, 42)
        assert np.array_equal(rho1.matrix, rho2.matrix)
        assert np.max(np.abs(rho1.matrix - rho1.matrix.conj().T)) < 1e-12
        assert abs(np.trace(rho1.matrix) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho1.matrix).min() > -1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(PrimeDim(2), np.array([[0.5, 0.3j], [0.3j, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(PrimeDim(2), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(PrimeDim(2), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # unchecked, a NaN off-diagonal pair would pass: every comparison with NaN is false
        mat = np.eye(3, dtype=complex) / 3
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(PrimeDim(3), mat)

    def test_mean_of_many_samples_approaches_maximally_mixed(self):
        dim = PrimeDim(2)
        mean = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for seed in range(n):
            mean += random_density(dim, seed).matrix
        mean /= n
        assert np.max(np.abs(mean - np.eye(2) / 2)) < 0.05


class TestProbabilityTable:
    def test_pure_computational_state(self):
        p = 3
        rho = DensityMatrix(PrimeDim(p), np.diag([1.0, 0.0, 0.0]))
        table = probabilities_of(rho, family(p)).table
        assert np.allclose(table[0], [1, 0, 0], atol=1e-12)
        for m in range(1, p + 1):
            assert np.allclose(table[m], 1 / p, atol=1e-12)

    def test_maximally_mixed_state(self):
        for p in TOMO_PRIMES:
            rho = DensityMatrix(PrimeDim(p), np.eye(p) / p)
            table = probabilities_of(rho, family(p)).table
            assert np.allclose(table, 1 / p, atol=1e-12)

    def test_rows_sum_to_one_for_random_states(self):
        for p in TOMO_PRIMES:
            for seed in range(5):
                rho = random_density(PrimeDim(p), seed)
                table = probabilities_of(rho, family(p)).table
                assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)

    def test_invariant_under_global_ket_phases(self):
        p = 3
        fam = family(p)
        rng = np.random.default_rng(0)
        phases = np.exp(2j * np.pi * rng.random((p + 1, p)))
        rotated = type(fam)(
            p=p, side=fam.side, backend=FLOAT, bases=fam.bases * phases[:, :, None]
        )
        rho = random_density(PrimeDim(p), 5)
        t1 = probabilities_of(rho, fam).table
        t2 = probabilities_of(rho, rotated).table
        assert np.max(np.abs(t1 - t2)) < 1e-12

    def test_malformed_table_rejected(self):
        p = 2
        with pytest.raises(ValueError, match="sum to 1"):
            ProbabilityTable(PrimeDim(p), np.array([[0.9, 0.2], [0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="shape"):
            ProbabilityTable(PrimeDim(p), np.array([[0.5, 0.5], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        table = np.full((3, 2), 0.5)
        table[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            ProbabilityTable(PrimeDim(2), table)


class TestReconstruction:
    @pytest.mark.parametrize("p", TOMO_PRIMES)
    def test_round_trip_on_random_states(self, p):
        fam = family(p)
        for seed in range(20):
            rho = random_density(PrimeDim(p), seed)
            rebuilt = reconstruct(probabilities_of(rho, fam), fam)
            err = np.linalg.norm(rebuilt.matrix - rho.matrix)
            assert err < 1e-9, (p, seed, err)

    def test_uniform_table_gives_maximally_mixed(self):
        for p in TOMO_PRIMES:
            table = ProbabilityTable(PrimeDim(p), np.full((p + 1, p), 1 / p))
            rebuilt = reconstruct(table, family(p))
            assert np.max(np.abs(rebuilt.matrix - np.eye(p) / p)) < 1e-12

    def test_pure_state_round_trip_keeps_rank_one(self):
        p = 3
        fam = family(p)
        vec = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)
        rho = DensityMatrix(PrimeDim(p), np.outer(vec, vec.conj()))
        rebuilt = reconstruct(probabilities_of(rho, fam), fam)
        eigenvalues = np.linalg.eigvalsh(rebuilt.matrix)
        assert abs(np.trace(rebuilt.matrix) - 1) < 1e-9
        assert abs(eigenvalues.max() - 1) < 1e-9

    def test_dropping_any_row_changes_the_reconstruction(self):
        # the measurement set is complete but not overcomplete: every row carries
        # information, so replacing one with the uninformative uniform row moves
        # the reconstruction of a generic state
        for p in [2, 3]:
            fam = family(p)
            rho = random_density(PrimeDim(p), 123)
            table = probabilities_of(rho, fam)
            full = reconstruction_matrix(table, fam)
            for m in range(p + 1):
                damaged = table.table.copy()
                damaged[m] = 1 / p
                partial = reconstruction_matrix(
                    ProbabilityTable(PrimeDim(p), damaged), fam
                )
                assert np.linalg.norm(partial - full) > 1e-6, (p, m)

    def test_all_nan_table_is_refused_before_any_arithmetic(self):
        # unchecked, it would reach numpy's eigvalsh and raise LinAlgError there
        with pytest.raises(ValueError, match="finite"):
            reconstruct(ProbabilityTable(PrimeDim(3), np.full((4, 3), np.nan)), family(3))

    def test_dimension_mismatch_rejected(self):
        rho = random_density(PrimeDim(2), 0)
        with pytest.raises(ValueError, match="mismatch"):
            probabilities_of(rho, family(3))


class TestAgainstTheScalarSums:
    # the per-basis products sum in another order than the einsums, so they
    # agree to a few ulps of the unit-scale entries, not bit for bit
    @pytest.mark.parametrize(
        "p, seeds", [(p, range(10)) for p in PRIMES_TO_31] + [(79, range(3)), (127, range(3))]
    )
    def test_products_match_the_einsums(self, p, seeds):
        fam = family(p)
        for seed in seeds:
            rho = random_density(PrimeDim(p), seed)
            table = probabilities_of(rho, fam)
            assert np.max(np.abs(table.table - probabilities_by_einsum(rho, fam))) <= 1e-14, (p, seed)
            rebuilt = reconstruction_matrix(table, fam)
            assert np.max(np.abs(rebuilt - reconstruction_by_einsum(table, fam))) <= 1e-14, (p, seed)

    def test_tomography_runs_no_three_operand_einsum(self, monkeypatch, capsys):
        # structural: both sums stay per-basis products, O(p^3) rather than O(p^4)
        einsum = np.einsum

        def guarded(subscripts, *operands, **kwargs):
            if len(operands) > 2:
                raise AssertionError(f"three-operand einsum {subscripts!r}")
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", guarded)
        assert main(["tomography", "--p", "7", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out


def _complex(matrix):
    return np.array([[z["re"] + 1j * z["im"] for z in row] for row in matrix])


@pytest.mark.parametrize("name", sorted(CAPTURED))
def test_output_matches_the_einsum_captures(name, capsys):
    assert main(CAPTURED[name]) == 0
    got = json.loads(capsys.readouterr().out)
    want = json.loads((CAPTURES / name).read_text())
    assert list(got) == list(want)
    for key in ("command", "p", "seed", "schema_version", "rho"):
        assert got[key] == want[key], key
    assert np.max(np.abs(np.array(got["table"]) - np.array(want["table"]))) <= 1e-14
    assert np.max(np.abs(_complex(got["reconstruction"]) - _complex(want["reconstruction"]))) <= 1e-14
    assert got["frobenius_error"] <= 1e-9


def test_every_capture_has_a_case():
    assert sorted(path.name for path in CAPTURES.iterdir()) == sorted(CAPTURED)


def test_output_repeats_byte_for_byte(capsys):
    outputs = []
    for _ in range(2):
        assert main(["tomography", "--p", "79", "--seed", "5", "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
