"""State reconstruction from the p+1 complementary measurements.

The (p+1) x p table of outcome probabilities w[m][k] = <m_k|rho|m_k>
determines the density operator uniquely:

    rho = sum_{m,k} |m_k> (w[m][k] - 1/(p+1)) <m_k|

This module works in floats throughout: a generic density matrix has
irrational entries, so exact arithmetic buys nothing here.  One tolerance,
ATOL, bounds every invariant but positivity, which EIGENVALUE_FLOOR bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mub import FLOAT, MubFamily, PrimeDim

ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A validated p x p density operator: Hermitian, unit trace, positive."""

    dim: PrimeDim
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        p = self.dim.p
        if mat.shape != (p, p):
            raise ValueError(f"expected a {p}x{p} matrix, got shape {mat.shape}")
        if not np.isfinite(mat).all():  # every comparison with NaN is false
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(mat) - 1.0) > ATOL:
            raise ValueError("matrix does not have unit trace within tolerance")
        eigenvalues = np.linalg.eigvalsh(mat)
        if eigenvalues.min() < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix has a negative eigenvalue: {eigenvalues.min()}")
        object.__setattr__(self, "matrix", mat)

    def to_json(self) -> list:
        return [
            [{"re": float(z.real), "im": float(z.imag)} for z in row]
            for row in self.matrix
        ]


@dataclass(frozen=True)
class ProbabilityTable:
    """Outcome probabilities, rows indexed by observable m = 0..p, columns by k = 1..p."""

    dim: PrimeDim
    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        p = self.dim.p
        if arr.shape != (p + 1, p):
            raise ValueError(f"expected shape {(p + 1, p)}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        row_sums = arr.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ATOL:
            raise ValueError(f"rows must each sum to 1, got sums {row_sums}")
        if arr.min() < -ATOL or arr.max() > 1 + ATOL:
            raise ValueError("entries must lie in [0, 1] within tolerance")
        object.__setattr__(self, "table", arr)

    def to_json(self) -> list:
        return [[float(x) for x in row] for row in self.table]


def probabilities_of(rho: DensityMatrix, fam: MubFamily) -> ProbabilityTable:
    """The full outcome table w[m][k] = <m_k|rho|m_k>."""
    if fam.p != rho.dim.p:
        raise ValueError(f"dimension mismatch: rho is {rho.dim.p}, family is {fam.p}")
    kets = fam.as_float().bases
    table = np.empty(kets.shape[:2])
    for m, basis in enumerate(kets):  # one p x p product per basis: O(p^3), p x p temporaries
        # row k of basis @ rho.T is rho|m_k>, so the row-wise dot with conj(basis) is <m_k|rho|m_k>
        table[m] = np.einsum("ki,ki->k", basis.conj(), basis @ rho.matrix.T).real
    return ProbabilityTable(dim=rho.dim, table=table)


def reconstruction_matrix(table: ProbabilityTable, fam: MubFamily) -> np.ndarray:
    """The raw reconstruction sum, without density-matrix validation."""
    if fam.p != table.dim.p:
        raise ValueError("dimension mismatch between table and family")
    p = table.dim.p
    kets = fam.as_float().bases
    weights = table.table - 1.0 / (p + 1)
    rho = np.zeros((p, p), dtype=complex)
    for w, basis in zip(weights, kets):  # sum_k w[k] |m_k><m_k| as one p x p product, in m order
        rho += (basis.T * w) @ basis.conj()
    return rho


def reconstruct(table: ProbabilityTable, fam: MubFamily) -> DensityMatrix:
    """Rebuild the density operator from its probability table."""
    return DensityMatrix(dim=table.dim, matrix=reconstruction_matrix(table, fam))


def random_density(dim: PrimeDim, rng_seed: int) -> DensityMatrix:
    """A seeded random density operator rho = G G-dagger / tr(G G-dagger)."""
    rng = np.random.default_rng(rng_seed)
    p = dim.p
    g = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    gg = g @ g.conj().T
    return DensityMatrix(dim=dim, matrix=gg / np.trace(gg))
