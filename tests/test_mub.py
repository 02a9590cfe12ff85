"""Operator family and eigenbasis checks, exact backend first, float as oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanking import mub
from meanking.cyclotomic import Amplitude, CyclotomicInt, _ExactRing, _FloatRing, _ring, _RingArray, exact_overlap
from meanking.mub import (
    EXACT,
    FLOAT,
    CompositeDiagnosis,
    MubFamily,
    PrimeDim,
    build_mub_family,
    build_observable,
    build_weyl_pair,
    diagnose_composite,
    verify_eigen_equation,
    verify_trace_relations,
    verify_unbiasedness,
)

# --- references: dense Amplitude matrices, multiplied entry by entry ---


def exact_zeros(p):
    z = Amplitude.zero(p)
    return [[z for _ in range(p)] for _ in range(p)]


def exact_eye(p):
    m = exact_zeros(p)
    one = Amplitude.one(p)
    for i in range(p):
        m[i][i] = one
    return m


def exact_matmul(a, b):
    p = len(a)
    out = exact_zeros(p)
    for i in range(p):
        for k in range(p):
            aik = a[i][k]
            if aik.is_zero():
                continue
            for j in range(p):
                if b[k][j].is_zero():
                    continue
                out[i][j] = out[i][j] + aik * b[k][j]
    return out


def exact_mat_pow(a, r):
    out = exact_eye(len(a))
    for _ in range(r):
        out = exact_matmul(out, a)
    return out


def exact_scale(a, factor):
    return [[entry * factor for entry in row] for row in a]


def exact_mat_equal(a, b):
    return all(
        (x - y).is_zero() for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)
    )


def exact_apply(a, vec):
    p = len(a)
    out = []
    for i in range(p):
        acc = Amplitude.zero(vec[0].p)
        for j in range(p):
            if a[i][j].is_zero() or vec[j].is_zero():
                continue
            acc = acc + a[i][j] * vec[j]
        out.append(acc)
    return out


def root_amplitude(p, e):
    return Amplitude(CyclotomicInt.root_power(p, e))


def build_ancilla_weyl_pair(dim, backend=EXACT):
    """The ancilla pair with interchanged roles: the shift moves kets, not bras."""
    u0, up = build_weyl_pair(dim, backend)
    return u0, [list(column) for column in zip(*up)]


def build_ancilla_observable(dim, m, backend=EXACT):
    """The m-th ancilla observable U_p-bar U_0-bar^m (phased for p=2)."""
    au0, aup = build_ancilla_weyl_pair(dim, backend)
    if m == 0:
        return au0
    mat = exact_matmul(aup, exact_mat_pow(au0, m))
    if dim.p == 2 and m == 1:
        mat = exact_scale(mat, Amplitude(-CyclotomicInt.imaginary_unit()))
    return mat


def projector_power_sum(fam, m, k):
    """The rank-one projector onto |m_k> as the power sum (1/p) sum_r (q^{-k} U_m)^r."""
    p = fam.p
    shifted = exact_scale(build_observable(PrimeDim(p), m, EXACT), root_amplitude(p, -k % p))
    acc = exact_zeros(p)
    term = exact_eye(p)
    for _ in range(p):
        term = exact_matmul(term, shifted)
        acc = [[x + y for x, y in zip(ra, rt)] for ra, rt in zip(acc, term)]
    return exact_scale(acc, Amplitude(CyclotomicInt.one(p), 2))


def ket_projector(fam, m, k):
    """The outer product |m_k><m_k| built directly from the stored ket."""
    ket = fam.ket(m, k)
    return [[a * b.conjugate() for b in ket] for a in ket]


# --- references: the families as built before they were ring arrays ---


def exact_family_by_amplitudes(p, side):
    """The exact family one Amplitude at a time: bases[m][k-1] is a tuple of p
    Amplitudes, the p = 2 basis 1 written out, the ancilla side conjugated
    entry by entry."""
    one = Amplitude.one(p)
    zero = Amplitude.zero(p)
    bases = [tuple(tuple(one if j == k - 1 else zero for j in range(p)) for k in range(1, p + 1))]
    for m in range(1, p + 1):
        if p == 2 and m == 1:
            i_unit = Amplitude(CyclotomicInt.imaginary_unit())
            half = Amplitude(CyclotomicInt.one(2), 1)
            basis = ((half, half * i_unit), (half, -(half * i_unit)))
        else:
            basis = tuple(
                tuple(Amplitude(CyclotomicInt.root_power(p, mub._ket_exponent(p, m, j0 + 1, k)), 1) for j0 in range(p))
                for k in range(1, p + 1)
            )
        bases.append(basis)
    if side == "ancilla":
        bases = [tuple(tuple(amp.conjugate() for amp in ket) for ket in basis) for basis in bases]
    return tuple(bases)


def float_family_array(p, side):
    """The float family's array: `_float_bases`, the p = 2 basis 1 as a
    literal, conjugated on the ancilla side."""
    arr = mub._float_bases(p)
    if p == 2:
        arr[1] = np.array([[1, 1j], [1, -1j]]) * (1 / math.sqrt(2))
    return arr.conj() if side == "ancilla" else arr


# --- reference: the trace relations on dense p^2-vectors ---


def scatter(ring, values, index, size):
    """`values` at the positions `index` along a last entry axis of `size`,
    zeros elsewhere, on either ring."""
    if isinstance(ring, _FloatRing):
        out = np.zeros((*index.shape[:-1], size), dtype=complex)
        np.put_along_axis(out, index, values, axis=-1)
        return out
    c = np.zeros((*index.shape[:-1], size, ring.n), dtype=np.int64)
    t = np.zeros(c.shape[:-1], dtype=np.int64)
    np.put_along_axis(c, index[..., None], values.c, axis=-2)
    np.put_along_axis(t, index, values.t, axis=-1)
    return _RingArray(ring.p, c, t)


def trace_relations_by_dense_grams(dim, backend=EXACT):
    """The trace-relations check as the library ran it before the shared-position
    sums: every trace a Gram product of the monomials scattered into dense
    p^2-vectors."""
    p = dim.p
    ring = _ring(backend, p)
    report = mub.CheckReport(name="trace_relations")
    rows = np.arange(p)
    ident = np.eye(p, dtype=int).ravel()

    def times(a, b):
        # (perm, entries) of A B, batched over leading axes: row i of A lands on
        # row perm_a[i] of B
        (perm_a, ent_a), (perm_b, ent_b) = a, b
        gather = (*np.indices(perm_a.shape, sparse=True)[:-1], perm_a)
        return np.take_along_axis(perm_b, perm_a, axis=-1), ring.mul(ent_a, ent_b[gather])

    def vec(perm, entries, transpose=False):
        # the p^2-vector of the monomial, or of its transpose
        return scatter(ring, entries, perm * p + rows if transpose else rows * p + perm, p * p)

    *obs, monomial = mub._read_monomial(ring, dim, backend)  # U_m as (perm, entries), batched over m

    # unitarity: one nonzero per row and per column, each of modulus 1
    off_circle = ring.deviates(ring.abs2(obs[1]), 1).any(axis=1)
    for m in range(p + 1):
        report.checks += 1
        if not monomial[m] or off_circle[m]:
            report.violations.append({"kind": "unitarity", "m": m})

    shape = obs[0].shape
    power = [(np.broadcast_to(rows, shape), ring.integers(np.ones(shape, dtype=int)))]
    for _ in range(p):
        power.append(times(power[-1], obs))
    perms = np.stack([pw[0] for pw in power], axis=1)  # [m, r] = U_m^r, r = 0..p
    ents = ring.stack([pw[1] for pw in power]).swapaxes(0, 1)
    powers = vec(perms, ents)

    # period p exactly: U_m^p = 1 and no smaller power is
    for m in range(p + 1):
        report.checks += 1
        if ring.deviates(powers[m, p], ident).any():
            report.violations.append({"kind": "period", "m": m, "r": p})
        for r in range(1, p):
            report.checks += 1
            if not ring.deviates(powers[m, r], ident).any():
                report.violations.append({"kind": "premature_period", "m": m, "r": r})

    # U_0 U_p = q^{-1} U_p U_0
    report.checks += 1
    u0, up = (perms[0, 1], ents[0, 1]), (perms[p, 1], ents[p, 1])
    if ring.deviates(vec(*times(u0, up)) - ring.phase(vec(*times(up, u0)), -1), 0).any():
        report.violations.append({"kind": "commutation"})

    # trace table over all m, m' and r, s in 0..p-1: tr(A B) = <conj vec A|vec B^T>,
    # one product per m1 (per-m1 blocks bound the memory)
    flat_t = vec(perms[:, :p], ents[:, :p], transpose=True).reshape((p + 1) * p, p * p)
    exps = np.arange(p)
    want_same = p * ((exps[:, None] + exps[None, :]) % p == 0)
    want_other = p * np.outer(exps == 0, exps == 0)
    for m1 in range(p + 1):
        block = ring.gram(powers[m1, :p].conj(), flat_t)
        traces = block.reshape(p, p + 1, p).swapaxes(0, 1)  # [m2, r, s]
        want = np.where((np.arange(p + 1) == m1)[:, None, None], want_same, want_other)
        report.checks += want.size
        for m2, r, s in np.argwhere(ring.deviates(traces, want)).tolist():
            report.violations.append({"kind": "trace", "m": m1, "m2": m2, "r": r, "s": s})
    del flat_t  # free it before the Gram checks allocate theirs

    def trace_orthogonal(vecs, labels, kind):
        # tr(A^dag B) = <vec A|vec B>, so the Gram matrix is p times identity
        report.checks += len(labels) ** 2
        for i, j in np.argwhere(ring.deviates(ring.gram(vecs, vecs), p * np.eye(len(labels), dtype=int))):
            report.violations.append({"kind": kind, "pair": [labels[i], labels[j]]})

    # clock/shift monomials U_0^r U_p^s: traceless except identity, trace-orthogonal
    keys = [[r, s] for r in range(1, p + 1) for s in range(1, p + 1)]
    r_mod, s_mod = (np.array(keys) % p).T
    monomials = vec(*times((perms[0, r_mod], ents[0, r_mod]), (perms[p, s_mod], ents[p, s_mod])))
    traces = ring.gram(monomials.conj(), powers[0, :1])  # against U_0^0, the identity
    report.checks += len(keys)
    for i in np.flatnonzero(ring.deviates(traces[:, 0], p * ((r_mod == 0) & (s_mod == 0)))):
        report.violations.append({"kind": "monomial_trace", "r": keys[i][0], "s": keys[i][1]})
    trace_orthogonal(monomials, keys, "monomial_gram")
    del monomials

    # the p^2-1 powers U_m^r (r = 1..p-1) plus identity: also trace-orthogonal
    labels = [["id", 0]] + [[m, r] for m in range(p + 1) for r in range(1, p)]
    trace_orthogonal(ring.concat([powers[0, :1], powers[:, 1:p].reshape(len(labels) - 1, p * p)]), labels, "power_gram")
    return report


SMALL_PRIMES = [2, 3, 5, 7]
PRIMES_TO_31 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
PRIMES_TO_127 = [n for n in range(2, 128) if mub._is_prime(n)]


def test_prime_dim_accepts_primes_and_rejects_composites():
    for p in [2, 3, 5, 7, 11, 13, 31]:
        assert PrimeDim(p).p == p
    for n in [0, 1, 4, 6, 9, 15, 21]:
        with pytest.raises(ValueError):
            PrimeDim(n)


def test_primality_agrees_with_sympy_below_10_to_5():
    sympy = pytest.importorskip("sympy")
    assert [mub._is_prime(n) for n in range(10**5)] == [sympy.isprime(n) for n in range(10**5)]


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2 ... 31
        318665857834031151167461,  # psi_12: strong pseudoprime to bases 2 ... 37, not 41
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not mub._is_prime(n)
    with pytest.raises(ValueError, match="prime"):
        PrimeDim(n)


def test_primality_refuses_at_psi_13():
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        PrimeDim(3317044064679887385961981)


def test_huge_prime_dim_constructs():
    # 10^18 + 3: trial division up to its square root would take 10^9 steps
    assert PrimeDim(1000000000000000003).p == 1000000000000000003


def test_weyl_pair_p2_is_diag_and_exchange():
    u0, up = build_weyl_pair(PrimeDim(2), EXACT)
    minus_one = Amplitude(CyclotomicInt.integer(2, -1))
    one = Amplitude.one(2)
    zero = Amplitude.zero(2)
    assert u0 == [[minus_one, zero], [zero, one]]
    assert up == [[zero, one], [one, zero]]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_weyl_commutation_relation(p):
    dim = PrimeDim(p)
    u0, up = build_weyl_pair(dim, EXACT)
    lhs = exact_matmul(u0, up)
    rhs = exact_scale(exact_matmul(up, u0), root_amplitude(p, p - 1))
    assert exact_mat_equal(lhs, rhs)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_observables_have_period_p(p):
    dim = PrimeDim(p)
    eye = exact_eye(p)
    for m in range(p + 1):
        u = build_observable(dim, m, EXACT)
        assert exact_mat_equal(exact_mat_pow(u, p), eye), m
        for r in range(1, p):
            assert not exact_mat_equal(exact_mat_pow(u, r), eye), (m, r)


def test_observable_label_out_of_range():
    with pytest.raises(ValueError):
        build_observable(PrimeDim(3), 4)
    with pytest.raises(ValueError):
        build_observable(PrimeDim(3), -1)


def test_shift_moves_bras_forward():
    # <0_k| U_p = <0_{k+1}|: row k-1 of U_p is the (k mod p)-th unit row
    for p in SMALL_PRIMES:
        _, up = build_weyl_pair(PrimeDim(p), EXACT)
        for k in range(1, p + 1):
            row = up[k - 1]
            for j in range(p):
                expected = Amplitude.one(p) if j == k % p else Amplitude.zero(p)
                assert row[j] == expected


def test_clock_moves_fourier_kets_forward():
    # U_0 |p_k> = |p_{k+1}> with wraparound, exactly in the pinned phases
    for p in SMALL_PRIMES:
        dim = PrimeDim(p)
        u0, _ = build_weyl_pair(dim, EXACT)
        fam = build_mub_family(dim, "object", EXACT)
        for k in range(1, p + 1):
            moved = exact_apply(u0, fam.ket(p, k))
            target = fam.ket(p, k % p + 1)
            assert all((a - b).is_zero() for a, b in zip(moved, target)), (p, k)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_eigen_equation_for_every_basis(p):
    dim = PrimeDim(p)
    fam = build_mub_family(dim, "object", EXACT)
    for m in range(p + 1):
        u = build_observable(dim, m, EXACT)
        for k in range(1, p + 1):
            ket = fam.ket(m, k)
            moved = exact_apply(u, ket)
            eig = root_amplitude(p, k)
            assert all((a - eig * b).is_zero() for a, b in zip(moved, ket)), (m, k)


def test_fourier_basis_components():
    # the m=p basis is the plain Fourier basis p^{-1/2} q^{jk}
    for p in SMALL_PRIMES:
        fam = build_mub_family(PrimeDim(p), "object", EXACT)
        for k in range(1, p + 1):
            ket = fam.ket(p, k)
            for j0 in range(p):
                expected = Amplitude(CyclotomicInt.root_power(p, (j0 + 1) * k), 1)
                assert ket[j0] == expected


def test_p2_family_matches_pauli_eigenbases():
    fam = build_mub_family(PrimeDim(2), "object", FLOAT)
    z_basis = fam.bases[0]
    y_basis = fam.bases[1]
    x_basis = fam.bases[2]
    assert np.allclose(z_basis, np.eye(2))
    s = 1 / np.sqrt(2)
    assert np.allclose(y_basis, np.array([[s, 1j * s], [s, -1j * s]]))
    assert np.allclose(np.abs(x_basis), s)
    for b1 in (z_basis, y_basis, x_basis):
        for b2 in (z_basis, y_basis, x_basis):
            if b1 is b2:
                continue
            overlaps = np.abs(b1.conj() @ b2.T) ** 2
            assert np.allclose(overlaps, 0.5, atol=1e-12)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_unbiasedness_report_is_clean(p):
    fam = build_mub_family(PrimeDim(p), "object", EXACT)
    report = verify_unbiasedness(fam)
    assert report.passed
    assert report.checks == ((p + 1) * p) ** 2


def test_p3_cross_overlaps_are_exactly_one_third():
    fam = build_mub_family(PrimeDim(3), "object", EXACT)
    third = Amplitude(CyclotomicInt.one(3), 2)
    for m1 in range(4):
        for m2 in range(4):
            if m1 == m2:
                continue
            for k1 in range(1, 4):
                for k2 in range(1, 4):
                    sq = exact_overlap(fam.ket(m1, k1), fam.ket(m2, k2)).squared_modulus()
                    assert sq == third


def test_corrupted_family_is_reported_with_the_quadruple():
    p = 3
    fam = build_mub_family(PrimeDim(p), "object", EXACT)
    m, k = np.indices((p + 1, p))
    m[2, 0], k[2, 0] = 0, 0  # computational ket planted inside basis m=2
    broken = MubFamily(p=p, side="object", backend=EXACT, bases=fam.bases[m, k])
    report = verify_unbiasedness(broken)
    assert not report.passed
    quads = {(v["m"], v["k"], v["m2"], v["k2"]) for v in report.violations}
    assert (0, 1, 2, 1) in quads


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_trace_relations_exact(p):
    report = verify_trace_relations(PrimeDim(p), EXACT)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_trace_relations_float(p):
    report = verify_trace_relations(PrimeDim(p), FLOAT)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_exact_observables_equal_the_float_products(p):
    # the exact closed form against the literal float product U_0^m U_p, also at
    # primes the exact verify never reaches
    dim = PrimeDim(p)
    for m in range(p + 1):
        exact = np.array([[amp.to_complex() for amp in row] for row in build_observable(dim, m, EXACT)])
        assert np.max(np.abs(exact - build_observable(dim, m, FLOAT))) < 1e-12, m


@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_float_kets_are_the_eigenvectors_numpy_finds(p):
    # np.linalg.eig shares no code with the ket formula: each stored ket |m_k> is,
    # up to a phase, the eigenvector of U_m with eigenvalue q^k
    dim = PrimeDim(p)
    fam = build_mub_family(dim, "object", FLOAT)
    for m in range(p + 1):
        values, vectors = np.linalg.eig(build_observable(dim, m, FLOAT))
        for k in range(1, p + 1):
            match = np.flatnonzero(np.abs(values - np.exp(2j * np.pi * k / p)) < 1e-9)
            assert len(match) == 1, (m, k)
            assert abs(abs(np.vdot(vectors[:, match[0]], fam.ket(m, k))) - 1) < 1e-9, (m, k)


def test_exact_operator_checks_do_no_per_entry_arithmetic(monkeypatch):
    # structural: the operators are read once into ring arrays and checked there
    def refuse(*args):
        raise AssertionError("per-entry Amplitude arithmetic in the exact operator checks")

    monkeypatch.setattr(Amplitude, "__add__", refuse)
    monkeypatch.setattr(Amplitude, "__mul__", refuse)
    assert verify_trace_relations(PrimeDim(7), EXACT).passed


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("shape", ["fourier", "one_column"])
def test_observable_that_is_not_monomial_is_reported(backend, shape, monkeypatch):
    # the 3 x 3 Fourier matrix is unitary but has no zero entry; a matrix whose
    # rows all hold a single 1 in column 0 passes every row test
    p = 3
    original = mub.build_observable

    def replaced_1(dim, m, backend=EXACT):
        if m != 1:
            return original(dim, m, backend)
        if shape == "one_column":
            mat = [[Amplitude.one(p)] + [Amplitude.zero(p)] * (p - 1) for _ in range(p)]
        else:
            mat = [[Amplitude(CyclotomicInt.root_power(p, j * k), 1) for k in range(p)] for j in range(p)]
        return mat if backend == EXACT else np.array([[amp.to_complex() for amp in row] for row in mat])

    monkeypatch.setattr(mub, "build_observable", replaced_1)
    report = verify_trace_relations(PrimeDim(p), backend)
    assert not report.passed
    assert {"kind": "unitarity", "m": 1} in report.violations


def _corrupted(kind):
    """build_observable with one observable corrupted: observable 1 replaced by
    observable 2, observable 1 transposed, the shift U_p's rows rolled, the
    unitary but dense Fourier matrix in place of observable 1, the clock U_0's
    columns reversed (both sides of the commutation relation then have equal
    entries at different positions), or U_0's first row spread over columns 1
    and 2 (a row that reads as zero)."""
    original = mub.build_observable

    def build(dim, m, backend=EXACT):
        p = dim.p
        mat = original(dim, 2 if (kind == "1_is_2" and m == 1) else m, backend)
        if kind == "0_columns_reversed" and m == 0:
            return [row[::-1] for row in mat] if backend == EXACT else mat[:, ::-1]
        if kind == "0_row_0_spread" and m == 0:
            one, zero = (Amplitude.one(p), Amplitude.zero(p)) if backend == EXACT else (1, 0)
            row = [one if j in (1, 2 % p) else zero for j in range(p)]
            return [row] + mat[1:] if backend == EXACT else np.vstack([row, mat[1:]])
        if kind == "1_transposed" and m == 1:
            return [list(column) for column in zip(*mat)] if backend == EXACT else mat.T.copy()
        if kind == "shift_rows_rolled" and m == p:
            return mat[-1:] + mat[:-1] if backend == EXACT else np.roll(mat, 1, axis=0)
        if kind == "1_is_fourier" and m == 1:
            fourier = [[Amplitude(CyclotomicInt.root_power(p, j * k), 1) for k in range(p)] for j in range(p)]
            return fourier if backend == EXACT else np.array([[amp.to_complex() for amp in row] for row in fourier])
        return mat

    return build


@pytest.mark.parametrize(
    "backend, p", [(EXACT, p) for p in [2, 3, 5, 7, 11, 13]] + [(FLOAT, p) for p in PRIMES_TO_31]
)
def test_trace_relations_equal_the_dense_reference(backend, p):
    report = verify_trace_relations(PrimeDim(p), backend)
    reference = trace_relations_by_dense_grams(PrimeDim(p), backend)
    assert report.passed and (report.checks, report.violations) == (reference.checks, reference.violations)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize(
    "kind", ["1_is_2", "1_transposed", "shift_rows_rolled", "1_is_fourier", "0_columns_reversed", "0_row_0_spread"]
)
def test_corrupted_trace_relations_equal_the_dense_reference(kind, p, backend, monkeypatch):
    monkeypatch.setattr(mub, "build_observable", _corrupted(kind))
    report = verify_trace_relations(PrimeDim(p), backend)
    reference = trace_relations_by_dense_grams(PrimeDim(p), backend)
    assert not report.passed or (kind, p) == ("1_transposed", 2)  # -sigma_y satisfies every relation
    assert (report.checks, report.violations) == (reference.checks, reference.violations)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PRIMES), st.data())
def test_scatter_places_each_entry_and_zeros_elsewhere(p, data):
    # the reference's scatter against Amplitude placement
    width = data.draw(st.integers(1, 4))
    amplitude = st.builds(
        lambda coeffs, scale: Amplitude(CyclotomicInt(p, coeffs), scale),
        st.lists(st.integers(-20, 20), min_size=p, max_size=p),
        st.integers(0, 3),
    )
    rows = data.draw(st.lists(st.lists(amplitude, min_size=width, max_size=width), min_size=1, max_size=3))
    size = width + 2
    index = np.array([data.draw(st.permutations(range(size)))[:width] for _ in rows])
    ring = _ExactRing(p)
    placed = scatter(ring, ring.rows(rows), index, size)
    for i, row in enumerate(rows):
        expected = [Amplitude.zero(p)] * size
        for amp, j in zip(row, index[i].tolist()):
            expected[j] = amp
        assert ring.amps(placed[i]) == tuple(expected)


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("p", PRIMES_TO_31)
def test_eigen_equation_holds_for_every_ket(backend, p):
    report = verify_eigen_equation(build_mub_family(PrimeDim(p), "object", backend))
    assert report.passed, report.violations[:3]
    assert report.checks == (p + 1) * p


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_swapped_kets_fail_the_eigen_equation(backend):
    # kets 1 and 2 of basis 3 swapped: each is still a unit ket of the family,
    # so only the eigenvalue tells them apart
    p = 5
    fam = build_mub_family(PrimeDim(p), "object", backend)
    m, k = np.indices((p + 1, p))
    k[3, [0, 1]] = [1, 0]
    swapped = MubFamily(p=p, side="object", backend=backend, bases=fam.bases[m, k])
    report = verify_eigen_equation(swapped)
    assert report.violations == [{"m": 3, "k": 1}, {"m": 3, "k": 2}]
    with pytest.raises(ValueError):
        verify_eigen_equation(build_mub_family(PrimeDim(p), "ancilla", backend))


def test_float_bases_equal_the_per_entry_exponentials():
    # the gathered table holds the same bits as one np.exp per amplitude
    for p in PRIMES_TO_127:
        bases, j = mub._float_bases(p), np.arange(1, p + 1)
        assert np.array_equal(bases[0], np.eye(p))
        for m in range(1, p + 1):
            e = mub._ket_exponent(p, m, j[None, :], j[:, None])
            assert np.array_equal(bases[m], (1 / math.sqrt(p)) * np.exp(1j * (2 * np.pi * e / p))), (p, m)


@pytest.mark.parametrize("side", ["object", "ancilla"])
def test_families_equal_the_construction_they_replaced(side):
    for p in PRIMES_TO_31:
        fam = build_mub_family(PrimeDim(p), side, EXACT)
        kets = [tuple(fam.ket(m, k) for k in range(1, p + 1)) for m in range(p + 1)]
        assert tuple(kets) == exact_family_by_amplitudes(p, side), p
    for p in PRIMES_TO_127:
        bases, reference = build_mub_family(PrimeDim(p), side, FLOAT).bases, float_family_array(p, side)
        assert (bases.shape, bases.tobytes()) == (reference.shape, reference.tobytes()), p


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_families_compare_by_identity(backend):
    fam, again = (build_mub_family(PrimeDim(3), "object", backend) for _ in range(2))
    assert fam == fam and fam != again
    assert len({fam, again, fam}) == 2


@pytest.mark.parametrize("p", [11, 13])
def test_unbiasedness_float_oracle(p):
    fam = build_mub_family(PrimeDim(p), "object", FLOAT)
    assert verify_unbiasedness(fam).passed


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exact_family_agrees_with_float_construction(p):
    # bridging the exact amplitudes to complex must land on the independently
    # built float family, and the bridged family must still pass the checks
    dim = PrimeDim(p)
    bridged = build_mub_family(dim, "object", EXACT).as_float()
    direct = build_mub_family(dim, "object", FLOAT)
    assert np.max(np.abs(bridged.bases - direct.bases)) < 1e-12
    assert verify_unbiasedness(bridged).passed


def test_projector_power_sum_equals_outer_product():
    for p in [2, 3, 5]:
        fam = build_mub_family(PrimeDim(p), "object", EXACT)
        for m in range(p + 1):
            for k in range(1, p + 1):
                power_sum = projector_power_sum(fam, m, k)
                outer = ket_projector(fam, m, k)
                assert exact_mat_equal(power_sum, outer), (p, m, k)


def test_projector_power_sums_resolve_identity_and_have_unit_trace():
    p = 5
    fam = build_mub_family(PrimeDim(p), "object", EXACT)
    for m in range(p + 1):
        total = [[Amplitude.zero(p) for _ in range(p)] for _ in range(p)]
        for k in range(1, p + 1):
            proj = projector_power_sum(fam, m, k)
            trace = Amplitude.zero(p)
            for i in range(p):
                trace = trace + proj[i][i]
            assert trace.as_fraction() == 1
            total = [[x + y for x, y in zip(ra, rp)] for ra, rp in zip(total, proj)]
        assert exact_mat_equal(total, exact_eye(p))


def test_ancilla_shift_moves_kets_forward():
    for p in SMALL_PRIMES:
        dim = PrimeDim(p)
        _, aup = build_ancilla_weyl_pair(dim, EXACT)
        fam = build_mub_family(dim, "ancilla", EXACT)
        for k in range(1, p + 1):
            moved = exact_apply(aup, fam.ket(0, k))
            target = fam.ket(0, k % p + 1)
            assert all((a - b).is_zero() for a, b in zip(moved, target))


def test_ancilla_clock_moves_fourier_bras_forward():
    # <p-bar_k| U-bar_0 = <p-bar_{k+1}|
    for p in SMALL_PRIMES:
        dim = PrimeDim(p)
        au0, _ = build_ancilla_weyl_pair(dim, EXACT)
        fam = build_mub_family(dim, "ancilla", EXACT)
        for k in range(1, p + 1):
            bra = [amp.conjugate() for amp in fam.ket(p, k)]
            moved = [
                sum(
                    (bra[i] * au0[i][j] for i in range(p)),
                    start=Amplitude.zero(p),
                )
                for j in range(p)
            ]
            target = [amp.conjugate() for amp in fam.ket(p, k % p + 1)]
            assert all((a - b).is_zero() for a, b in zip(moved, target)), (p, k)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_ancilla_eigen_equation(p):
    # conjugated kets diagonalize the interchanged-role ancilla observables
    dim = PrimeDim(p)
    fam = build_mub_family(dim, "ancilla", EXACT)
    for m in range(p + 1):
        u = build_ancilla_observable(dim, m, EXACT)
        for k in range(1, p + 1):
            ket = fam.ket(m, k)
            moved = exact_apply(u, ket)
            eig = root_amplitude(p, k)
            assert all((a - eig * b).is_zero() for a, b in zip(moved, ket)), (m, k)


def test_family_json_shapes():
    fam = build_mub_family(PrimeDim(2), "object", EXACT)
    doc = fam.to_json()
    assert doc["p"] == 2
    assert len(doc["bases"]) == 3
    assert all(len(basis) == 2 for basis in doc["bases"])
    float_doc = build_mub_family(PrimeDim(2), "object", FLOAT).to_json()
    assert {"re", "im"} == set(float_doc["bases"][1][0][0])


class TestDiagnoseComposite:
    def test_n6_reports_violations(self):
        diag = diagnose_composite(6)
        assert isinstance(diag, CompositeDiagnosis)
        assert diag.witnesses
        kinds = {w["kind"] for w in diag.witnesses}
        assert kinds & {"period", "operator_basis_gap", "unbiasedness"}

    def test_n4_reports_something_concrete(self):
        diag = diagnose_composite(4)
        assert diag.witnesses
        assert diag.first_failure != "none"

    def test_every_composite_up_to_16_fails_somewhere(self):
        for n in [4, 6, 8, 9, 10, 12, 14, 15, 16]:
            assert diagnose_composite(n).witnesses, n

    def test_prime_input_is_refused(self):
        with pytest.raises(ValueError, match="prime"):
            diagnose_composite(7)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            diagnose_composite(18)
