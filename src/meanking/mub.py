"""Complementary observables and their eigenbases for prime dimension p.

Constructs the reciprocal clock/shift pair (U_0 diagonal in the computational
basis, U_p the cyclic shift), the full family U_0..U_p of period-p unitaries,
and the p+1 mutually unbiased eigenbases.  Everything exists in two backends:
an exact one over the cyclotomic ring, where every identity is tested for
literal zero, and a float one that serves as an independent numerical oracle.

For p = 2 the bare product U_0^m U_p has period 4 rather than 2, so the third
observable carries a compensating phase -i (making it the sigma_y-like
operator) and its eigenbasis {(1, i)/sqrt(2), (1, -i)/sqrt(2)} is written out
explicitly; the odd-prime amplitude formula degenerates there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import EXACT, FLOAT, Amplitude, CyclotomicInt, _ring, _RingArray
from .cyclotomic import _blocks, _gram_blocks, _hermitian_deviations, _pair_overlaps


# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below psi_13 (Sorenson and Webster, 2015); past it the verdict is unproven.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981  # psi_13


def _is_prime(n: int) -> bool:
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality is decided only below {_MILLER_RABIN_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeDim:
    """A validated prime dimension."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"dimension must be an integer, got {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"dimension must be prime, got {self.p}")


def _check_backend(backend: str) -> None:
    if backend not in (EXACT, FLOAT):
        raise ValueError(f"unknown backend {backend!r}")


# --- unchecked float builders, shared with the composite diagnosis ---


def _float_weyl_pair(n: int):
    # U_0 = diag(q^1..q^n) and the cyclic shift, for any n >= 2
    u0 = np.diag([np.exp(2j * np.pi * (i + 1) / n) for i in range(n)])
    return u0, np.roll(np.eye(n, dtype=complex), 1, axis=1)


def _float_observable(n: int, m: int):
    # U_0 for m = 0, else the bare product U_0^m U_n (no p = 2 phase)
    u0, up = _float_weyl_pair(n)
    if m == 0:
        return u0
    return np.linalg.matrix_power(u0, m) @ up


def _ket_exponent(p: int, m: int, j, k):
    # j-th computational amplitude of |m_k> (j, k ints or arrays), for odd p and m >= 1
    return (j * k - m * (j * (j - 1) // 2)) % p


def _float_bases(n: int):
    # the computational basis, then bases 1..n from the odd-p formula, one at a
    # time: each amplitude gathered from the n values scale * q^e, e = 0..n-1
    arr = np.zeros((n + 1, n, n), dtype=complex)
    arr[0] = np.eye(n)
    scale = 1 / math.sqrt(n)
    e = np.arange(n)
    roots = scale * np.exp(1j * (2 * np.pi * e / n))
    j = np.arange(1, n + 1)
    for m in range(1, n + 1):
        arr[m] = roots[_ket_exponent(n, m, j[None, :], j[:, None])]
    return arr


# --- operator construction ---


def build_weyl_pair(dim: PrimeDim, backend: str = EXACT):
    """The reciprocal pair: U_0 = diag(q^1..q^p) and the cyclic shift U_p.

    U_p satisfies <0_k| U_p = <0_{k+1}| with wraparound, and the pair obeys
    U_0 U_p = q^{-1} U_p U_0.
    """
    _check_backend(backend)
    if backend == EXACT:
        return build_observable(dim, 0, EXACT), build_observable(dim, dim.p, EXACT)
    return _float_weyl_pair(dim.p)


def build_observable(dim: PrimeDim, m: int, backend: str = EXACT):
    """The m-th period-p observable: U_0 for m=0, else U_0^m U_p (phased for p=2).

    For p = 2, m = 1 the bare product squares to -1, so a factor -i restores
    period 2 and the spectrum {q, q^2}.  The exact matrix is written from its
    closed form: q^(i+1) at (i, i) for m = 0, else q^(m(i+1)) at (i, i+1 mod p);
    the float one is the literal product, the oracle for that form.
    """
    _check_backend(backend)
    p = dim.p
    if not 0 <= m <= p:
        raise ValueError(f"observable label must be in 0..{p}, got {m}")
    phased = p == 2 and m == 1
    if backend == FLOAT:
        mat = _float_observable(p, m)
        return -1j * mat if phased else mat
    factor = -CyclotomicInt.imaginary_unit() if phased else CyclotomicInt.one(p)
    mat = [[Amplitude.zero(p)] * p for _ in range(p)]
    for i in range(p):
        column, e = (i, i + 1) if m == 0 else ((i + 1) % p, m * (i + 1))
        mat[i][column] = Amplitude(CyclotomicInt.root_power(p, e) * factor)
    return mat


# --- eigenbasis family ---


@dataclass(frozen=True, eq=False)
class MubFamily:
    """The p+1 orthonormal bases; basis m=0 is computational, bases 1..p unbiased to it.

    `bases` has shape (p+1, p, p), kets along axis 1: a `_RingArray` on the
    exact backend, a complex ndarray on the float one, read through `_ring`.
    `ket` hands out one ket as Amplitudes (exact) or complex numbers (float).
    Families compare by identity.
    """

    p: int
    side: str
    backend: str
    bases: _RingArray | np.ndarray

    @functools.cached_property
    def _ring(self):
        return _ring(self.backend, self.p)

    def ket(self, m: int, k: int):
        if not 0 <= m <= self.p:
            raise ValueError(f"basis label must be in 0..{self.p}, got {m}")
        if not 1 <= k <= self.p:
            raise ValueError(f"ket label must be in 1..{self.p}, got {k}")
        return self._ring.amps(self.bases[m, k - 1])

    def _kets(self):
        return [[self.ket(m, k) for k in range(1, self.p + 1)] for m in range(self.p + 1)]

    def as_float(self) -> "MubFamily":
        if self.backend == FLOAT:
            return self
        arr = np.array([[[amp.to_complex() for amp in ket] for ket in basis] for basis in self._kets()], dtype=complex)
        return MubFamily(p=self.p, side=self.side, backend=FLOAT, bases=arr)

    def to_json(self) -> dict:
        if self.backend == EXACT:
            encode = Amplitude.to_json
        else:
            encode = lambda z: {"re": float(z.real), "im": float(z.imag)}
        bases = [[[encode(x) for x in ket] for ket in basis] for basis in self._kets()]
        return {"p": self.p, "side": self.side, "backend": self.backend, "bases": bases}


def build_mub_family(dim: PrimeDim, side: str = "object", backend: str = EXACT) -> MubFamily:
    """All p+1 bases; ancilla side is the entrywise conjugate of the object side.

    Each ket of bases 1..p is a monomial q^e/sqrt(p), e from `_ket_exponent`:
    gathered from the p roots on the float backend (`_float_bases`), one
    coefficient at scale 1 on the exact one.  At p = 2 basis 1 is (1, +-i)/sqrt(2)."""
    _check_backend(backend)
    if side not in ("object", "ancilla"):
        raise ValueError(f"side must be 'object' or 'ancilla', got {side!r}")
    p = dim.p
    if backend == FLOAT:
        bases = _float_bases(p)
        if p == 2:
            bases[1] = np.array([[1, 1j], [1, -1j]]) * (1 / math.sqrt(2))
    else:
        n = _ring(EXACT, p).n  # q = zeta_N^(N/p)
        j = np.arange(1, p + 1)
        exps = _ket_exponent(p, j[:, None, None], j[None, None, :], j[None, :, None]) * (n // p)
        if p == 2:
            exps[0] = [[0, 1], [0, 3]]
        c = np.zeros((p + 1, p, p, n), dtype=np.int64)
        c[0, ..., 0] = np.eye(p, dtype=np.int64)
        np.put_along_axis(c[1:], exps[..., None], 1, axis=-1)
        bases = _RingArray(p, c, np.minimum(np.arange(p + 1), 1)[:, None, None])  # scale 0, then 1
    return MubFamily(p=p, side=side, backend=backend, bases=bases.conj() if side == "ancilla" else bases)


# --- verification ---


@dataclass
class CheckReport:
    """Outcome of one identity family; violations are entries, not exceptions."""

    name: str
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "passed": self.passed,
            "violations": self.violations,
        }


def verify_unbiasedness(fam: MubFamily) -> CheckReport:
    """Check every squared overlap: delta within a basis, exactly 1/p across bases.
    The symmetric table is walked as Hermitian; `actual` is recomputed per pair."""
    p, ring = fam.p, fam._ring
    flat = fam.bases.reshape((p + 1) * p, p)
    n = len(flat)
    report = CheckReport(name="unbiasedness", checks=n * n)
    squares = map(ring.abs2, _gram_blocks(ring, flat, flat, upper=True))
    # wants over the denominator p: p * delta within a basis, 1 across bases
    want = lambda rows, cols: np.where(rows // p == cols // p, p * (rows == cols), 1)
    pairs = _hermitian_deviations(ring, n, squares, want, p)
    for block in _blocks(len(pairs)):
        i, j = np.array(pairs[block]).T
        actual = ring.abs2(_pair_overlaps(ring, flat[i], flat[j]))
        for v, (row, col) in enumerate(pairs[block]):
            (m, k), (m2, k2) = divmod(row, p), divmod(col, p)
            report.violations.append({"m": m, "k": k + 1, "m2": m2, "k2": k2 + 1, "actual": ring.actual(actual[v])})
    return report


def _read_monomial(ring, dim: PrimeDim, backend: str):
    """U_0..U_p, each read as a monomial: (perm, entries, monomial), indexed by
    m first.  Row i of U_m has its nonzero in column perm[m, i] with value
    entries[m, i], and monomial[m] says whether every row and every column of
    U_m has exactly one.  A row with more than one reads as zero, so the
    products and traces built on the reading stay in the ring."""
    mat = ring.rows([build_observable(dim, m, backend) for m in range(dim.p + 1)])
    nonzero = ring.deviates(mat, 0)
    single = nonzero.sum(axis=-1) == 1
    perm = nonzero.argmax(axis=-1)
    m, i = np.indices(perm.shape, sparse=True)
    entries = ring.mul(mat[m, i, perm], ring.integers(single))
    return perm, entries, single.all(axis=-1) & (nonzero.sum(axis=-2) == 1).all(axis=-1)


def verify_eigen_equation(fam: MubFamily) -> CheckReport:
    """Check that every ket is an eigenket of its observable: U_m|m_k> = q^k|m_k>.

    Each U_m is read as a monomial (perm, entries), so U_m|v> is the gather
    entries[i] v[perm[i]].  The equation is stated for the object family."""
    if fam.side != "object":
        raise ValueError(f"the eigen equation is checked on the object family, got {fam.side!r}")
    p, ring = fam.p, fam._ring
    perm, entries, _ = _read_monomial(ring, PrimeDim(p), fam.backend)  # [m, i]
    kets = fam.bases  # [m, k-1, j]
    basis = np.arange(p + 1)[:, None, None]
    applied = ring.mul(entries[:, None, :], kets[basis, np.arange(p)[None, :, None], perm[:, None, :]])
    eigen = ring.phase(kets, np.arange(1, p + 1)[None, :, None])
    failed = ring.deviates(applied - eigen, 0).any(axis=-1)  # [m, k-1]
    report = CheckReport(name="eigen_equation", checks=failed.size)
    for m, k in np.argwhere(failed).tolist():
        report.violations.append({"m": m, "k": k + 1})
    return report


def _shared_key_sums(ring, keys_a, vals_a, keys_b, vals_b, block_rows: int):
    """Yield (start, block): rows start.. of S[i, k], the sum of vals_a[i, x] *
    vals_b[k, y] over the entries whose keys agree, keys_a[i, x] == keys_b[k, y].

    Each row is a sparse vector (a monomial's entries, keyed by their positions
    in its p^2-vector), so S is a Gram or trace table that touches only shared
    positions: b's keys are sorted once, and each block of a's rows finds its
    partners by `searchsorted` and sums their products into S by `ring.add_at`."""
    width, n_b = keys_a.shape[1], len(keys_b)
    order = np.argsort(keys_b, axis=None, kind="stable")
    sorted_keys = keys_b.ravel()[order]
    flat_a, flat_b = vals_a.reshape(-1), vals_b.reshape(-1)
    for start in range(0, len(keys_a), block_rows):
        keys = keys_a[start : start + block_rows].ravel()
        lo = np.searchsorted(sorted_keys, keys, "left")
        count = np.searchsorted(sorted_keys, keys, "right") - lo
        a_item = np.repeat(np.arange(len(keys)), count)  # entry of the block, per match
        first = np.repeat(lo - np.cumsum(count) + count, count)
        b_item = order[first + np.arange(len(a_item))]  # its partner's entry in b
        products = ring.mul(flat_a[start * width + a_item], flat_b[b_item])
        rows = len(keys) // width
        sums = ring.add_at(products, a_item // width * n_b + b_item // width, rows * n_b)
        yield start, sums.reshape(rows, n_b)


def verify_trace_relations(dim: PrimeDim, backend: str = EXACT) -> CheckReport:
    """Operator-level identities: periods, the commutation relation, the trace
    table, tracelessness of the non-identity basis operators, and completeness
    (trace-orthogonality) of both operator bases.

    Every U_m is a monomial matrix, read once as (perm, entries): a product is
    a gather and an entrywise ring product, and a trace or Gram product a sum
    over the positions two monomials share (`_shared_key_sums`)."""
    p, ring = dim.p, _ring(backend, dim.p)
    report = CheckReport(name="trace_relations")
    rows = np.arange(p)

    def times(a, b):
        # (perm, entries) of A B, batched over leading axes: row i of A lands on
        # row perm_a[i] of B
        (perm_a, ent_a), (perm_b, ent_b) = a, b
        gather = (*np.indices(perm_a.shape, sparse=True)[:-1], perm_a)
        return np.take_along_axis(perm_b, perm_a, axis=-1), ring.mul(ent_a, ent_b[gather])

    def keyed(perm, transpose=False):
        # each entry's position in the p^2-vector of the monomial, or of its transpose
        return perm * p + rows if transpose else rows * p + perm

    *obs, monomial = _read_monomial(ring, dim, backend)  # U_m as (perm, entries), batched over m

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

    # period p exactly: U_m^p = 1 and no smaller power is; a monomial is the
    # identity when it fixes every row and each entry is 1
    fixed = perms == rows
    identity = fixed.all(axis=-1) & ~ring.deviates(ents, fixed.astype(int)).any(axis=-1)
    for m in range(p + 1):
        report.checks += 1
        if not identity[m, p]:
            report.violations.append({"kind": "period", "m": m, "r": p})
        for r in range(1, p):
            report.checks += 1
            if identity[m, r]:
                report.violations.append({"kind": "premature_period", "m": m, "r": r})

    # U_0 U_p = q^{-1} U_p U_0: where the two sides share a row's position their
    # entries must agree, and elsewhere both must be zero
    report.checks += 1
    u0, up = (perms[0, 1], ents[0, 1]), (perms[p, 1], ents[p, 1])
    (perm_l, left), (perm_r, right) = times(u0, up), times(up, u0)
    right = ring.phase(right, -1)
    off = ring.deviates(ring.stack([left - right, left, right]), 0)
    if np.where(perm_l == perm_r, off[0], off[1] | off[2]).any():
        report.violations.append({"kind": "commutation"})

    # trace table over all m, m' and r, s in 0..p-1: tr(A B) sums A_ij B_ji, so
    # A's positions meet B's transposed ones; one block of rows per m1
    table = ents[:, :p].reshape((p + 1) * p, p)  # U_m^r, one row per (m, r)
    row_keys, column_keys = (keyed(perms[:, :p], transpose).reshape(-1, p) for transpose in (False, True))
    exps = np.arange(p)
    pairs = [[r, s] for r in range(1, p + 1) for s in range(1, p + 1)]  # of the clock/shift monomials below
    r_mod, s_mod = (np.array(pairs) % p).T
    want_same = p * ((exps[:, None] + exps[None, :]) % p == 0)
    want_other = p * np.outer(exps == 0, exps == 0)
    for start, block in _shared_key_sums(ring, row_keys, table, column_keys, table, p):
        m1 = start // p
        traces = block.reshape(p, p + 1, p).swapaxes(0, 1)  # [m2, r, s]
        if m1 == 0:
            clock_shift = traces[p][r_mod, s_mod]  # tr(U_0^r U_p^s) per pair, a copy
        want = np.where((np.arange(p + 1) == m1)[:, None, None], want_same, want_other)
        report.checks += want.size
        for m2, r, s in np.argwhere(ring.deviates(traces, want)).tolist():
            report.violations.append({"kind": "trace", "m": m1, "m2": m2, "r": r, "s": s})

    def trace_orthogonal(perm, entries, labels, kind):
        # tr(A^dag B) = <vec A|vec B>, so the Gram matrix is p times identity
        report.checks += len(labels) ** 2
        keys = keyed(perm)
        for start, block in _shared_key_sums(ring, keys, entries.conj(), keys, entries, p):
            want = p * np.eye(len(block), len(labels), start, dtype=int)
            for i, j in np.argwhere(ring.deviates(block, want)).tolist():
                report.violations.append({"kind": kind, "pair": [labels[start + i], labels[j]]})

    # clock/shift monomials U_0^r U_p^s: traceless except identity (their traces
    # are the trace table's block m = 0, m' = p), and trace-orthogonal
    report.checks += len(pairs)
    for i in np.flatnonzero(ring.deviates(clock_shift, p * ((r_mod == 0) & (s_mod == 0)))):
        report.violations.append({"kind": "monomial_trace", "r": pairs[i][0], "s": pairs[i][1]})
    monomials = times((perms[0, r_mod], ents[0, r_mod]), (perms[p, s_mod], ents[p, s_mod]))
    trace_orthogonal(*monomials, pairs, "monomial_gram")

    # the p^2-1 powers U_m^r (r = 1..p-1) plus identity: also trace-orthogonal
    labels = [["id", 0]] + [[m, r] for m in range(p + 1) for r in range(1, p)]
    trace_orthogonal(
        np.concatenate([perms[0, :1], perms[:, 1:p].reshape(-1, p)]),
        ring.concat([ents[0, :1], ents[:, 1:p].reshape(len(labels) - 1, p)]),
        labels,
        "power_gram",
    )
    return report


# --- composite-dimension diagnosis ---

DIAGNOSE_MAX_N = 16
DIAGNOSE_ATOL = 1e-8  # a float deviation past this is a witness


@dataclass
class CompositeDiagnosis:
    """What breaks when the construction is run at a composite dimension."""

    n: int
    witnesses: list

    @property
    def first_failure(self) -> str:
        return self.witnesses[0]["kind"] if self.witnesses else "none"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "first_failure": self.first_failure,
            "witness_count": len(self.witnesses),
            "witnesses": self.witnesses,
        }


def check_composite(n: int) -> None:
    """Raise ValueError unless `diagnose_composite` accepts n."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    out_of_range = ValueError(f"composite diagnosis supports 4 <= n <= {DIAGNOSE_MAX_N}")
    if n > DIAGNOSE_MAX_N:  # before the primality test, so huge n get the range message
        raise out_of_range
    if _is_prime(n):
        raise ValueError(
            f"{n} is prime; the construction succeeds there, so there is nothing to diagnose"
        )
    if n < 4:
        raise out_of_range


def diagnose_composite(n: int) -> CompositeDiagnosis:
    """Run the construction at composite n with primality enforcement bypassed
    and report every invariant that breaks, with concrete witnesses."""
    check_composite(n)
    witnesses = []

    obs = [_float_observable(n, m) for m in range(n + 1)]

    # period: U_m^n should be the identity
    eye = np.eye(n)
    for m, mat in enumerate(obs):
        dev = float(np.max(np.abs(np.linalg.matrix_power(mat, n) - eye)))
        if dev > DIAGNOSE_ATOL:
            witnesses.append({"kind": "period", "m": m, "deviation": dev})

    # operator-basis reach: powers U_m^r land on (m*r mod n, r mod n), which
    # for composite n misses part of the clock/shift monomial grid
    reached = set()
    for r in range(1, n + 1):
        reached.add((r % n, 0))
    for m in range(1, n + 1):
        for r in range(1, n + 1):
            reached.add((m * r % n, r % n))
    missing = sorted(set((a, b) for a in range(n) for b in range(n)) - reached)
    if missing:
        witnesses.append(
            {
                "kind": "operator_basis_gap",
                "missing_count": len(missing),
                "examples": [list(pair) for pair in missing[:5]],
            }
        )

    # unbiasedness of the formula-built family, the first five witnesses kept
    bases, flagged = _float_bases(n), 0
    for m1 in range(n + 1):
        for m2 in range(m1 + 1, n + 1):
            overlaps = np.abs(bases[m1].conj() @ bases[m2].T) ** 2
            bad = np.argwhere(np.abs(overlaps - 1.0 / n) > DIAGNOSE_ATOL)
            for k1, k2 in bad[: max(0, 5 - flagged)]:
                witness = {"kind": "unbiasedness", "m": m1, "k": int(k1) + 1, "m2": m2}
                witnesses.append({**witness, "k2": int(k2) + 1, "actual": float(overlaps[k1, k2])})
            flagged += len(bad)
    if flagged > 5:
        witnesses.append({"kind": "unbiasedness_summary", "violations": flagged})

    return CompositeDiagnosis(n=n, witnesses=witnesses)
