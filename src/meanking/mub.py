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
import operator
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import EXACT, FLOAT, Amplitude, CyclotomicInt, _ring, _RingArray
from .cyclotomic import _gram_blocks, _hermitian_deviations, _where


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


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """`value` as a Python int, numpy integers included.  A bool, a value
    without `__index__` (float, str, numpy.bool_) or one outside lo..hi
    raises one ValueError that names the argument and its range."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or value is True or value is False or (lo is not None and n < lo) or (hi is not None and n > hi):
        span = "" if lo is None else f" in {lo}..{hi}" if hi is not None else f" >= {lo}"
        raise ValueError(f"{name} must be an integer{span}, got {value!r}")
    return n


@dataclass(frozen=True)
class PrimeDim:
    """A validated prime dimension."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _integer("dimension", self.p))
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


def _float_basis(n: int, m: int):
    # basis m, kets as rows: computational for m = 0, (1, +-i)/sqrt(2) for n = 2, m = 1,
    # else the odd-p formula, each amplitude gathered from the n values scale * q^e
    if m == 0:
        return np.eye(n, dtype=complex)
    if n == 2 and m == 1:
        return np.array([[1, 1j], [1, -1j]]) * (1 / math.sqrt(2))
    roots = (1 / math.sqrt(n)) * np.exp(1j * (2 * np.pi * np.arange(n) / n))
    j = np.arange(1, n + 1)
    return roots[_ket_exponent(n, m, j[None, :], j[:, None])]


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
    m = _integer("m", m, 0, p)
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
        return self._ring.amps(self.bases[_integer("m", m, 0, self.p), _integer("k", k, 1, self.p) - 1])

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
    gathered from the p roots on the float backend (`_float_basis`), one
    coefficient at scale 1 on the exact one.  At p = 2 basis 1 is (1, +-i)/sqrt(2)."""
    _check_backend(backend)
    if side not in ("object", "ancilla"):
        raise ValueError(f"side must be 'object' or 'ancilla', got {side!r}")
    p = dim.p
    if backend == FLOAT:
        bases = np.stack([_float_basis(p, m) for m in range(p + 1)])
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
    The symmetric table is walked as Hermitian; `actual` is the walked entry."""
    p, ring = fam.p, fam._ring
    flat = fam.bases.reshape((p + 1) * p, p)
    report = CheckReport(name="unbiasedness", checks=len(flat) ** 2)
    squares = map(ring.abs2, _gram_blocks(ring, flat))
    # wants over the denominator p: p * delta within a basis, 1 across bases
    want = lambda rows, cols: np.where(rows // p == cols // p, p * (rows == cols), 1)
    for row, col, entry in _hermitian_deviations(ring, squares, want, p):
        (m, k), (m2, k2) = divmod(row, p), divmod(col, p)
        report.violations.append({"m": m, "k": k + 1, "m2": m2, "k2": k2 + 1, "actual": ring.actual(entry)})
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


def _classes(perm: np.ndarray):
    """The distinct rows of a 2-D int array, in lexicographic order, and the
    indices of the rows equal to each, in order."""
    order = np.lexsort(perm.T[::-1])
    ordered = perm[order]
    starts = np.flatnonzero(np.concatenate([[True], (ordered[1:] != ordered[:-1]).any(axis=1)]))
    return ordered[starts], np.split(order, starts[1:])


def _monomial_deviations(ring, monomials, want, trace: bool = False) -> np.ndarray:
    """Where the table T[x, y] of a stack of monomials, read as (perm, entries)
    [x, i], is not p where `want` [x, y] holds and 0 elsewhere: the Gram
    entries <A_x|A_y>, summed over the rows i whose nonzeros share a column,
    perm[x, i] == perm[y, i]; with `trace`, tr(A_x A_y), summed over the rows
    i with perm[y, perm[x, i]] == i, of a[x, i] a[y, perm[x, i]].

    Monomials with one permutation share every position, so the stack is
    grouped into classes by permutation and the positions two classes share
    are found once: a pair of classes sharing some is one ring Gram of their
    entries there, and a pair sharing none an empty sum, a literal zero,
    which deviates exactly where its want is p."""
    (perm, entries), p = monomials, ring.p
    classes, members = _classes(perm)
    # shared[class of x, class of y, i]
    if trace:
        shared = np.take(classes, classes, axis=1).swapaxes(0, 1) == np.arange(perm.shape[1])
    else:
        shared = classes[:, None] == classes[None]
    deviations = want.copy()
    for k_x, k_y in np.argwhere(shared.any(axis=-1)).tolist():
        at, rows, cols = np.flatnonzero(shared[k_x, k_y]), members[k_x][:, None], members[k_y]
        left, right = entries[rows, at], entries[cols[:, None], classes[k_x, at] if trace else at]
        block = ring.gram(left.conj() if trace else left, right)  # the Gram conjugates its first operand
        deviations[rows, cols] = ring.deviates(block, p * want[rows, cols])
    return deviations


def verify_trace_relations(dim: PrimeDim, backend: str = EXACT) -> CheckReport:
    """Operator-level identities: periods, the commutation relation, the trace
    table, tracelessness of the non-identity basis operators, and completeness
    (trace-orthogonality) of both operator bases.

    Every U_m is a monomial matrix, read once as (perm, entries): a product is
    a gather and an entrywise ring product, and a trace or Gram table a sum
    over the positions two monomials share, one ring Gram per pair of
    permutation classes that shares any (`_monomial_deviations`)."""
    p, ring = dim.p, _ring(backend, dim.p)
    report = CheckReport(name="trace_relations")
    rows = np.arange(p)

    def times(a, b):
        # (perm, entries) of A B, batched over leading axes: row i of A lands on
        # row perm_a[i] of B
        (perm_a, ent_a), (perm_b, ent_b) = a, b
        gather = (*np.indices(perm_a.shape, sparse=True)[:-1], perm_a)
        return np.take_along_axis(perm_b, perm_a, axis=-1), ring.mul(ent_a, ent_b[gather])

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
    ents = ring.concat([pw[1][:, None] for pw in power], axis=1)

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
    off = lambda x: ring.deviates(x, 0)
    if np.where(perm_l == perm_r, off(left - right), off(left) | off(right)).any():
        report.violations.append({"kind": "commutation"})

    # trace table over all m, m' and r, s in 0..p-1, one row per (m, r): p where
    # m = m' and r + s = 0 mod p, or m != m' and r = s = 0, else 0; reported in
    # (m, m', r, s) order
    count = (p + 1) * p
    powers = (perms[:, :p].reshape(count, p), ents[:, :p].reshape(count, p))  # U_m^r at row m*p + r
    m, r = np.divmod(np.arange(count), p)
    want = np.where(np.equal.outer(m, m), np.equal.outer(-r % p, r), np.logical_and.outer(r == 0, r == 0))
    report.checks += want.size
    traces = _monomial_deviations(ring, powers, want, trace=True)
    for m, m2, r, s in _where(traces.reshape(p + 1, p, p + 1, p).swapaxes(1, 2)):
        report.violations.append({"kind": "trace", "m": m, "m2": m2, "r": r, "s": s})

    def trace_orthogonal(monomials, labels, kind):
        # tr(A^dag B) = <vec A|vec B>, so the Gram matrix is p times identity
        report.checks += len(labels) ** 2
        want = np.eye(len(labels), dtype=bool)
        for i, j in _where(_monomial_deviations(ring, monomials, want)):
            report.violations.append({"kind": kind, "pair": [labels[i], labels[j]]})

    # clock/shift monomials U_0^r U_p^s: traceless except identity (their traces
    # are the trace table's block m = 0, m' = p), and trace-orthogonal
    pairs = [[r, s] for r in range(1, p + 1) for s in range(1, p + 1)]
    r_mod, s_mod = (np.array(pairs) % p).T
    report.checks += len(pairs)
    for i in np.flatnonzero(traces[r_mod, p * p + s_mod]):
        report.violations.append({"kind": "monomial_trace", "r": pairs[i][0], "s": pairs[i][1]})
    monomials = times((perms[0, r_mod], ents[0, r_mod]), (perms[p, s_mod], ents[p, s_mod]))
    trace_orthogonal(monomials, pairs, "monomial_gram")

    # the p^2-1 powers U_m^r (r = 1..p-1) plus identity: also trace-orthogonal
    labels = [["id", 0]] + [[m, r] for m in range(p + 1) for r in range(1, p)]
    trace_orthogonal(
        (
            np.concatenate([perms[0, :1], perms[:, 1:p].reshape(-1, p)]),
            ring.concat([ents[0, :1], ents[:, 1:p].reshape(len(labels) - 1, p)]),
        ),
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


def check_composite(n: int) -> int:
    """n as an int, or ValueError unless `diagnose_composite` accepts n."""
    # the range before the primality test, so huge n get the range message
    n = _integer("composite dimension", n, 4, DIAGNOSE_MAX_N)
    if _is_prime(n):
        raise ValueError(
            f"{n} is prime; the construction succeeds there, so there is nothing to diagnose"
        )
    return n


def diagnose_composite(n: int) -> CompositeDiagnosis:
    """Run the construction at composite n with primality enforcement bypassed
    and report every invariant that breaks, with concrete witnesses."""
    n = check_composite(n)
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
    bases, flagged = [_float_basis(n, m) for m in range(n + 1)], 0
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
