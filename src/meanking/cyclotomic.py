"""Exact arithmetic over integer combinations of roots of unity.

For an odd prime p, elements are stored as length-p integer coefficient
vectors over the powers of q = exp(2*pi*i/p).  The single relation
1 + q + ... + q^(p-1) = 0 means two vectors describe the same element exactly
when they differ by a constant shift, so the canonical form subtracts the
last coefficient from all entries and equality becomes a plain tuple
comparison.

p = 2 is special: q = -1 generates only the plain integers, but the third
complementary basis of a two-level system lives in the Gaussian integers.
There the coefficient pair (a, b) means a + b*i, there is no shift relation,
and powers of q degenerate to signs.

Amplitudes carry an extra global factor p^(-t/2) as an integer exponent t,
kept outside the ring (sqrt(p) is not an element); squared magnitudes, the
only physically compared quantities, come back rational.

`CyclotomicInt` and `Amplitude` (one object per value) are the reference;
the families and the protocol states are built and checked as int64 numpy
arrays through `_ExactRing`, or as complex arrays through `_FloatRing` on the
float backend, and read back as Amplitudes only at the public accessors.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

EXACT = "exact"
FLOAT = "float"
FLOAT_ATOL = 1e-10  # the float backend's decision rule
# rows per block of every blocked product and check (`_blocks`): no full
# p^2 x p^2 table is formed at once
_GRAM_BLOCK_ROWS = 64


def _canonical(p: int, coeffs: Sequence[int]) -> tuple[int, ...]:
    if p == 2:
        return tuple(int(c) for c in coeffs)
    shift = coeffs[-1]
    if shift == 0:
        return tuple(int(c) for c in coeffs)
    return tuple(int(c) - shift for c in coeffs)


@dataclass(frozen=True, slots=True)
class CyclotomicInt:
    """An exact integer combination of p-th roots of unity (Gaussian integer for p=2)."""

    p: int
    coeffs: Sequence[int]  # stored as the canonical tuple

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"modulus must be at least 2, got {self.p}")
        if len(self.coeffs) != self.p:
            raise ValueError(f"need {self.p} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", _canonical(self.p, self.coeffs))

    @classmethod
    def zero(cls, p: int) -> "CyclotomicInt":
        return cls(p, [0] * p)

    @classmethod
    def one(cls, p: int) -> "CyclotomicInt":
        return cls.root_power(p, 0)

    @classmethod
    def root_power(cls, p: int, e: int) -> "CyclotomicInt":
        """q^e for q = exp(2*pi*i/p); for p=2 this is the sign (-1)^e."""
        if p == 2:
            return cls(2, [1 if e % 2 == 0 else -1, 0])
        coeffs = [0] * p
        coeffs[e % p] = 1
        return cls(p, coeffs)

    @classmethod
    def imaginary_unit(cls) -> "CyclotomicInt":
        """The Gaussian unit i; only meaningful in the p=2 ring."""
        return cls(2, [0, 1])

    @classmethod
    def integer(cls, p: int, n: int) -> "CyclotomicInt":
        coeffs = [0] * p
        coeffs[0] = n
        return cls(p, coeffs)

    def _check_same_ring(self, other: "CyclotomicInt") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_ring(other)
        return CyclotomicInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check_same_ring(other)
        return CyclotomicInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInt(self.p, [a * other for a in self.coeffs])
        self._check_same_ring(other)
        p = self.p
        if p == 2:
            a0, a1 = self.coeffs
            b0, b1 = other.coeffs
            return CyclotomicInt(2, [a0 * b0 - a1 * b1, a0 * b1 + a1 * b0])
        out = [0] * p
        for e1, c1 in enumerate(self.coeffs):
            if c1 == 0:
                continue
            for e2, c2 in enumerate(other.coeffs):
                if c2 == 0:
                    continue
                out[(e1 + e2) % p] += c1 * c2
        return CyclotomicInt(p, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CyclotomicInt":
        """Complex conjugation: index permutation e -> p-e for odd p, i -> -i for p=2."""
        p = self.p
        if p == 2:
            return CyclotomicInt(2, [self.coeffs[0], -self.coeffs[1]])
        return CyclotomicInt(p, [self.coeffs[(p - e) % p] for e in range(p)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def divisible_by_modulus(self) -> bool:
        return all(c % self.p == 0 for c in self.coeffs)

    def divide_by_modulus(self) -> "CyclotomicInt":
        if not self.divisible_by_modulus():
            raise ValueError("element is not divisible by the modulus")
        return CyclotomicInt(self.p, [c // self.p for c in self.coeffs])

    def as_int(self) -> int:
        """The value as a plain integer; raises if the element is not rational."""
        if self.p == 2:
            if self.coeffs[1] != 0:
                raise ValueError("element has an imaginary part")
            return self.coeffs[0]
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError("element is not a rational integer")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        p = self.p
        if p == 2:
            return complex(self.coeffs[0], self.coeffs[1])
        total = 0j
        for e, c in enumerate(self.coeffs):
            if c != 0:
                total += c * cmath.exp(2j * cmath.pi * e / p)
        return total


@dataclass(frozen=True, slots=True)
class Amplitude:
    """A CyclotomicInt together with a global scale factor p^(-scale_pow/2).

    The canonical form strips factors of p out of the value into the scale
    (value*p at scale t+2 equals value at scale t), so rescaled copies of the
    same amplitude compare equal.
    """

    value: CyclotomicInt
    scale_pow: int = 0

    def __post_init__(self):
        value, scale_pow = self.value, self.scale_pow
        if scale_pow < 0:
            raise ValueError("scale_pow must be non-negative")
        if value.is_zero():
            value, scale_pow = CyclotomicInt.zero(value.p), 0
        else:
            while scale_pow >= 2 and value.divisible_by_modulus():
                value = value.divide_by_modulus()
                scale_pow -= 2
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "scale_pow", scale_pow)

    @property
    def p(self) -> int:
        return self.value.p

    @classmethod
    def zero(cls, p: int) -> "Amplitude":
        return cls(CyclotomicInt.zero(p))

    @classmethod
    def one(cls, p: int) -> "Amplitude":
        return cls(CyclotomicInt.one(p))

    def __mul__(self, other):
        if isinstance(other, CyclotomicInt):
            other = Amplitude(other)
        return Amplitude(self.value * other.value, self.scale_pow + other.scale_pow)

    def __add__(self, other: "Amplitude") -> "Amplitude":
        if self.value.is_zero():
            return other
        if other.value.is_zero():
            return self
        t1, t2 = self.scale_pow, other.scale_pow
        if (t2 - t1) % 2 != 0:
            raise ValueError("cannot add amplitudes of incompatible scale parity")
        t = max(t1, t2)
        v1 = self.value * self.p ** ((t - t1) // 2)
        v2 = other.value * self.p ** ((t - t2) // 2)
        return Amplitude(v1 + v2, t)

    def __sub__(self, other: "Amplitude") -> "Amplitude":
        return self + (-other)

    def __neg__(self) -> "Amplitude":
        return Amplitude(-self.value, self.scale_pow)

    def conjugate(self) -> "Amplitude":
        return Amplitude(self.value.conjugate(), self.scale_pow)

    def squared_modulus(self) -> "Amplitude":
        return self * self.conjugate()

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def as_fraction(self) -> Fraction:
        """The value as an exact rational; raises if it is not one."""
        n = self.value.as_int()
        if n == 0:
            return Fraction(0)
        if self.scale_pow % 2 != 0:
            raise ValueError("amplitude carries an odd power of 1/sqrt(p)")
        return Fraction(n, self.p ** (self.scale_pow // 2))

    def to_complex(self) -> complex:
        return self.value.to_complex() * self.p ** (-self.scale_pow / 2)

    def to_json(self) -> dict:
        return {"scale_pow": self.scale_pow, "coeffs": list(self.value.coeffs)}

    @classmethod
    def from_json(cls, p: int, obj: dict) -> "Amplitude":
        return cls(CyclotomicInt(p, obj["coeffs"]), obj["scale_pow"])


def exact_overlap(bra, ket):
    """Inner product <bra|ket> = sum_j conj(bra_j) * ket_j of amplitude vectors, summed
    entry by entry (the reference); of two 2-D `_RingArray`s, the Gram matrix
    <bra_i|ket_k> of their rows, by the integer-array kernel below."""
    if isinstance(bra, _RingArray):
        return _gram(bra, *_operand(ket))
    if len(bra) != len(ket):
        raise ValueError("vector length mismatch")
    total = Amplitude.zero(bra[0].p)
    for a, b in zip(bra, ket):
        if a.is_zero() or b.is_zero():
            continue
        total = total + a.conjugate() * b
    return total


# --- the integer-array kernel: p^(-t/2) sum_e c_e zeta_N^e, N = p for odd p
# and N = 4 for p = 2 (zeta_4 = i gives the Gaussian integers).  The value is
# zero exactly when the cyclotomic polynomial divides sum_e c_e x^e: when all
# c_e are equal for odd p, when c_0 = c_2 and c_1 = c_3 for N = 4.


def _check_int64(bound: int) -> None:
    if bound >= 2**63:
        raise OverflowError(f"ring arithmetic would reach {bound}, past the int64 range")


def _absmax(c) -> int:
    return max(int(c.max(initial=0)), -int(c.min(initial=0)))  # no |c| copy


def _canonicalize(p: int, c: np.ndarray) -> np.ndarray:
    """In place: the last coefficient zero for odd p, c_2 = c_3 = 0 for N = 4."""
    if p == 2:
        c[..., :2] -= c[..., 2:]
        c[..., 2:] = 0
    else:
        c -= c[..., -1:].copy()
    return c


def _is_zero_array(p: int, c: np.ndarray) -> np.ndarray:
    if p == 2:
        return (c[..., 0] == c[..., 2]) & (c[..., 1] == c[..., 3])
    return (c == c[..., :1]).all(axis=-1)


class _RingArray:
    """Ring values: int64 coefficients `c` on a trailing axis of N, a scale `t` per
    entry.  Indexing, reshapes and axis swaps act on the entry axes of both."""

    __slots__ = ("p", "c", "t")

    def __init__(self, p: int, c: np.ndarray, t):
        self.p, self.c, self.t = p, c, np.broadcast_to(t, c.shape[:-1])

    def __len__(self) -> int:
        return len(self.t)

    shape = property(lambda self: self.t.shape)  # of the entries

    def __getitem__(self, index) -> "_RingArray":
        return _RingArray(self.p, self.c[index], self.t[index])

    def reshape(self, *shape) -> "_RingArray":
        return _RingArray(self.p, self.c.reshape(*shape, self.c.shape[-1]), self.t.reshape(shape))

    def swapaxes(self, a: int, b: int) -> "_RingArray":
        a, b = a % self.t.ndim, b % self.t.ndim
        return _RingArray(self.p, self.c.swapaxes(a, b), self.t.swapaxes(a, b))

    def __setitem__(self, index, value: "_RingArray") -> None:
        """Write values into an array from `_ExactRing.empty_like`, whose scales are writable."""
        self.c[index], self.t[index] = value.c, value.t

    def conj(self) -> "_RingArray":
        n = self.c.shape[-1]  # zeta^e -> zeta^(-e) reverses the coefficient index
        return _RingArray(self.p, self.c[..., -np.arange(n) % n], self.t)

    def __add__(self, other: "_RingArray") -> "_RingArray":
        """The entrywise sum (broadcasting), each entry at the larger of its two
        scales; bounded by max|a| + max|b| after the lift."""
        top = np.maximum(_scales(self), _scales(other))
        a, b = _lifted(self, top), _lifted(other, top)
        _check_int64(_absmax(a) + _absmax(b))
        return _RingArray(self.p, a + b, top)

    def __sub__(self, other: "_RingArray") -> "_RingArray":
        return self + _RingArray(self.p, -other.c, other.t)


def _scales(a: _RingArray) -> np.ndarray:
    # the scale of each nonzero entry; a zero is 0 at every scale
    return np.where(_is_zero_array(a.p, a.c), 0, a.t)


def _lifted(a: _RingArray, top, in_place: bool = False) -> np.ndarray:
    """a's coefficients at the scales `top` (broadcast against its entries): each
    nonzero entry times p^((top - t)/2), which must be a whole power; written
    over a's own coefficients when `in_place`."""
    shift = np.where(_is_zero_array(a.p, a.c), 0, top - a.t)
    if (shift % 2).any():
        raise ValueError("entries mix odd and even powers of 1/sqrt(p)")
    if not shift.any():
        return a.c
    _check_int64(_absmax(a.c) * a.p ** int(shift.max() // 2))
    return np.multiply(a.c, (a.p ** (shift // 2))[..., None], out=a.c if in_place else None)


def _aligned(a: _RingArray):
    """Coefficients of a 2-D array with each row at its largest scale, and that scale."""
    top = _scales(a).max(axis=1)
    return _lifted(a, top[:, None]), top


def _operand(b: _RingArray):
    """The second operand of `_gram`, prepared once for every block of rows taken
    against it: b's rows at their largest scales in canonical form, whose zero
    trailing coefficients (the last for odd p, the last two for N = 4) are left
    out, cast to float64 and flattened; their scales; and the largest coefficient."""
    cb, tb = _aligned(b)
    width = 2 if b.p == 2 else cb.shape[-1] - 1
    flat = np.subtract(cb[..., :width], cb[..., width:], dtype=np.float64)
    return flat.reshape(len(cb), -1), tb, _absmax(flat)


def _gram(a: _RingArray, flat_b: np.ndarray, tb: np.ndarray, max_b: int) -> _RingArray:
    """<a_i|b_k> for the rows of a 2-D array a and of b, given as `_operand(b)`,
    as float64 BLAS products: under the bound 2 d N max|a| max|b| < 2^53 every
    partial sum is an integer that float64 holds exactly, as in FFLAS-FFPACK."""
    ca, ta = _aligned(a)
    rows_a, d, n = ca.shape
    width = flat_b.shape[1] // d
    bound = 2 * d * n * _absmax(ca) * max_b
    if bound >= 2**53:
        raise OverflowError(f"a Gram product would reach {bound}, past the integers float64 holds exactly")
    # <a|b>_E = sum_{j,f} a[j, (f - E) mod N] b[j, f] over b's first `width`
    # coefficients: a matmul per E with a's coefficient axis rolled by E, so the
    # first operand is the one rolled, into one float64 buffer
    out = np.empty((rows_a, len(flat_b), n), dtype=np.int64)
    rolled = np.empty((rows_a, d, width))
    for e in range(n):
        head = min(e, width)
        rolled[..., :head], rolled[..., head:] = ca[..., n - e : n - e + head], ca[..., : width - head]
        out[..., e] = rolled.reshape(rows_a, d * width) @ flat_b.T
    del rolled  # freed before the scales are summed
    return _RingArray(a.p, _canonicalize(a.p, out), ta[:, None] + tb)


class _ExactRing:
    """The protocol's construction and the checks' arithmetic on `_RingArray`s,
    deciding by a literal ring zero.  Each operation's bound (int64, or 2^53 for
    the Gram's float64 products) is checked first; a product's is doubled for
    the subtraction that then canonicalises it."""

    def __init__(self, p: int):
        self.p, self.n = p, 4 if p == 2 else p

    def rows(self, nested) -> _RingArray:
        """Nested sequences of Amplitudes as one array of the same shape."""
        amps = np.array(nested, dtype=object)
        c = np.zeros((amps.size, self.n), dtype=np.int64)
        c[:, : self.p] = [amp.value.coeffs for amp in amps.flat]
        t = np.reshape([amp.scale_pow for amp in amps.flat], amps.shape)
        return _RingArray(self.p, c.reshape(*amps.shape, self.n), t)

    def integers(self, values) -> _RingArray:
        values = np.asarray(values, dtype=np.int64)
        c = np.zeros((*values.shape, self.n), dtype=np.int64)
        c[..., 0] = values
        return _RingArray(self.p, c, 0)

    def concat(self, items, axis: int = 0) -> _RingArray:
        c, t = np.concatenate([a.c for a in items], axis), np.concatenate([a.t for a in items], axis)
        return _RingArray(self.p, c, t)

    def empty_like(self, block: _RingArray, rows: int) -> _RingArray:
        """An array of `rows` rows shaped like `block`'s, to be written a block at a time."""
        out = _RingArray(self.p, np.empty((rows, *block.c.shape[1:]), dtype=np.int64), 0)
        out.t = np.empty(out.t.shape, dtype=np.int64)  # writable, unlike a broadcast scale
        return out

    gram = staticmethod(lambda a, b: exact_overlap(a, b))  # the public name, looked up per call
    real = staticmethod(lambda rows: rows)  # a check's rows as they are: `_screened` walks it once
    screen = property(lambda self: self)

    @staticmethod
    def gram_against(b: _RingArray):
        """a, start -> the Gram of a's rows against b's rows from `start` on, with
        b prepared (`_operand`) once for every block of a."""
        flat, tb, max_b = _operand(b)
        return lambda a, start=0: _gram(a, flat[start:], tb[start:], max_b)

    def add_at(self, values: _RingArray, index, size: int) -> _RingArray:
        """The sums of a 1-D array's entries grouped by `index` into `size` bins,
        each bin at the largest scale of its entries; bounded by the largest
        bin's count times max|c| after the lift."""
        top = np.zeros(size, dtype=np.int64)
        np.maximum.at(top, index, _scales(values))
        c = _lifted(values, top[index])
        _check_int64(2 * np.bincount(index, minlength=size).max(initial=0) * _absmax(c))
        out = np.zeros((size, self.n), dtype=np.int64)
        np.add.at(out, index, c)
        return _RingArray(self.p, _canonicalize(self.p, out), top)

    def gathered_sums(self, blocks, index, less: _RingArray) -> _RingArray:
        """p^{-1/2} sum_m basis_m[index[:, m]] - less for each row of a 2-D index
        table, the p-row bases given in m order as `blocks` of whole bases, each
        read once (`_bases`): one running int64 sum, written a block of output
        rows at a time, each term gathered into one buffer and lifted there.  A
        row is lifted when a term of a larger scale joins it (`less`, over
        sqrt(p), the last), so that it ends at one scale, the largest its terms
        need.  Bounded, as each term joins, by the sum of the terms' largest
        coefficients lifted by at most that scale."""
        p, top = self.p, np.zeros(len(index), dtype=np.int64)  # each output row's scale so far
        out = np.zeros((len(index), *less.c.shape), dtype=np.int64)
        term = np.empty((min(len(index), _GRAM_BLOCK_ROWS), *less.c.shape), dtype=np.int64)
        peaks = []

        def add(rows, columns):  # rows[columns[i]] into output row i
            scales = _scales(rows).max(axis=1)
            peaks.append(_absmax(rows.c))
            _check_int64(sum(peaks) * p ** int(max(top.max(), scales.max()) // 2))
            for block in _blocks(len(index)):
                sums, column, was = out[block], columns[block], top[block]
                lift = np.maximum(was, scales[column])
                if (lift > was).any():
                    _lifted(_RingArray(p, sums, was[:, None]), lift[:, None], in_place=True)
                # into `out`, mode "raise" copies through a buffer; "wrap" reads the
                # same row for every index "raise" takes, -len..len-1
                np.take(rows.c, column, axis=0, out=term[: len(column)], mode="wrap")
                sums += _lifted(_RingArray(p, term[: len(column)], rows.t[column]), lift[:, None], in_place=True)
                top[block] = lift

        for m, rows in _bases(p, blocks):
            add(rows, index[:, m])
            del rows  # a view of its block: released before the next block is formed
        top += 1  # the sum over sqrt(p)
        add(_RingArray(p, -less.c, less.t)[None], np.zeros(len(index), dtype=int))
        return _RingArray(p, out, top[:, None])

    def mul(self, a: _RingArray, b: _RingArray) -> _RingArray:
        """a * b entry by entry (broadcasting): the cyclic convolution of the
        coefficients, N terms of at most max|a| max|b| each."""
        _check_int64(2 * self.n * _absmax(a.c) * _absmax(b.c))
        out = 0
        for f in range(self.n):
            out = out + a.c[..., f : f + 1] * np.roll(b.c, f, axis=-1)
        return _RingArray(self.p, _canonicalize(self.p, out), a.t + b.t)

    def abs2(self, g: _RingArray) -> _RingArray:
        """|g|^2 entry by entry: coefficient E of conj(g) g is sum_h c_h c_(h+E),
        indices mod N, which is also coefficient N - E; so half of them are
        summed, each without a temporary.  N terms of at most max|c|^2 each."""
        c, n = g.c, self.n
        _check_int64(2 * n * _absmax(c) ** 2)
        out = np.empty_like(c)
        for e in range(n // 2 + 1):
            out[..., e] = np.einsum("...h,...h->...", c[..., : n - e], c[..., e:])
            out[..., e] += np.einsum("...h,...h->...", c[..., n - e :], c[..., :e])
            out[..., -e] = out[..., e]
        return _RingArray(self.p, _canonicalize(self.p, out), 2 * g.t)

    def phase(self, a: _RingArray, e) -> _RingArray:
        """q^e a for the p-th root of unity q (zeta_4^2 = -1 at p = 2); an array
        of exponents broadcasts against a's entries."""
        shape = np.broadcast_shapes(np.shape(e), a.t.shape) + (self.n,)
        index = (np.arange(self.n) - np.multiply(e, self.n // self.p)[..., None]) % self.n
        c = np.take_along_axis(np.broadcast_to(a.c, shape), np.broadcast_to(index, shape), axis=-1)
        return _RingArray(self.p, c, a.t)

    def over_sqrt_p(self, a: _RingArray) -> _RingArray:
        return _RingArray(self.p, a.c, a.t + 1)

    def deviates(self, values: _RingArray, want, denom: int = 1) -> np.ndarray:
        """Where c * denom - want * p^(t/2) is not the literal ring zero; a zero
        value is taken at t = 0, since it is 0 at every scale."""
        t = _scales(values)
        want = np.broadcast_to(want, t.shape)
        if (t[want != 0] % 2).any():
            raise ValueError("a nonzero want needs an even power of 1/sqrt(p)")
        half = np.where(want != 0, t // 2, 0)
        _check_int64(_absmax(values.c) * denom + _absmax(want) * self.p ** int(half.max(initial=0)))
        # _is_zero_array's test of c * denom less want * p^half in the constant
        # coefficient, read off c without a copy: as denom > 0, coefficients
        # e, f >= 1 of c * denom are equal exactly where those of c are
        c = values.c
        first = c[..., 0] * denom - want * self.p**half
        if self.p == 2:
            return (first != c[..., 2] * denom) | (c[..., 1] != c[..., 3])
        return (first != c[..., 1] * denom) | (c[..., 1:] != c[..., 1:2]).any(axis=-1)

    def amps(self, row: _RingArray) -> tuple:
        """A 1-D array as the reference Amplitudes, one per entry."""
        c = row.c[:, :2] - row.c[:, 2:] if self.p == 2 else row.c
        return tuple(Amplitude(CyclotomicInt(self.p, x), t) for x, t in zip(c.tolist(), row.t.tolist()))

    def actual(self, value: _RingArray) -> dict:
        """One entry in the JSON encoding of the reference Amplitude."""
        return self.amps(value[None])[0].to_json()

    def _rationals(self, values: _RingArray):
        """Rows of squared moduli x / p^h as (x lifted to its row's largest h, top; top), a zero
        entry 0 at any scale.  Bounded by the row length times max|x| p^top."""
        c, t = _canonicalize(self.p, values.c.copy()), _scales(values)
        if c[..., 1:].any() or (t % 2).any():
            raise ValueError("a Born weight is not rational")
        x, h = c[..., 0], t // 2
        top = h.max(axis=-1, keepdims=True)
        _check_int64(x.shape[-1] * _absmax(x) * self.p ** int(top.max(initial=0)))
        return x * self.p ** (top - h), top

    def weights(self, values: _RingArray) -> list:
        """A 2-D array of squared moduli as rows of Fractions."""
        x, top = self._rationals(values)
        return [[Fraction(n, self.p**d) for n in row] for row, d in zip(x.tolist(), top[:, 0].tolist())]

    def cdfs(self, values: _RingArray) -> np.ndarray:
        """Rows of squared moduli as int64 running sums over their least common denominator:
        the lifted numerators over their gcd with p^top, totals below 2^63 by `_rationals`."""
        x, top = self._rationals(values)
        if not x.any(axis=-1).all():
            raise ValueError("a row of Born weights is zero")
        gcd = np.gcd(np.gcd.reduce(x, axis=-1, keepdims=True), self.p**top)
        return np.cumsum(x // gcd, axis=-1)


def _conj(a: np.ndarray) -> np.ndarray:
    return a.conj() if np.iscomplexobj(a) else a  # conj copies even a real array


class _FloatRing:
    """`_ExactRing`'s operations on complex numpy arrays, deciding by `atol`:
    FLOAT_ATOL, or a `_HermitianRing`'s narrower tolerance.  A NaN deviates."""

    atol = FLOAT_ATOL

    def __init__(self, p: int):
        self.p = p

    rows = integers = staticmethod(lambda nested: np.asarray(nested, dtype=complex))
    concat = staticmethod(np.concatenate)
    empty_like = staticmethod(lambda block, rows: np.empty((rows, *block.shape[1:]), dtype=block.dtype))
    gram = staticmethod(lambda a, b: _conj(a) @ b.T)
    gram_against = staticmethod(lambda b: lambda a, start=0: _conj(a) @ b[start:].T)
    mul = staticmethod(np.multiply)
    abs2 = staticmethod(lambda g: np.abs(g) ** 2)
    actual = staticmethod(float)
    amps = weights = real = staticmethod(lambda values: values)
    cdfs = staticmethod(lambda values: np.cumsum(values, axis=-1))  # rows bisect as they are
    screen = property(lambda self: _HermitianRing(self.p))

    def phase(self, a: np.ndarray, e: int) -> np.ndarray:
        return np.exp(2j * np.pi * e / self.p) * a

    def gathered_sums(self, blocks, index, less: np.ndarray) -> np.ndarray:
        out = np.empty((len(index), *less.shape), dtype=less.dtype)
        term = np.empty((min(len(index), _GRAM_BLOCK_ROWS), *less.shape), dtype=less.dtype)
        for m, rows in _bases(self.p, blocks):
            for block in _blocks(len(index)):
                column, sums = index[block, m], out[block]
                if m:  # mode "wrap" as in `_ExactRing.gathered_sums`
                    sums += np.take(rows, column, axis=0, out=term[: len(column)], mode="wrap")
                else:
                    np.take(rows, column, axis=0, out=sums, mode="wrap")
            del rows  # a view of its block: released before the next block is formed
        out /= np.sqrt(self.p)
        out -= less
        return out

    @staticmethod
    def add_at(values: np.ndarray, index, size: int) -> np.ndarray:
        return np.bincount(index, values.real, size) + 1j * np.bincount(index, values.imag, size)

    def over_sqrt_p(self, a: np.ndarray) -> np.ndarray:
        return a / np.sqrt(self.p)

    def deviates(self, values: np.ndarray, want, denom: int = 1) -> np.ndarray:
        return ~(np.abs(values - np.asarray(want) / denom) <= self.atol)


class _HermitianRing(_FloatRing):
    """The float ring on real Hermitian coordinates: `real` takes each row, a
    p x p matrix S, to p^2 reals, its generalized Bloch vector (Bertlmann and
    Krammer, J. Phys. A 41, 235303, 2008): Re S_ij on and above the diagonal
    and Im S_ij below it, those off the diagonal times sqrt(2).  For Hermitian
    S and S' tr(S S') is their dot product, so a Gram of such rows is a
    float64 product, a quarter of the complex one's flops.

    A row is taken when it is Hermitian within eps = FLOAT_ATOL / (64 p),
    every |Re S_ij - Re S_ji| and |Im S_ij + Im S_ji| at most eps, and of norm
    at most 2; any other row's coordinates are NaN, which deviates from every
    want.  A taken row is within eps p of the Hermitian matrix its
    coordinates describe, which moves a Gram entry of rows of norm at most 2
    by at most eps p (4 + eps p); rounding in either product adds at most
    8 p^2 u (2 + eps p)^2, u = 2^-53, to a bound `cost`.  An entry within
    `atol` = FLOAT_ATOL / 2 - 2 cost of its want is then within FLOAT_ATOL of
    it on the complex rows: for a Gram of rows, a Gram of columns (the
    unitary change to the coordinates at most doubles an entry's deviation)
    and a squared modulus of at most 1/2 alike.  The ring is a screen:
    `_screened` retakes a check on the complex rows at any hit."""

    def __init__(self, p: int):
        eps_p = FLOAT_ATOL / 64
        cost = eps_p * (4 + eps_p) + 8 * p * p * 2.0**-53 * (2 + eps_p) ** 2
        self.p, self.atol, self.eps = p, FLOAT_ATOL / 2 - 2 * cost, eps_p / p
        # float64 positions in a row's view: the coordinates' parts, Re S_ij on
        # and above the diagonal and Im S_ij below it, and the parts across the
        # diagonal that must match them (Im negated)
        i, j = (x.ravel() for x in np.indices((p, p)))
        above = i <= j
        self._take, self._mirror = 2 * (i * p + j) + ~above, 2 * (j * p + i) + ~above
        self._sign, self._weight = np.where(above, 1.0, -1.0), np.where(i == j, 1, np.sqrt(2))

    def real(self, rows: np.ndarray) -> np.ndarray:
        """The coordinates of 2-D complex rows of p^2 entries, written a block of
        rows at a time from the rows' float64 view."""
        p, out = self.p, np.empty((len(rows), self.p**2))
        for block in _blocks(len(rows)):
            parts, x = rows[block].view(np.float64), out[block]
            taken, residue = np.take(parts, self._take, axis=1), np.take(parts, self._mirror, axis=1)
            residue *= self._sign
            residue -= taken
            diagonal = parts[:, 1 :: 2 * p + 2]  # Im S_ii, every (p+1)-th entry's
            residue = np.maximum(np.abs(residue).max(axis=1), 2 * np.abs(diagonal).max(axis=1))
            np.multiply(taken, self._weight, out=x)
            x[~((residue <= self.eps) & (np.einsum("ij,ij->i", x, x) <= 4))] = np.nan
        return out


def _blocks(n: int, per: int = 1):
    """Slices of 0..n-1 in consecutive blocks of at most _GRAM_BLOCK_ROWS rows,
    counting `per` rows per item (one item at least), made as they are read."""
    step = max(1, _GRAM_BLOCK_ROWS // per)
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def _bases(p: int, blocks):
    """(m, rows of basis m) from `blocks` of whole p-row bases in m order, each
    block let go once its last basis is read: a reader that drops each basis
    before the next holds no block while the next is formed."""
    m = 0
    for block in blocks:
        for start in range(0, len(block), p):
            yield m, block[start : start + p]
            m += 1
        del block  # released before the next block is formed


def _gram_blocks(ring, rows):
    """The Gram matrix of a 2-D array's rows against themselves, a block of rows
    at a time, each against the rows from the block's first row on (the blocks
    on and right of the diagonal).  The rows are prepared once."""
    against = ring.gram_against(rows)
    for block in _blocks(len(rows)):
        yield against(rows[block], block.start)


def _pair_overlaps(ring, a, b):
    """<a_v|b_v> for each pair of rows of two 2-D arrays, summed from their entrywise products."""
    rows, width = a.shape
    return ring.add_at(ring.mul(a.conj(), b).reshape(-1), np.arange(rows).repeat(width), rows)


def _hermitian_deviations(ring, blocks, want, denom: int = 1) -> list[tuple]:
    """(i, j, entry) in row-major order wherever entry (i, j) of a Hermitian table
    is not want(i, j) / denom, the table given as `blocks` of consecutive rows,
    each from its own first row to its last column: each pair once.  A deviation
    right of its block is mirrored as conj(entry): |conj z - d| = |z - d| for a real symmetric want."""
    found, stop = [], 0
    for block in blocks:
        start, stop = stop, stop + len(block)
        rows, cols = np.arange(start, stop)[:, None], np.arange(start, start + block.shape[1])
        deviates = ring.deviates(block, want(rows, cols), denom)
        if deviates.any():  # most blocks have no hit to locate
            hits = np.argwhere(deviates)
            entries = block[hits[:, 0], hits[:, 1]]  # a copy: no view keeps the block alive
            for v, (i, j) in enumerate(hits.tolist()):
                found.append((start + i, start + j, entries[v]))
                if start + j >= stop:
                    found.append((start + j, start + i, entries[v].conj()))
        del block  # released before the next block is formed
    return sorted(found, key=lambda hit: hit[:2])


def _where(table: np.ndarray) -> list:
    """The indices of a bool table's set entries in row-major order, as lists;
    a table with none set is not scanned a second time."""
    return np.argwhere(table).tolist() if table.any() else []


def _screened(ring, walk) -> list:
    """walk(ring), a check's list of deviations, its rows taken through
    `ring.real`: on the float ring first walked on the rows' real Hermitian
    coordinates (`_HermitianRing`), and on the complex rows only when that
    walk has a hit, so every list is the complex walk's; once on the exact ring."""
    screen = ring.screen
    return walk(ring) if screen is ring or walk(screen) else []


def _ring(backend: str, p: int):
    """The arithmetic the checks are written against: exact ring zero or FLOAT_ATOL."""
    return _ExactRing(p) if backend == EXACT else _FloatRing(p)
