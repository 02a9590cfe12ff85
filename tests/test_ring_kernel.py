"""The integer-array kernel behind the exact checks, against independent oracles.

`_ExactRing` must agree with the one-object-per-value `Amplitude` arithmetic
pair by pair, its zero test with sympy's cyclotomic polynomials (which share
no code with either), and the Born weights of `RetrodictionSetup` with the
per-pair overlaps they replaced.
"""

import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from meanking.cyclotomic import (
    Amplitude,
    CyclotomicInt,
    _ExactRing,
    _RingArray,
    _is_zero_array,
    exact_overlap,
)
from meanking.mub import EXACT, FLOAT, PrimeDim
from meanking.protocol import (
    RetrodictionSetup,
    maximally_entangled_state,
    measurement_basis,
    post_measurement_state,
)

KERNEL_PRIMES = [2, 3, 5, 7]


def amplitude(p, parity):
    # scales of one parity; Amplitude strips factors of p, which keeps it
    return st.tuples(
        st.lists(st.integers(-20, 20), min_size=p, max_size=p), st.integers(0, 2)
    ).map(lambda drawn: Amplitude(CyclotomicInt(p, drawn[0]), parity + 2 * drawn[1]))


@st.composite
def row_pairs(draw):
    """Two lists of Amplitude rows of one length; each row has its own scale
    parity, as the computational and the Fourier kets do."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    d = draw(st.integers(1, 4))

    def rows():
        out = []
        for _ in range(draw(st.integers(1, 3))):
            parity = draw(st.integers(0, 1))
            out.append([draw(amplitude(p, parity)) for _ in range(d)])
        return out

    return p, rows(), rows()


@settings(max_examples=200, deadline=None)
@given(row_pairs())
def test_gram_equals_exact_overlap(case):
    p, bras, kets = case
    ring = _ExactRing(p)
    gram = ring.gram(ring.rows(bras), ring.rows(kets))
    nonzero = ring.deviates(gram, 0)
    for i, bra in enumerate(bras):
        for k, ket in enumerate(kets):
            reference = exact_overlap(bra, ket)
            assert ring.actual(gram[i, k]) == reference.to_json()
            assert nonzero[i, k] == (not reference.is_zero())


@settings(max_examples=200, deadline=None)
@given(row_pairs())
def test_abs2_equals_squared_modulus(case):
    p, rows, _ = case
    ring = _ExactRing(p)
    sq = ring.abs2(ring.rows(rows))
    for i, row in enumerate(rows):
        for j, amp in enumerate(row):
            assert ring.actual(sq[i, j]) == amp.squared_modulus().to_json()


@st.composite
def entry_pairs(draw):
    """Two equal-shape lists of Amplitude rows, entries of one parity per position
    (sums need it), scales drawn apart so sums must lift one side."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    parities = [[draw(st.integers(0, 1)) for _ in range(d)] for _ in range(rows)]
    return p, *[[[draw(amplitude(p, parity)) for parity in row] for row in parities] for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(entry_pairs())
def test_entrywise_sum_difference_and_product_equal_amplitude(case):
    p, a, b = case
    ring = _ExactRing(p)
    ra, rb = ring.rows(a), ring.rows(b)
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        assert ring.amps((ra + rb)[i]) == tuple(x + y for x, y in zip(row_a, row_b))
        assert ring.amps((ra - rb)[i]) == tuple(x - y for x, y in zip(row_a, row_b))
        assert ring.amps(ring.mul(ra, rb)[i]) == tuple(x * y for x, y in zip(row_a, row_b))
        assert ring.amps(ring.over_sqrt_p(ra)[i]) == tuple(x * Amplitude(CyclotomicInt.one(p), 1) for x in row_a)


@settings(max_examples=200, deadline=None)
@given(row_pairs(), st.data())
def test_broadcast_product_and_array_phase_equal_amplitude(case, data):
    p, bras, kets = case
    ring = _ExactRing(p)
    # every bra row times every ket row, entry by entry, as the posts are built
    outer = ring.mul(ring.rows(bras)[:, None], ring.rows(kets)[None, :])
    exps = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=len(kets), max_size=len(kets))))
    phased = ring.phase(ring.rows(kets)[None, :], exps[:, None, None])  # [exponent, ket, entry]
    for i, bra in enumerate(bras):
        for k, ket in enumerate(kets):
            assert ring.amps(outer[i, k]) == tuple(x * y for x, y in zip(bra, ket))
    for n, e in enumerate(exps.tolist()):
        root = Amplitude(CyclotomicInt.root_power(p, e))
        for k, ket in enumerate(kets):
            assert ring.amps(phased[n, k]) == tuple(root * x for x in ket)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_PRIMES), st.data())
def test_add_at_equals_amplitude_sums_per_bin(p, data):
    # entries of one bin share a scale parity (sums need it) and differ in scale,
    # so each bin must lift to its own largest scale
    size = data.draw(st.integers(1, 4))
    parities = [data.draw(st.integers(0, 1)) for _ in range(size)]
    index = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=10))
    values = [data.draw(amplitude(p, parities[i])) for i in index]
    ring = _ExactRing(p)
    sums = ring.add_at(ring.rows(values), np.array(index), size)
    for i in range(size):
        expected = sum((v for v, j in zip(values, index) if j == i), Amplitude.zero(p))
        assert ring.amps(sums[i : i + 1]) == (expected,)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_PRIMES), st.integers(1, 4), st.sampled_from(["float64", "past"]), st.data())
def test_gram_is_exact_on_both_sides_of_the_float64_switch(p, d, side, data):
    # max|a| = max|b| = M puts the asserted bound 2 d N M^2 just below 2^53 (the
    # float64 BLAS product, exact), or at or just past it, where the sums could
    # round in float64 and the Gram refuses before any product
    n = _order(p)
    top = math.isqrt((2**53 - 1) // (2 * d * n)) + (side == "past")
    assert (2 * d * n * top * top < 2**53) == (side == "float64")
    free = p if p == 2 else p - 1  # the last coefficient stays 0, so the canonical form keeps M

    def rows():
        out = []
        for _ in range(data.draw(st.integers(1, 3))):
            coeffs = [data.draw(st.lists(st.integers(-top, top), min_size=free, max_size=free)) for _ in range(d)]
            out.append([Amplitude(CyclotomicInt(p, c + [0] * (p - free))) for c in coeffs])
        out[0][0] = Amplitude(CyclotomicInt(p, [top] + [0] * (p - 1)))
        return out

    bras, kets = rows(), rows()
    ring = _ExactRing(p)
    if side == "past":
        with pytest.raises(OverflowError):
            ring.gram(ring.rows(bras), ring.rows(kets))
        return
    gram = ring.gram(ring.rows(bras), ring.rows(kets))
    for i, bra in enumerate(bras):
        for k, ket in enumerate(kets):
            assert ring.actual(gram[i, k]) == exact_overlap(bra, ket).to_json()


def test_gram_refuses_a_bound_of_exactly_2_to_the_53():
    # only N = 4 (p = 2) can make 2 d N max|a| max|b| a power of two
    ring = _ExactRing(2)
    with pytest.raises(OverflowError):
        ring.gram(ring.integers([[2**25]]), ring.integers([[2**25]]))  # 2 * 1 * 4 * 2^50


def test_zero_at_odd_scale_matches_only_a_zero_want():
    # a zero is 0 at every scale, so no parity refusal applies to it
    ring = _ExactRing(3)
    zero = ring.mul(ring.rows([[Amplitude(CyclotomicInt.one(3), 1)]]), ring.integers([[0]]))
    assert not ring.deviates(zero, 0).any()
    assert ring.deviates(zero, 1).all()


def test_sum_across_scale_parities_is_refused():
    ring = _ExactRing(3)
    half = ring.rows([[Amplitude(CyclotomicInt.one(3), 1)]])
    with pytest.raises(ValueError):
        half + ring.rows([[Amplitude.one(3)]])


def _order(p):
    return 4 if p == 2 else p


@st.composite
def coefficient_vectors(draw):
    """Raw (not canonical) coefficients over the powers of zeta_N: random ones,
    and multiples of the cyclotomic polynomial reduced mod x^N - 1, which
    are zero."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = _order(p)
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    if draw(st.booleans()):
        x = sympy.symbols("x")
        phi = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        multiple = [0] * n
        for e, c in enumerate(coeffs):
            for f, g in enumerate(phi):
                multiple[(e + f) % n] += c * int(g)
        coeffs = multiple
    return p, coeffs


@settings(max_examples=200, deadline=None)
@given(coefficient_vectors())
def test_zero_test_equals_is_zero(case):
    p, coeffs = case
    if p == 2:
        reference = CyclotomicInt(2, [coeffs[0] - coeffs[2], coeffs[1] - coeffs[3]])
    else:
        reference = CyclotomicInt(p, coeffs)
    assert bool(_is_zero_array(p, np.array(coeffs, dtype=np.int64))) == reference.is_zero()


@settings(max_examples=200, deadline=None)
@given(coefficient_vectors())
def test_zero_test_agrees_with_sympy_cyclotomic_polynomial(case):
    p, coeffs = case
    n = _order(p)
    x = sympy.symbols("x")
    poly = sum(c * x**e for e, c in enumerate(coeffs))
    vanishes = sympy.rem(poly, sympy.cyclotomic_poly(n, x), x) == 0
    assert bool(_is_zero_array(p, np.array(coeffs, dtype=np.int64))) == vanishes


def deviates_by_difference(p, values, want, denom):
    """Reference: `_ExactRing.deviates` as it was before it read the zero test
    off the coefficients in place: the difference array, then its zero test."""
    t = np.where(_is_zero_array(p, values.c), 0, values.t)
    half = np.where(want != 0, t // 2, 0)
    diff = values.c * denom
    diff[..., 0] -= want * p**half
    return ~_is_zero_array(p, diff)


@st.composite
def deviation_cases(draw):
    """A value with a want and a denominator; half the time the value is the
    want over the denominator plus a drawn vector, which may be a zero."""
    p, coeffs = draw(coefficient_vectors())
    want, t, denom = draw(st.integers(-2, 2)), draw(st.sampled_from([0, 2, 4])), draw(st.sampled_from([1, p]))
    if draw(st.booleans()) and (denom == 1 or t >= 2):
        coeffs = [coeffs[0] + want * p ** (t // 2) // denom, *coeffs[1:]]
    return p, coeffs, want, t, denom


@settings(max_examples=300, deadline=None)
@given(deviation_cases())
def test_deviation_test_equals_the_zero_test_of_the_difference(case):
    p, coeffs, want, t, denom = case
    values = _RingArray(p, np.array([coeffs], dtype=np.int64), t)
    want = np.array([want])
    reference = deviates_by_difference(p, values, want, denom)
    assert _ExactRing(p).deviates(values, want, denom).tolist() == reference.tolist()


def test_over_range_operand_raises_overflow_error():
    ring = _ExactRing(3)
    big = ring.integers(np.full((2, 3), 2**31))
    with pytest.raises(OverflowError):
        ring.gram(big, big)
    with pytest.raises(OverflowError):
        ring.abs2(big)
    ring.gram(ring.integers(np.full((2, 3), 2**20)), ring.integers(np.full((2, 3), 2**20)))
    with pytest.raises(OverflowError):
        ring.mul(big, big)
    ring.mul(ring.integers(np.full((2, 3), 2**29)), ring.integers(np.full((2, 3), 2**29)))
    with pytest.raises(OverflowError):
        ring.integers(np.full(3, 2**62)) + ring.integers(np.full(3, 2**62))
    # lifting to a common scale multiplies by p^(shift/2) first
    deep = _RingArray(3, ring.integers(np.full(3, 2**60)).c, 0)
    with pytest.raises(OverflowError):
        deep + _RingArray(3, ring.integers(np.ones(3)).c, 4)


def test_nonzero_want_at_odd_scale_is_refused():
    ring = _ExactRing(3)
    ket = ring.rows([[Amplitude(CyclotomicInt.one(3), 1)] * 3])
    one = ring.rows([[Amplitude.one(3)] * 3])
    overlap = ring.gram(ket, one)  # 3 at scale 1: sqrt(3)
    assert ring.deviates(overlap, 0).all()
    with pytest.raises(ValueError):
        ring.deviates(overlap, 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_born_weights_equal_per_pair_overlaps(p):
    setup = RetrodictionSetup(PrimeDim(p), EXACT)
    prepared = maximally_entangled_state(setup).amps
    states = [state.amps for _, state in measurement_basis(setup)]
    for m in range(p + 1):
        rows = [post_measurement_state(setup, m, k).amps for k in range(1, p + 1)]
        reference = [exact_overlap(row, prepared).squared_modulus().as_fraction() for row in rows]
        assert setup.king_weights[m] == reference
        for k in range(1, p + 1):
            reference = [
                exact_overlap(state, post_measurement_state(setup, m, k).amps).squared_modulus().as_fraction()
                for state in states
            ]
            assert setup.outcome_weights[(m, k)] == reference


@pytest.mark.parametrize("p", [3, 17])
def test_float_born_weights_match_per_pair_vdot(p):
    # one product per table sums in another order than np.vdot per pair
    setup = RetrodictionSetup(PrimeDim(p), FLOAT)
    tol = 4 * np.finfo(float).eps
    for m in range(p + 1):
        reference = [abs(np.vdot(row, setup.prepared)) ** 2 for row in setup.posts[m * p : (m + 1) * p]]
        assert np.max(np.abs(setup.king_weights[m] - reference)) <= tol
        for k in range(1, p + 1):
            reference = [abs(np.vdot(state, setup.post(m, k))) ** 2 for state in setup.states]
            assert np.max(np.abs(setup.outcome_weights[(m, k)] - reference)) <= tol
