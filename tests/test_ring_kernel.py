"""The integer-array kernel behind the exact checks, against independent oracles.

`_ExactRing` must agree with the one-object-per-value `Amplitude` arithmetic
pair by pair, its zero test with sympy's cyclotomic polynomials (which share
no code with either), and the Born weights of `RetrodictionSetup` with the
per-pair overlaps they replaced.
"""

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from meanking.cyclotomic import (
    Amplitude,
    CyclotomicInt,
    _ExactRing,
    _is_zero_array,
    exact_overlap,
)
from meanking.mub import EXACT, FLOAT, PrimeDim
from meanking.protocol import RetrodictionSetup

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


def test_over_range_operand_raises_overflow_error():
    ring = _ExactRing(3)
    big = ring.integers(np.full((2, 3), 2**31))
    with pytest.raises(OverflowError):
        ring.gram(big, big)
    with pytest.raises(OverflowError):
        ring.abs2(big)
    ring.gram(ring.integers(np.full((2, 3), 2**20)), ring.integers(np.full((2, 3), 2**20)))


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
    for m in range(p + 1):
        rows = setup.posts[m * p : (m + 1) * p]
        reference = [exact_overlap(row, setup.prepared).squared_modulus().as_fraction() for row in rows]
        assert setup.king_weights[m] == reference
        for k in range(1, p + 1):
            reference = [
                exact_overlap(state, setup.post(m, k)).squared_modulus().as_fraction()
                for state in setup.states
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
