"""An exact oracle that shares no code with the ring: sympy's algebraic numbers.

For p <= 5, `CyclotomicInt` products, sums and conjugates, and a sample of
exact bracket-state overlaps, are recomputed in the number field Q(zeta)
(zeta = exp(2 pi i/p), or i at p = 2) with sympy's own field arithmetic.  The
oracle reads only coefficients and scales; conjugation comes from sympy's
symbolic conjugate of the generator, not from an index map.
"""

import functools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from meanking.cyclotomic import CyclotomicInt, _ExactRing
from meanking.mub import EXACT, PrimeDim
from meanking.protocol import (
    BracketLabel,
    RetrodictionSetup,
    bracket_overlap_closed_form,
    bracket_state,
    measurement_label,
)

ORACLE_PRIMES = [2, 3, 5]


@functools.lru_cache(maxsize=None)
def field(p):
    """Q(zeta), zeta and its complex conjugate as field elements."""
    zeta = sympy.I if p == 2 else sympy.exp(2 * sympy.pi * sympy.I / p)
    K = sympy.QQ.algebraic_field(zeta)
    return K, K.from_sympy(zeta), K.from_sympy(sympy.conjugate(zeta))


def element(p, coeffs, conjugate=False):
    """sum_e c_e zeta^e (or its conjugate) in the field."""
    K, zeta, zeta_bar = field(p)
    root = zeta_bar if conjugate else zeta
    return sum((K.convert(int(c)) * root**e for e, c in enumerate(coeffs)), K.zero)


def rational(p, value):
    K, _, _ = field(p)
    value = Fraction(value)
    return K.convert(value.numerator) / K.convert(value.denominator)


@st.composite
def cyclotomic_pairs(draw):
    p = draw(st.sampled_from(ORACLE_PRIMES))
    coeffs = st.lists(st.integers(-20, 20), min_size=p, max_size=p)
    return p, CyclotomicInt(p, draw(coeffs)), CyclotomicInt(p, draw(coeffs))


@settings(max_examples=100, deadline=None)
@given(cyclotomic_pairs())
def test_cyclotomic_arithmetic_equals_the_number_field(case):
    p, a, b = case
    x, y = element(p, a.coeffs), element(p, b.coeffs)
    assert element(p, (a * b).coeffs) == x * y
    assert element(p, (a + b).coeffs) == x + y
    assert element(p, a.conjugate().coeffs) == element(p, a.coeffs, conjugate=True)


def overlap_in_field(p, bra, ket):
    """<bra|ket> of two Amplitude vectors whose entry scales pair up to even
    powers of 1/sqrt(p), summed in the field."""
    K, _, _ = field(p)
    total = K.zero
    for a, b in zip(bra, ket):
        scale = a.scale_pow + b.scale_pow
        assert scale % 2 == 0 or a.is_zero() or b.is_zero()
        term = element(p, a.value.coeffs, conjugate=True) * element(p, b.value.coeffs)
        total += term * rational(p, Fraction(1, p ** (scale // 2)))
    return total


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_sampled_bracket_overlaps_equal_the_number_field(p):
    setup = RetrodictionSetup(PrimeDim(p), EXACT)
    ring = _ExactRing(p)
    rng = random.Random(f"oracle:{p}")
    labels = [measurement_label(setup.dim, 1, 1), measurement_label(setup.dim, 2, 1)]
    labels += [BracketLabel(p, tuple(rng.randint(1, p) for _ in range(p + 1))) for _ in range(6)]
    states = {label: bracket_state(setup, label).amps for label in labels}
    for a in labels:
        for b in labels[:4]:
            oracle = overlap_in_field(p, states[a], states[b])
            assert oracle == rational(p, bracket_overlap_closed_form(a, b)), (a.slots, b.slots)
            kernel = ring.amps(ring.gram(ring.rows([states[a]]), ring.rows([states[b]]))[0])[0]
            assert kernel.scale_pow % 2 == 0
            scale = rational(p, Fraction(1, p ** (kernel.scale_pow // 2)))
            assert element(p, kernel.value.coeffs) * scale == oracle, (a.slots, b.slots)
