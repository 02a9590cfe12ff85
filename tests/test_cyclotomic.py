"""Exact ring arithmetic: canonical forms, root-of-unity sums, float bridge."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanking.cyclotomic import Amplitude, CyclotomicInt, exact_overlap

PRIMES = [2, 3, 5, 7, 11, 13]


def elements(p):
    return st.lists(
        st.integers(min_value=-50, max_value=50), min_size=p, max_size=p
    ).map(lambda coeffs: CyclotomicInt(p, coeffs))


ring_and_elements = st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(elements(p), elements(p), elements(p))
)


def test_root_power_sum_vanishes():
    # sum over one full period of q^e is zero
    for p in PRIMES:
        total = CyclotomicInt.zero(p)
        for e in range(p):
            total = total + CyclotomicInt.root_power(p, e)
        assert total.is_zero()


def test_periodic_delta_branches():
    # sum_{k=1..p} q^(r*k) vanishes for r not divisible by p and equals p otherwise
    for p in PRIMES:
        for r in range(1, p):
            total = CyclotomicInt.zero(p)
            for k in range(1, p + 1):
                total = total + CyclotomicInt.root_power(p, r * k)
            assert total.is_zero(), (p, r)
        total = CyclotomicInt.zero(p)
        for k in range(1, p + 1):
            total = total + CyclotomicInt.root_power(p, p * k)
        assert not total.is_zero()
        assert total.as_int() == p


def test_additive_identity():
    a = CyclotomicInt(5, [3, -1, 0, 2, 7])
    assert a + CyclotomicInt.zero(5) == a


def test_sum_of_conjugate_roots_p5():
    # q + q^4 evaluates to 2*cos(2*pi/5)
    a = CyclotomicInt.root_power(5, 1) + CyclotomicInt.root_power(5, 4)
    assert abs(a.to_complex() - 2 * math.cos(2 * math.pi / 5)) < 1e-12


def test_root_times_inverse_root():
    for p in PRIMES:
        q = CyclotomicInt.root_power(p, 1)
        q_inv = CyclotomicInt.root_power(p, p - 1)
        assert q * q_inv == CyclotomicInt.one(p)


def test_zero_annihilator():
    # the full root sum multiplies everything to zero
    for p in [3, 5, 7]:
        full = CyclotomicInt.zero(p)
        for e in range(p):
            full = full + CyclotomicInt.root_power(p, e)
        x = CyclotomicInt(p, list(range(1, p + 1)))
        assert (full * x).is_zero()
        assert (x * CyclotomicInt.zero(p)).is_zero()


def test_conjugate_of_root_power():
    for p in PRIMES:
        for e in range(p):
            conj = CyclotomicInt.root_power(p, e).conjugate()
            assert conj == CyclotomicInt.root_power(p, p - e)


def test_modulus_mismatch_rejected():
    a = CyclotomicInt.one(3)
    b = CyclotomicInt.one(5)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


@given(ring_and_elements)
@settings(max_examples=200)
def test_ring_axioms(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(ring_and_elements)
@settings(max_examples=200)
def test_conjugation_is_ring_homomorphism_and_involution(abc):
    a, b, _ = abc
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate() == a


def bounded_elements(p):
    return st.lists(
        st.integers(min_value=-3, max_value=3), min_size=p, max_size=p
    ).map(lambda coeffs: CyclotomicInt(p, coeffs))


bounded_pairs = st.sampled_from(PRIMES).flatmap(
    lambda p: st.tuples(bounded_elements(p), bounded_elements(p))
)


@given(bounded_pairs)
@settings(max_examples=200)
def test_float_bridge_consistency(ab):
    a, b = ab
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-12


@given(ring_and_elements)
@settings(max_examples=200)
def test_float_bridge_consistency_large_elements(abc):
    a, b, _ = abc
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-7 * max(1.0, abs(lhs))


@given(ring_and_elements)
@settings(max_examples=200)
def test_canonicalization_idempotent_and_equality_respecting(abc):
    a, _, _ = abc
    again = CyclotomicInt(a.p, a.coeffs)
    assert again.coeffs == a.coeffs
    if a.p != 2:
        shifted = CyclotomicInt(a.p, [c + 17 for c in a.coeffs])
        assert shifted == a


def test_canonical_zero_is_all_zeros():
    for p in PRIMES:
        z = CyclotomicInt(p, [4] * p) if p != 2 else CyclotomicInt(2, [0, 0])
        assert z.is_zero()
        assert z.coeffs == (0,) * p


@pytest.mark.parametrize("p", PRIMES)
def test_equal_values_hash_equal_and_are_immutable(p):
    # the same element as a shifted coefficient vector (odd p), the same amplitude as a p-rescaled copy
    v = CyclotomicInt.root_power(p, 1) + CyclotomicInt.integer(p, 3)
    shifted = CyclotomicInt(p, [c + 5 for c in v.coeffs]) if p != 2 else CyclotomicInt(2, list(v.coeffs))
    a, rescaled = Amplitude(v, 1), Amplitude(shifted * p, 3)
    assert shifted == v and hash(shifted) == hash(v) and len({v, shifted}) == 1
    assert rescaled == a and hash(rescaled) == hash(a) and len({a, rescaled}) == 1
    assert len({a, Amplitude(v, 3), Amplitude(v * 2, 1)}) == 3
    for obj, name in [(v, "p"), (v, "coeffs"), (a, "value"), (a, "scale_pow")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_gaussian_arithmetic():
    i = CyclotomicInt.imaginary_unit()
    assert i * i == CyclotomicInt.integer(2, -1)
    assert i.conjugate() == -i
    assert (i * i.conjugate()).as_int() == 1


class TestAmplitude:
    def test_unit(self):
        a = Amplitude.one(3)
        assert a.to_complex() == 1 + 0j

    def test_scale_semantics(self):
        for p in PRIMES:
            a = Amplitude(CyclotomicInt.one(p), 2)
            assert abs(a.to_complex() - 1 / p) < 1e-15
            assert a.as_fraction() == Fraction(1, p)

    def test_root_power_p3(self):
        a = Amplitude(CyclotomicInt.root_power(3, 1))
        expected = cmath.exp(2j * cmath.pi / 3)
        assert abs(a.to_complex() - expected) < 1e-12
        assert abs(a.to_complex() - complex(-0.5, 0.8660254037844386)) < 1e-12

    def test_rescaling_identity(self):
        for p in PRIMES:
            v = CyclotomicInt.root_power(p, 1) + CyclotomicInt.root_power(p, 2) * 3
            a = Amplitude(v, 1)
            b = Amplitude(v * p, 3)
            assert a == b

    def test_multiplication_adds_scales(self):
        a = Amplitude(CyclotomicInt.root_power(5, 2), 1)
        b = Amplitude(CyclotomicInt.root_power(5, 4), 3)
        prod = a * b
        assert prod == Amplitude(CyclotomicInt.root_power(5, 1), 4)

    def test_addition_aligns_scales(self):
        p = 3
        a = Amplitude(CyclotomicInt.one(p), 0)
        b = Amplitude(CyclotomicInt.one(p), 2)  # 1/3
        total = a + b
        assert total.as_fraction() == Fraction(4, 3)

    def test_addition_rejects_odd_parity_mismatch(self):
        a = Amplitude(CyclotomicInt.one(3), 0)
        b = Amplitude(CyclotomicInt.one(3), 1)
        with pytest.raises(ValueError):
            a + b

    def test_squared_modulus_of_root_is_one(self):
        for p in [3, 5, 7]:
            a = Amplitude(CyclotomicInt.root_power(p, 2), 1)
            assert a.squared_modulus().as_fraction() == Fraction(1, p)

    def test_json_round_trip(self):
        a = Amplitude(CyclotomicInt(5, [1, -2, 0, 3, 0]), 2)
        encoded = a.to_json()
        assert set(encoded) == {"scale_pow", "coeffs"}
        assert Amplitude.from_json(5, encoded) == a

    def test_zero_normalizes_scale(self):
        a = Amplitude(CyclotomicInt.zero(7), 5)
        assert a.scale_pow == 0
        assert a.is_zero()


def test_exact_overlap_of_orthogonal_vectors():
    p = 3
    one = Amplitude.one(p)
    zero = Amplitude.zero(p)
    e0 = [one, zero, zero]
    e1 = [zero, one, zero]
    assert exact_overlap(e0, e1).is_zero()
    assert exact_overlap(e0, e0).as_fraction() == 1
