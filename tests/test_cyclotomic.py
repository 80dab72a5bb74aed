"""Exact root-of-unity arithmetic."""

import cmath
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from weylorbits.cyclotomic import Cyc, cyclotomic_poly


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_root_powers_cycle():
    z = Cyc.root(6, 1)
    acc = Cyc.from_rational(6, 1)
    for _ in range(6):
        acc = acc * z
    assert acc == Cyc.from_rational(6, 1)
    assert Cyc.root(6, 7) == z


def test_arithmetic_and_equality():
    # 1 + x + x^2 = 0 for the cube root of unity
    s = Cyc.from_rational(3, 1) + Cyc.root(3, 1) + Cyc.root(3, 2)
    assert s == Cyc.zero(3)
    assert s.is_rational() and s.as_rational() == 0
    # x + x^5 = 1 for the primitive 6th root
    t = Cyc.root(6, 1) + Cyc.root(6, 5)
    assert t.is_rational() and t.as_rational() == 1
    # scalar mixing
    u = Cyc.root(4, 1) * F(1, 2) + Cyc.root(4, 3) * F(1, 2)
    assert u == Cyc.zero(4)


def test_scalar_ops():
    z = Cyc.root(8, 2)
    assert z * 2 - z == z
    assert (z + 1) - 1 == z
    assert -z + z == Cyc.zero(8)


def test_conjugation():
    z = Cyc.root(5, 2)
    assert z.conj() == Cyc.root(5, 3)
    v = z + Cyc.root(5, 3)  # z^2 + z^3 is real
    assert v.conj() == v
    assert not v.is_rational()
    # norm z * conj(z) = 1 for a root of unity
    assert z * z.conj() == Cyc.from_rational(5, 1)


def test_lift():
    z3 = Cyc.root(3, 1)
    z6 = z3.lift(6)
    assert z6 == Cyc.root(6, 2)
    assert (z6 + z6.conj()).as_rational() == -1
    with pytest.raises(ValueError):
        z3.lift(7)


def test_rationality_detection():
    # sum over all primitive 5th roots = mu(5) = -1
    s = Cyc.zero(5)
    for k in range(1, 5):
        s = s + Cyc.root(5, k)
    assert s.is_rational() and s.as_rational() == -1
    assert not Cyc.root(5, 1).is_rational()
    with pytest.raises(ValueError):
        Cyc.root(5, 1).as_rational()


def test_to_complex():
    for m, k in [(3, 1), (8, 3), (12, 7)]:
        got = Cyc.root(m, k).to_complex()
        want = cmath.exp(2j * cmath.pi * k / m)
        assert abs(got - want) < 1e-12
    v = Cyc.root(7, 1) + Cyc.root(7, 6)
    assert abs(v.to_complex() - 2 * cmath.cos(2 * cmath.pi / 7)) < 1e-12


def test_mixed_order_rejected():
    with pytest.raises(ValueError):
        Cyc.root(3, 1) + Cyc.root(4, 1)


def test_hash_consistent_with_eq():
    a = Cyc.root(6, 1) + Cyc.root(6, 5)
    b = Cyc.from_rational(6, 1)
    assert a == b and hash(a) == hash(b)


MODULI = (1, 2, 3, 4, 5, 6, 8, 9, 12)
_coeff = st.one_of(st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def _cycs(draw, k):
    """``k`` elements of one Q(zeta_m), m drawn from MODULI."""
    m = draw(st.sampled_from(MODULI))
    return [Cyc(m, draw(st.lists(_coeff, min_size=m, max_size=m))) for _ in range(k)]


@settings(max_examples=100, deadline=None)
@given(_cycs(3))
def test_ring_laws(abc):
    a, b, c = abc
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=100, deadline=None)
@given(_cycs(2))
def test_conj_is_an_involutive_automorphism(ab):
    a, b = ab
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a
    norm = a * a.conj()
    assert norm.conj() == norm
    assert abs(norm.to_complex().imag) < 1e-9


@settings(max_examples=100, deadline=None)
@given(_cycs(1), st.integers(0, 11), st.integers(-3, 3))
def test_eq_and_hash_agree_on_reduced_value(cycs, shift, k):
    (a,) = cycs
    m = a.m
    # adding a multiple of the m-th cyclotomic polynomial keeps the value
    coeffs = list(a.coeffs)
    for i, c in enumerate(cyclotomic_poly(m)):
        coeffs[(i + shift) % m] += k * c
    b = Cyc(m, coeffs)
    assert a == b and hash(a) == hash(b)
    assert a.reduced() == b.reduced()
