"""Finite field, polynomial, and rational-function arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinfan.gf import Poly, RatFunc, _prime_power, check_q, gf, \
    polys_of_degree_at_most

FIELDS = [2, 3, 4, 5, 7, 8, 9]


def _is_prime_power(q):
    """True if q is a prime power that GF supports (q <= 16)."""
    try:
        _prime_power(q)
    except ValueError:
        return False
    return q <= 16


@pytest.mark.parametrize("q", FIELDS)
def test_field_axioms_exhaustive(q):
    F = gf(q)
    els = list(F.elements())
    assert len(els) == q
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    # associativity / distributivity on all triples for small q
    if q <= 5:
        for a in els:
            for b in els:
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
                for c in els:
                    assert F.mul(a, F.add(b, c)) == \
                        F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_add_neg_sub_tables_match_digitwise(q):
    F = gf(q)
    p, e = F.p, F.e

    def digits(n):
        return [n // p ** i % p for i in range(e)]

    def undigits(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    for a in range(q):
        da = digits(a)
        assert F.neg(a) == undigits([-x % p for x in da])
        for b in range(q):
            db = digits(b)
            assert F.add(a, b) == undigits([(x + y) % p for x, y in zip(da, db)])
            assert F.sub(a, b) == undigits([(x - y) % p for x, y in zip(da, db)])


def test_not_prime_power():
    assert not _is_prime_power(6)
    with pytest.raises(ValueError):
        gf(6)


@st.composite
def poly_pairs(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    F = gf(q)
    mk = lambda: Poly.make(F, draw(st.lists(
        st.integers(0, q - 1), min_size=0, max_size=6)))
    return F, mk(), mk()


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_poly_divmod_roundtrip(data):
    F, a, b = data
    if b.is_zero():
        return
    quot, rem = a.divmod(b)
    assert quot * b + rem == a
    assert rem.is_zero() or rem.degree < b.degree


@given(poly_pairs())
@settings(max_examples=150, deadline=None)
def test_poly_ring_laws(data):
    F, a, b = data
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * a == a * a + b * a
    assert a - a == Poly.zero(F)


def test_absolute_value():
    F = gf(3)
    assert Poly.zero(F).absolute_value() == 0
    assert Poly.one(F).absolute_value() == 1
    assert Poly.T(F).absolute_value() == 3
    assert (Poly.T(F) * Poly.T(F)).absolute_value() == 9


def test_polys_of_degree_at_most():
    F = gf(2)
    polys = list(polys_of_degree_at_most(F, 2))
    assert len(polys) == 8
    assert len({p.coeffs for p in polys}) == 8


@given(poly_pairs())
@settings(max_examples=100, deadline=None)
def test_ratfunc_field_laws(data):
    F, a, b = data
    ra, rb = RatFunc.of(a), RatFunc.of(b)
    assert ra + rb == rb + ra
    assert ra * rb == rb * ra
    if not rb.is_zero():
        assert (ra / rb) * rb == ra


def test_ratfunc_valuation():
    F = gf(2)
    T = Poly.T(F)
    f = RatFunc.make(T * T, T * T * T + Poly.one(F))
    assert f.valuation_at_poly(T) == 2
    assert f.absolute_value() == Fraction(1, 2)


def test_check_q_accepts_exactly_the_prime_powers():
    def brute(q):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        return any(p ** e == q for e in range(1, q.bit_length() + 1))
    for q in range(-2, 300):
        if q >= 2 and brute(q):
            check_q(q)
        else:
            with pytest.raises(ValueError):
                check_q(q)
    for q in (17, 25, 27, 32, 49, 121, 10007, 3 ** 40):
        check_q(q)
    assert not _is_prime_power(17)


def test_check_q_raises_on_every_call():
    # the prime-power factorization is memoized, its exceptions are not
    for q in (6, 1, 12):
        for _ in range(3):
            with pytest.raises(ValueError):
                check_q(q)
    for _ in range(2):
        check_q(8)
        assert _is_prime_power(8) and not _is_prime_power(6)


def test_is_prime_power_is_what_gf_builds():
    for q in range(-2, 300):
        try:
            F = gf(q)
        except ValueError:
            assert not _is_prime_power(q), q
        else:
            assert _is_prime_power(q), q
            assert F.p ** F.e == q
