"""Finite field, polynomial, and rational-function arithmetic."""

import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinfan.gf import GF, _MODULI, Poly, _prime_power, check_q, gf
from fqt import RatFunc

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
    # every table against the digit-wise definition, the product included:
    # digit vectors multiplied as polynomials over F_p, reduced modulo the
    # defining polynomial (x^e = -sum mod[j] x^j)
    F = gf(q)
    p, e = F.p, F.e
    mod = _MODULI.get((p, e))

    def digits(n):
        return [n // p ** i % p for i in range(e)]

    def undigits(ds):
        return sum(d * p ** i for i, d in enumerate(ds))

    def times(a, b):
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] += x * y
        for i in range(2 * e - 2, e - 1, -1):
            for j in range(e):
                prod[i - e + j] -= prod[i] * mod[j]
        return undigits([c % p for c in prod[:e]])

    for a in range(q):
        da = digits(a)
        assert F.neg(a) == undigits([-x % p for x in da])
        for b in range(q):
            db = digits(b)
            assert F.add(a, b) == undigits([(x + y) % p for x, y in zip(da, db)])
            assert F.sub(a, b) == undigits([(x - y) % p for x, y in zip(da, db)])
            assert F.mul(a, b) == times(a, b)
            if b:
                assert times(F.div(a, b), b) == a
        if a:
            assert times(a, F.inv(a)) == 1
            power = 1  # a^n by repeated products, n = 0 .. 2q - 1
            for n in range(2 * q):
                assert F.pow(a, n) == power
                assert times(F.pow(a, -n), power) == 1
                power = times(power, a)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)
    assert (F.pow(0, 0), F.pow(0, 3)) == (1, 0)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_reducible_modulus_raises_without_assert(monkeypatch):
    # x^2 + 1 = (x + 1)^2 over F_2: x + 1 divides zero, so the certificate
    # fails when the field is built; it raises AssertionError itself, so
    # python -O, which strips assert statements, keeps it
    monkeypatch.setitem(_MODULI, (2, 2), (1, 0, 1))
    with pytest.raises(AssertionError, match="modulus is reducible"):
        GF(4)
    monkeypatch.undo()
    script = ("from drinfan import gf\n"
              "gf._MODULI[(2, 2)] = (1, 0, 1)\n"
              "gf.GF(4)\n")
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True)
    assert out.returncode == 1
    assert out.stderr.rstrip().endswith(
        "AssertionError: GF(4): the modulus is reducible: a product table "
        "row is not a permutation")


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


def test_poly_division_by_zero_raises():
    F = gf(3)
    a = Poly.make(F, (1, 2, 1))
    for op in (a.divmod, a.__floordiv__, a.__mod__):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            op(Poly.zero(F))


def test_poly_make_rejects_coefficients_outside_the_field():
    # an out-of-range coefficient would be read by negative indexing
    # (-1 as the element 3 of GF(4)) or break the normal form (3 in GF(3))
    for q, coeffs in ((4, (-1, 1)), (3, (3,)), (2, (0, 1, 2)), (9, (9, 0))):
        with pytest.raises(ValueError, match=rf"must lie in range\({q}\)"):
            Poly.make(gf(q), coeffs)
    with pytest.raises(ValueError, match=r"range\(5\), got \[-2, 0, 1\]"):
        Poly.make(gf(5), (1, -2, 0, 0))
    with pytest.raises(ValueError):
        Poly.constant(gf(2), 2)
    assert Poly.make(gf(4), (3, 1, 0, 0)) + Poly.one(gf(4)) \
        == Poly.make(gf(4), (2, 1))
    assert Poly.make(gf(3), (0, 0)) == Poly.zero(gf(3))


def test_equal_fields_hash_equal():
    assert GF(4) == gf(4) and GF(4) is not gf(4)
    assert hash(GF(4)) == hash(gf(4))
    assert len({GF(q) for q in (2, 3, 2, 4, 3)}) == 3
    assert GF(4) != gf(8) and GF(4) != 4
    assert repr(GF(9)) == "GF(9)"


def test_poly_repr():
    F = gf(3)
    assert repr(Poly.zero(F)) == "Poly(0)"
    assert repr(Poly.constant(F, 2)) == "Poly(2)"
    assert repr(Poly.T(F)) == "Poly(T)"
    assert repr(Poly.make(F, (0, 2))) == "Poly(2*T)"
    assert repr(Poly.make(F, (0, 0, 0, 1))) == "Poly(T^3)"
    assert repr(Poly.make(F, (1, 0, 2, 1))) == "Poly(1 + 2*T^2 + T^3)"


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
