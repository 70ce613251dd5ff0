"""Truncated Laurent series and additive (twisted) polynomials."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinfan.gf import GF, gf
from drinfan.series import (AdditiveSeries, LaurentSeries, PrecisionError,
                            lower_hull, root_valuations)


@st.composite
def series_pair(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    F = gf(q)

    def mk():
        coeffs = {}
        for _ in range(draw(st.integers(0, 5))):
            e = draw(st.integers(-6, 8))
            c = draw(st.integers(1, q - 1))
            coeffs[e] = c
        return LaurentSeries(F, coeffs, prec=draw(
            st.one_of(st.none(), st.integers(9, 20))))

    return F, mk(), mk()


@given(series_pair())
@settings(max_examples=150, deadline=None)
def test_ring_laws(data):
    F, a, b = data
    assert (a + b).truncate(5) == (b + a).truncate(5)
    assert (a * b).truncate(5) == (b * a).truncate(5)
    z = a - a
    assert z.is_zero_to_precision()


def _mul_naive(a, b):
    """Schoolbook product through GF.mul / GF.add: the oracle for __mul__."""
    F = a.field
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            s = F.add(out.get(e, 0), F.mul(c1, c2))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _assert_mul_matches_naive(a, b):
    prod = a * b
    assert prod == LaurentSeries(a.field, _mul_naive(a, b), prod.prec)


MUL_FIELDS = [2, 3, 4, 5, 7, 8, 9, 13, 16]


@st.composite
def wide_series_pair(draw):
    """Operands of up to 600 and 260 terms with negative exponents, sparse
    or dense, exact or truncated inside their span, over prime and extension
    fields; two operands of 260 terms need 2-byte slots for p = 2."""
    q = draw(st.sampled_from(MUL_FIELDS))
    F = gf(q)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def mk(sizes):
        n = draw(st.sampled_from(sizes))
        lo = draw(st.integers(-40, 40))
        span = n * draw(st.sampled_from([1, 2, 5]))
        coeffs = {lo + x: rng.randrange(1, q)
                  for x in rng.sample(range(span), n)}
        prec = draw(st.one_of(st.none(), st.integers(lo, lo + span + 2)))
        return LaurentSeries(F, coeffs, prec)

    sizes = [0, 1, 3, 12, 60, 260]
    return F, mk(sizes + [600]), mk(sizes)


@given(wide_series_pair())
@settings(max_examples=100, deadline=None)
def test_mul_matches_naive(data):
    F, a, b = data
    _assert_mul_matches_naive(a, b)


def _dense(F, lo, n):
    """n consecutive terms whose coefficient has every base-p digit p-1,
    so every slot of a product reaches its bound."""
    return LaurentSeries(F, {e: F.q - 1 for e in range(lo, lo + n)}, None)


# (q, n) with min(terms) * e * (p-1)^2 just below and just above a whole
# number of bytes: 1 -> 2 bytes for each field, 2 -> 3 bytes for q = 13.
@pytest.mark.parametrize("q, n", [
    (2, 255), (2, 256), (3, 63), (3, 64), (4, 127), (4, 128),
    (5, 15), (5, 16), (7, 7), (7, 8), (8, 85), (8, 86), (9, 31), (9, 32),
    (13, 1), (13, 2), (13, 455), (13, 456), (16, 63), (16, 64),
])
def test_mul_matches_naive_at_slot_boundaries(q, n):
    F = gf(q)
    a, b = _dense(F, -n // 2, n), _dense(F, 3, n + 7)
    _assert_mul_matches_naive(a, b)
    _assert_mul_matches_naive(a, a.truncate(n // 3))


def test_extension_field_product_avoids_digit_lists(monkeypatch):
    fields = [gf(q) for q in (4, 8, 9, 16)]  # tables are built here

    def no_digits(self, n):
        raise AssertionError("digit-list conversion on the hot path")

    monkeypatch.setattr(GF, "_digits", no_digits)
    for F in fields:
        a = LaurentSeries(F, {-2: 1, 0: F.q - 1, 5: 2}, 9)
        b = LaurentSeries(F, {1: 3, 2: F.q - 2}, None)
        assert (a * b) - (b * a) == LaurentSeries.zero(F, (a * b).prec)
        assert a + b - b == a


@st.composite
def unit_series(draw):
    q = draw(st.sampled_from([2, 3, 4, 9]))
    F = gf(q)
    v = draw(st.integers(-5, 5))
    coeffs = {v: draw(st.integers(1, q - 1))}
    for _ in range(draw(st.integers(0, 12))):
        coeffs[v + draw(st.integers(1, 40))] = draw(st.integers(1, q - 1))
    prec = draw(st.one_of(st.none(), st.integers(v + 60, v + 120)))
    a = LaurentSeries(F, coeffs, prec)
    best = 60 if prec is None else prec - 2 * v
    return F, a, draw(st.integers(-v + 1, min(best, 60)))


@given(unit_series())
@settings(max_examples=100, deadline=None)
def test_inverse_times_series_is_one(data):
    F, a, prec = data
    inv = a.inverse(prec)
    assert inv.prec == prec
    prod = a * inv
    assert prod.prec is not None
    assert prod == LaurentSeries.one(F, prod.prec)


def test_inverse_exact_and_truncated():
    F = gf(2)
    # 1 + t
    a = LaurentSeries(F, {0: 1, 1: 1}, prec=None)
    inv = a.inverse(12)
    assert (a * inv - LaurentSeries.one(F)).is_zero_to_precision()
    # exact monomial
    m = LaurentSeries(F, {-3: 1}, prec=None)
    assert m.inverse().coeffs == {3: 1}
    # negative-valuation input
    b = LaurentSeries(F, {-2: 1, 0: 1, 3: 1}, prec=None)
    binv = b.inverse(10)
    assert (b * binv - LaurentSeries.one(F)).is_zero_to_precision()


def _inverse_oracle(a, prec):
    """Newton's iteration on the whole normalized series, every product
    exact: the oracle for inverse(), whose rounds read u mod t^known only."""
    F = a.field
    v = min(a.coeffs)
    c0 = a.coeffs[v]
    u = LaurentSeries(F, {e - v: F.div(c, c0) for e, c in a.coeffs.items()},
                      None)
    need = prec + v
    x = LaurentSeries.one(F)
    known = 1
    while known < need:
        known = min(2 * known, need)
        step = x.scale(2 % F.p) - (u * x) * x
        x = LaurentSeries(F, {e: c for e, c in step.coeffs.items()
                              if e < known}, None)
    return LaurentSeries(F, {e - v: F.div(c, c0) for e, c in x.coeffs.items()},
                         prec)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_inverse_of_long_series_matches_oracle(q):
    # like the linear coefficient of a monic exponential: thousands of terms
    # over a wide span, inverted to ~130 digits of relative precision
    F = gf(q)
    rng = random.Random(q)
    v = -10922
    coeffs = {v + x: rng.randrange(1, q)
              for x in rng.sample(range(1, 10930), 4500)}
    coeffs[v] = 1
    a = LaurentSeries(F, coeffs, None)
    assert len(a.coeffs) > 4000
    for s, prec in [(a, 129 - v), (a, 1 - v), (a.truncate(v + 300), 200 - v)]:
        inv = s.inverse(prec)
        want = _inverse_oracle(s, prec)
        assert (inv.coeffs, inv.prec) == (want.coeffs, want.prec)
        assert s * inv == LaurentSeries.one(F, (s * inv).prec)


def test_precision_error_on_ambiguous_valuation():
    F = gf(2)
    s = LaurentSeries(F, {}, prec=3)
    with pytest.raises(PrecisionError):
        s.valuation()
    with pytest.raises(PrecisionError):
        s.coeff(5)


def test_frobenius_power():
    F = gf(3)
    s = LaurentSeries(F, {1: 2, 2: 1}, prec=None)
    f = s.frobenius_power(1)
    assert f.coeffs == {3: 2 ** 3 % 3, 6: 1}
    # additivity of Frobenius: (a+b)^q = a^q + b^q
    a = LaurentSeries(F, {0: 1, 1: 2}, prec=None)
    b = LaurentSeries(F, {1: 1, 4: 2}, prec=None)
    assert (a + b).frobenius_power(1) == \
        a.frobenius_power(1) + b.frobenius_power(1)


def test_additive_compose_skew_rule():
    F = gf(2)
    t = LaurentSeries.t_power(F, 1)
    # f = t z + z^2, g = z^2: f(g(z)) = t z^2 + z^4
    f = AdditiveSeries(F, {0: t, 1: LaurentSeries.one(F)})
    g = AdditiveSeries(F, {1: LaurentSeries.one(F)})
    h = f.compose(g)
    assert h.coeff(1) == t
    assert h.coeff(2) == LaurentSeries.one(F)
    # additive polynomials: composition is linear in the left argument
    f2 = AdditiveSeries(F, {0: LaurentSeries.one(F)})
    assert (f + f2).compose(g).coeff(1) == (t + LaurentSeries.one(F))


def _compositional_inverse(f, tau_bound):
    """g with f . g = identity modulo tau^(tau_bound+1).

    Requires the tau^0 coefficient to be invertible (unit lowest term).
    """
    f0 = f.coeff(0)
    if f0.is_zero_to_precision():
        raise ZeroDivisionError("tau^0 coefficient is zero; not invertible")
    prec_goal = f0.prec
    f0_inv = f0.inverse(None if prec_goal is None
                        else prec_goal - 2 * min(f0.coeffs))
    g = {0: f0_inv}
    for k in range(1, tau_bound + 1):
        acc = LaurentSeries.zero(f.field)
        for i in range(1, k + 1):
            fi = f.coeff(i)
            if fi.is_zero_to_precision() and fi.prec is None:
                continue
            gj = g.get(k - i)
            if gj is None:
                continue
            acc = acc + fi * gj.frobenius_power(i)
        g[k] = (-acc) * f0_inv
    return AdditiveSeries(f.field, g)


def _truncate_tau(f, tau_bound):
    return AdditiveSeries(f.field, {i: c for i, c in f.coeffs.items()
                                    if i <= tau_bound})


def test_compositional_inverse():
    F = gf(2)
    t = LaurentSeries.t_power(F, 1)
    f = AdditiveSeries(F, {0: LaurentSeries.one(F), 1: t})
    g = _compositional_inverse(f, 4)
    comp = _truncate_tau(f.compose(g), 4)
    assert comp.coeff(0) == LaurentSeries.one(F)
    for i in range(1, 5):
        assert comp.coeff(i).is_zero_to_precision()


def test_lower_hull_and_root_valuations():
    # z + t z^2 + t^3 z^4 over F_2: slopes from (1,0),(2,1),(4,3)
    F = gf(2)
    f = AdditiveSeries(F, {
        0: LaurentSeries.one(F),
        1: LaurentSeries.t_power(F, 1),
        2: LaurentSeries.t_power(F, 3),
    })
    vals = root_valuations(f.newton_points())
    # hull: (1,0)-(2,1) slope 1 -> val -1 (1 root); (2,1)-(4,3) slope 1 -> same
    total = sum(m for _, m in vals)
    assert total == 4 - 1
    hull = lower_hull([(1, Fraction(0)), (2, Fraction(1)), (4, Fraction(3))])
    assert hull == [(1, Fraction(0)), (4, Fraction(3))]


def test_root_valuations_refuses_a_coefficient_below_the_hull():
    # the hull from (1, 0) to (4, 4) has height 4/3 at z^2; a coefficient
    # there known to vanish only to precision 1 could dip below it
    points = [(1, 0, None), (2, None, 1), (4, 4, None)]
    with pytest.raises(PrecisionError, match=r"z\^2"):
        root_valuations(points)
    # to precision 2 it clears the hull: one segment of slope 4/3
    points[1] = (2, None, 2)
    assert root_valuations(points) == [(Fraction(-4, 3), 3)]
