"""The scalar kernel: oracle vs closed form, identities, inverses."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import drinfan.epsilon as eps_mod
from drinfan.epsilon import (delta, delta_oracle, epsilon, epsilon_closed,
                             epsilon_hat, epsilon_hat1, epsilon_hat_oracle,
                             epsilon_inv, epsilon_oracle)
from drinfan.points import ClassPoint
from drinfan.xi import xi_eval


def _epsilon_hat_inv(q, r, w, y):
    """The inverse of epsilon_hat: epsilon_hat = epsilon - delta."""
    return epsilon_inv(q, r, w, y + delta(q, r, w))


def _epsilon_hat1_inv(q, r, s, y):
    """The inverse of epsilon_hat1, through the checked integer kernel."""
    s, = eps_mod._check_args(q, r, (s,))
    y = Fraction(y)
    return Fraction(*eps_mod._hat1_inv(q, r, s.numerator, s.denominator,
                                       y.numerator, y.denominator))


def _hat_stage_weights(q, r, w):
    """The stage weights of w as a fresh list of integer pairs (u, v):
    stage i has rank r+i and weight epsilon_hat^{r,i}_{s_1..s_i}(s_{i+1})
    = u/v."""
    return list(eps_mod._stage_chain(q, r, w)[0])


fracs = st.fractions(min_value=Fraction(1, 8), max_value=Fraction(32),
                     max_denominator=8)


@st.composite
def kernel_args(draw, max_n=3):
    q = draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, max_n))
    w = sorted(draw(fracs) for _ in range(n))
    x = draw(fracs)
    return q, r, tuple(w), x


def test_anchor_values():
    # one-weight value on the first band
    assert epsilon_oracle(2, 1, (Fraction(1),), Fraction(2)) == Fraction(3)
    assert epsilon(2, 1, (Fraction(1),), Fraction(2)) == Fraction(3)
    # two-weight normalization constant
    assert delta(2, 1, (Fraction(1), Fraction(2))) == Fraction(5, 7)
    assert delta_oracle(2, 1, (Fraction(1), Fraction(2))) == Fraction(5, 7)
    # negative arguments pass through
    assert epsilon(2, 1, (Fraction(1),), Fraction(-3)) == Fraction(-3)


@given(kernel_args())
@settings(max_examples=200, deadline=None)
def test_closed_equals_oracle(args):
    q, r, w, x = args
    assert epsilon_closed(q, r, w, x) == epsilon_oracle(q, r, w, x)


@given(kernel_args())
@settings(max_examples=150, deadline=None)
def test_hat_equals_oracle_hat(args):
    q, r, w, x = args
    assert epsilon_hat(q, r, w, x) == epsilon_hat_oracle(q, r, w, x)


@given(kernel_args())
@settings(max_examples=150, deadline=None)
def test_delta_equals_delta_oracle(args):
    q, r, w, _ = args
    assert delta(q, r, w) == delta_oracle(q, r, w)


@given(kernel_args())
@settings(max_examples=150, deadline=None)
def test_inverses(args):
    q, r, w, x = args
    y = epsilon_hat(q, r, w, x)
    assert _epsilon_hat_inv(q, r, w, y) == x
    z = epsilon_closed(q, r, w, x)
    assert epsilon_inv(q, r, w, z) == x


def test_one_weight_band_structure():
    # piecewise-linear with slope q^h on band h
    q, r, s = 2, 1, Fraction(1)
    # band 0: x <= s: slope 1
    assert epsilon_hat1(q, r, s, Fraction(1, 2)) - \
        epsilon_hat1(q, r, s, Fraction(1, 4)) == Fraction(1, 4)
    # band 2: q^r s < x <= q^{2r} s: slope q^2
    d = epsilon_hat1(q, r, s, Fraction(4)) - epsilon_hat1(q, r, s, Fraction(3))
    assert d == 4


def test_hat1_inverse_roundtrip():
    rng = random.Random(0)
    for _ in range(100):
        q = rng.choice([2, 3])
        r = rng.randint(1, 3)
        s = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        x = Fraction(rng.randint(1, 64), rng.randint(1, 4))
        y = epsilon_hat1(q, r, s, x)
        assert _epsilon_hat1_inv(q, r, s, y) == x


def test_monotonicity():
    # epsilon is strictly increasing in x
    w = (Fraction(1), Fraction(2))
    vals = [epsilon(2, 1, w, Fraction(k, 4)) for k in range(1, 40)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_nonmonotone_weights_fall_back_to_oracle():
    w = (Fraction(3), Fraction(1))
    x = Fraction(5)
    assert epsilon(2, 1, w, x) == epsilon_oracle(2, 1, w, x)


def test_rejects_bad_args():
    with pytest.raises(ValueError):
        epsilon_oracle(1, 1, (Fraction(1),), Fraction(1))
    with pytest.raises(ValueError):
        epsilon_oracle(2, 0, (Fraction(1),), Fraction(1))
    with pytest.raises(ValueError):
        epsilon_oracle(2, 1, (Fraction(-1),), Fraction(1))


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction formulas it replaced


def _ref_hat1(q, r, s, x):
    """epsilon_hat1 as a Fraction formula (test-only reference)."""
    s, x = Fraction(s), Fraction(x)
    h = 0
    bound = s
    step = Fraction(q) ** r
    while x > bound:
        bound *= step
        h += 1
    c = Fraction(q - 1, q ** (r + 1) - 1)
    return q ** h * x - q ** (h * (r + 1)) * c * s


def _ref_hat1_inv(q, r, s, y):
    """The inverse of epsilon_hat1 as a Fraction formula (test reference)."""
    s, y = Fraction(s), Fraction(y)
    c = Fraction(q - 1, q ** (r + 1) - 1)
    h = 0
    edge = s * (1 - c)
    step = Fraction(q) ** (r + 1)
    while y > edge:
        edge *= step
        h += 1
    return (y + q ** (h * (r + 1)) * c * s) / q ** h


def _kernel_points(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice([2, 3, 4, 5])
        r = rng.randint(1, 3)
        s = Fraction(rng.randint(1, 10 ** rng.randint(1, 6)),
                     rng.randint(1, 10 ** rng.randint(0, 4)))
        x = Fraction(rng.randint(-10 ** 4, 10 ** 7), rng.randint(1, 997))
        yield q, r, s, x


def test_hat1_kernel_matches_fraction_formula_random():
    for q, r, s, x in _kernel_points(20240501, 3000):
        assert epsilon_hat1(q, r, s, x) == _ref_hat1(q, r, s, x)
        assert _epsilon_hat1_inv(q, r, s, x) == _ref_hat1_inv(q, r, s, x)


def test_hat1_kernel_matches_fraction_formula_at_band_edges():
    tiny = Fraction(1, 10 ** 9)
    for q in (2, 3, 4, 5):
        for r in (1, 2, 3):
            c = Fraction(q - 1, q ** (r + 1) - 1)
            for s in (Fraction(1), Fraction(7, 3), Fraction(5, 64),
                      Fraction(1000, 999)):
                xs = [Fraction(0), Fraction(-1), -s, Fraction(-7, 2) * s]
                ys = list(xs)
                for h in range(5):
                    edge = Fraction(q) ** (h * r) * s
                    xs += [edge, edge - tiny, edge + tiny]
                    yedge = Fraction(q) ** (h * (r + 1)) * s * (1 - c)
                    ys += [yedge, yedge - tiny, yedge + tiny]
                for x in xs:
                    assert epsilon_hat1(q, r, s, x) == _ref_hat1(q, r, s, x)
                for y in ys:
                    assert (_epsilon_hat1_inv(q, r, s, y)
                            == _ref_hat1_inv(q, r, s, y))
                    assert epsilon_hat1(
                        q, r, s, _epsilon_hat1_inv(q, r, s, y)) == y


def test_hat_stage_weights_returns_a_fresh_list():
    w = (Fraction(1), Fraction(5, 2), Fraction(9))
    # the memoized chain is a tuple; no caller can change it in place
    assert type(eps_mod._stage_chain(2, 1, w)[0]) is tuple
    stages = _hat_stage_weights(2, 1, w)
    want = list(stages)
    x = Fraction(40)
    before = (epsilon_closed(2, 1, w, x), delta(2, 1, w),
              epsilon_hat(2, 1, w, x))
    stages[0] = (10 ** 6, 1)
    stages.append((1, 1))
    del stages[1]
    assert _hat_stage_weights(2, 1, w) == want
    assert (epsilon_closed(2, 1, w, x), delta(2, 1, w),
            epsilon_hat(2, 1, w, x)) == before


def test_invalid_weights_raise_on_every_call(monkeypatch):
    bad = (Fraction(3), Fraction(1), Fraction(4))
    for _ in range(3):
        for f in (_hat_stage_weights, delta):
            with pytest.raises(ValueError):
                f(2, 1, bad)
        for f in (epsilon_closed, epsilon_hat, _epsilon_hat_inv, epsilon_inv):
            with pytest.raises(ValueError):
                f(2, 1, bad, Fraction(5))
    # monotone positive weights never collapse, so force a stage to 0
    monkeypatch.setattr(eps_mod, "_hat1", lambda q, r, u, v, a, b: (0, 1))
    collapse = (Fraction(11, 7), Fraction(13, 7))
    for _ in range(3):
        with pytest.raises(ArithmeticError):
            _hat_stage_weights(3, 2, collapse)
        with pytest.raises(ArithmeticError):
            epsilon_closed(3, 2, collapse, Fraction(1))
    monkeypatch.undo()
    assert _hat_stage_weights(3, 2, collapse)[1][0] > 0


def test_xi_eval_equals_defining_sum():
    rng = random.Random(77)
    for _ in range(60):
        q = rng.choice([2, 3])
        k = rng.randint(1, 3)
        d = rng.randint(2, 5)
        r = rng.randint(1, d - 1)
        tail = sorted(Fraction(rng.randint(1, 60), rng.randint(1, 6))
                      for _ in range(d - r))
        coords = [Fraction(0)] * (r - 1) + tail
        point = ClassPoint.from_coords(coords)
        p = point.power_values(r)
        want = [Fraction(0)] * (r - 1) + [
            epsilon_oracle(q, r, p[r - 1:], Fraction(q) ** (-k * r) * v)
            for v in p[r - 1:]]
        assert list(xi_eval(q, k, point).values) == want


def test_empty_weights_check_q_and_r():
    for q, r in ((6, 1), (1, 1), (2, 0)):
        for f in (lambda: epsilon(q, r, [], 3), lambda: delta(q, r, []),
                  lambda: epsilon_closed(q, r, (), 3),
                  lambda: epsilon_inv(q, r, (), 3)):
            with pytest.raises(ValueError):
                f()
    assert epsilon(2, 1, [], Fraction(3)) == 3
    assert epsilon_inv(2, 1, [], Fraction(3)) == 3
    assert delta(2, 1, []) == 0


def test_integer_chain_matches_composed_fraction_formula():
    rng = random.Random(4711)
    for _ in range(1500):
        q = rng.choice([2, 3, 4, 5])
        r = rng.randint(1, 3)
        stages = [(rng.randint(1, 10 ** rng.randint(1, 5)),
                   rng.randint(1, 10 ** rng.randint(0, 3)))
                  for _ in range(rng.randint(0, 4))]
        x = Fraction(rng.randint(-10 ** 3, 10 ** 7), rng.randint(1, 997))
        want = x
        for j, (u, v) in enumerate(stages):
            want = _ref_hat1(q, r + j, Fraction(u, v), want)
        got = eps_mod._run(q, r, stages, x.numerator, x.denominator)
        assert Fraction(*got) == want
        back = want
        for j in range(len(stages) - 1, -1, -1):
            back = _ref_hat1_inv(q, r + j, Fraction(*stages[j]), back)
        assert Fraction(*eps_mod._run_inv(q, r, stages, want.numerator,
                                          want.denominator)) == back == x


def test_stage_chain_is_reduced_integer_pairs():
    rng = random.Random(4712)
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5])
        r = rng.randint(1, 3)
        w = sorted(Fraction(rng.randint(1, 10 ** 4), rng.randint(1, 99))
                   for _ in range(rng.randint(0, 5)))
        # stage i is the chain of stages 0..i-1 at w[i]
        want = []
        for s in w:
            for j, t in enumerate(want):
                s = _ref_hat1(q, r + j, t, s)
            want.append(s)
        stages, _ = eps_mod._stage_chain(q, r, tuple(w))
        assert all(type(u) is int and type(v) is int for u, v in stages)
        assert list(stages) == [(t.numerator, t.denominator) for t in want]
        assert all(t > 0 for t in want)


def test_weight_memo_never_serves_a_stale_chain():
    x = Fraction(37, 3)

    def fresh(q, r, w):
        return epsilon_oracle(q, r, list(w), x)

    # a list mutated in place between calls
    w = [Fraction(1), Fraction(2), Fraction(5)]
    for new in (Fraction(3), Fraction(4, 3), Fraction(5)):
        assert epsilon_closed(2, 1, w, x) == fresh(2, 1, w)
        w[1] = new
    w[1] = Fraction(7)
    with pytest.raises(ValueError):
        epsilon_closed(2, 1, w, x)
    # equal but distinct tuples, and one tuple at other (q, r)
    t1 = (Fraction(1), Fraction(2), Fraction(5))
    t2 = tuple(Fraction(v) for v in (1, 2, 5))
    assert t1 == t2 and t1 is not t2
    for q, r, t in ((2, 1, t1), (2, 1, t2), (3, 1, t1), (3, 2, t1),
                    (2, 1, t1), (3, 2, t2)):
        assert epsilon_closed(q, r, t, x) == fresh(q, r, t)
        assert epsilon_hat(q, r, t, x) == epsilon_hat_oracle(q, r, t, x)
        assert delta(q, r, t) == delta_oracle(q, r, t)
    # a tuple of non-Fraction numbers is checked on every call
    ints = (1, 2, 5)
    for q in (2, 3, 2):
        assert epsilon_closed(q, 1, ints, x) == fresh(q, 1, ints)
    # a rejected vector is not remembered: it raises on every call
    bad = (Fraction(2), Fraction(1))
    for _ in range(3):
        with pytest.raises(ValueError):
            epsilon_closed(2, 1, bad, x)
    # the memo is keyed on q and r too: t1 is kept, another q is checked
    for q, r in ((6, 1), (1, 1), (2.0, 1), (2, 0)):
        assert epsilon_closed(2, 1, t1, x) == fresh(2, 1, t1)
        with pytest.raises((ValueError, TypeError)):
            epsilon_closed(q, r, t1, x)
