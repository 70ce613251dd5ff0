"""Tate quotients: exponentials, quotient modules, torsion valuations."""

import itertools
import time
from fractions import Fraction

import pytest

from drinfan import drinfeld
from drinfan.drinfeld import (admissibility_margin, class_point_of_steps,
                              iterate_tate, lattice_profile_of_steps,
                              predicted_torsion_valuations, standard_module,
                              tate_step, torsion_valuations)
from drinfan.epsilon import delta, epsilon
from drinfan.gf import Poly, gf
from drinfan.series import AdditiveSeries, PrecisionError

F = Fraction
PREC = 48


def _reduction_rank(module):
    """Largest i with unit tau^i-coefficient (rank of the reduction)."""
    best = 0
    for i in range(module.rank + 1):
        c = module.phi_T.coeff(i)
        if not c.is_zero_to_precision() and c.valuation() == 0:
            best = i
    return best


def test_standard_module():
    m = standard_module(2, 1)
    assert m.rank == 1
    assert _reduction_rank(m) == 1  # the top coefficient is a unit
    assert m.phi_T.z_degree() == 2


def test_reduction_rank_drops_after_quotient():
    # the quotient has rank 2 but its reduction keeps rank 1: the new top
    # coefficient has positive valuation
    module, _ = iterate_tate(2, 1, [2], PREC)
    assert module.rank == 2
    assert _reduction_rank(module) == 1


def test_phi_of_polynomial():
    m = standard_module(2, 1)
    K = gf(2)
    T = Poly.T(K)
    # phi(T^2) = phi(T) o phi(T): z-degree 4
    assert m.phi_of(T * T).z_degree() == 4
    assert m.phi_of(Poly.one(K)).z_degree() == 1


def test_one_step_quotient_top_valuation():
    # v(top) = (q^2 - 1) * delta^{1,1}(m)
    for (q, m) in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        module, steps = iterate_tate(q, 1, [m], PREC)
        assert module.rank == 2
        assert module.phi_T.z_degree() == q ** 2
        want = (q ** 2 - 1) * delta(q, 1, [F(m)])
        assert steps[0].top_valuation == want


def test_two_step_quotient_top_valuation():
    module, steps = iterate_tate(2, 1, [1, 3], PREC)
    assert module.rank == 3
    profile = lattice_profile_of_steps(2, 1, [1, 3])
    assert profile == (F(1), F(2))
    want = (2 ** 3 - 1) * delta(2, 1, profile)
    assert steps[1].top_valuation == want == 5


def test_rank2_base_quotient():
    module, steps = iterate_tate(2, 2, [1], PREC)
    assert module.rank == 3
    want = (2 ** 3 - 1) * delta(2, 2, [F(1)])
    assert steps[0].top_valuation == want


def test_exponential_is_monic_normalized():
    _, steps = iterate_tate(2, 1, [2], PREC)
    e = steps[0].exponential
    one = e.coeff(0)
    assert one.coeff(0) == 1
    # the enumerated lattice basis doubles the span at each point
    assert steps[0].lattice_valuations == (2, 4, 8, 16, 32)


def test_insufficient_precision_raises():
    with pytest.raises(PrecisionError):
        iterate_tate(2, 1, [1, 3], 40)


@pytest.mark.parametrize("q, r, ms, precision",
                         [(2, 1, [1, 3], 2), (2, 1, [1, 4], 3),
                          (3, 1, [1, 3], 3)])
def test_coefficient_lost_at_low_precision_raises(q, r, ms, precision):
    # a linear or top coefficient that vanished to working precision is a
    # PrecisionError, not a KeyError
    with pytest.raises(PrecisionError):
        iterate_tate(q, r, ms, precision)


def test_torsion_matches_prediction():
    K2, K3 = gf(2), gf(3)
    cases = [
        (2, 1, [1], Poly.T(K2)),
        (2, 1, [2], Poly.T(K2)),
        (2, 1, [2], Poly.make(K2, (1, 1))),       # N = T + 1
        (2, 1, [1, 3], Poly.T(K2)),
        (3, 1, [1], Poly.T(K3)),
        (2, 2, [1], Poly.T(K2)),
    ]
    for (q, r, ms, N) in cases:
        module, _ = iterate_tate(q, r, ms, PREC)
        assert torsion_valuations(module, N) == \
            predicted_torsion_valuations(q, r, ms, N)


def test_torsion_degree_two_level():
    K = gf(2)
    T = Poly.T(K)
    module, _ = iterate_tate(2, 1, [2], 48)
    N = T * T
    assert torsion_valuations(module, N) == \
        predicted_torsion_valuations(2, 1, [2], N)


def test_class_point():
    cp = class_point_of_steps(2, 1, [1, 3])
    assert cp.d == 3
    assert cp.values == (F(1), F(2))
    cp2 = class_point_of_steps(2, 2, [1])
    assert cp2.d == 3
    assert cp2.values == (F(0), F(1))
    assert cp2.pow_exponent == 2


def test_admissibility():
    m = standard_module(2, 1)
    assert admissibility_margin(m, 1) >= 0
    # after one quotient the top coefficient has positive valuation, so
    # small lattices may become inadmissible
    module, _ = iterate_tate(2, 1, [3], PREC)
    assert admissibility_margin(module, 1) < 0
    with pytest.raises(ValueError):
        tate_step(module, 1, PREC)


def test_linear_coefficient_is_structure_map():
    module, _ = iterate_tate(2, 1, [2], PREC)
    c0 = module.phi_T.coeff(0)
    assert c0.coeff(1) == 1
    assert c0.valuation() == 1


# the ten instances of tests/test_acceptance.py
TORSION_INSTANCES = [
    (2, 1, [1]), (2, 1, [2]), (2, 1, [3]), (2, 1, [1, 3]), (2, 1, [2, 4]),
    (3, 1, [1]), (3, 1, [2]), (2, 2, [1]), (2, 2, [2]), (2, 1, [1, 4]),
]


def _exact_subspace_polynomial(field, points, rel):
    """The recursion on exact series, never truncated: the oracle for
    drinfeld._subspace_polynomial (``rel`` is ignored)."""
    e = AdditiveSeries.identity(field)
    for lam in points:
        img = e.apply(lam)
        if img.is_zero_to_precision():
            raise ArithmeticError("basis point already in the span")
        e = e.frobenius_twist() - e.scale(img.pow_int(field.q - 1))
    return e


def _snapshot(series):
    return {i: (c.coeffs, c.prec) for i, c in series.coeffs.items()}


def _tate_outcome(q, r, ms, precision):
    """Everything iterate_tate returns, or the error it raises."""
    try:
        _, steps = iterate_tate(q, r, ms, precision)
    except (PrecisionError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return [(_snapshot(s.module.phi_T), _snapshot(s.exponential), s.m,
             s.lattice_valuations, s.top_valuation) for s in steps]


@pytest.mark.parametrize("q, r, ms", [(2, 1, [1, 3]), (3, 1, [2]),
                                      (2, 2, [1])])
def test_subspace_polynomial_keeps_relative_precision(q, r, ms):
    # every coefficient is the exact one, cut at exactly v(c) + rel
    module, _ = iterate_tate(q, r, ms[:-1], 64)
    pts = drinfeld._lattice_basis(module, ms[-1], 64)
    exact = _exact_subspace_polynomial(module.field, pts, None)
    got = drinfeld._subspace_polynomial(module.field, pts, 65)
    assert got.coeffs.keys() == exact.coeffs.keys()
    for i, c in got.coeffs.items():
        assert c.prec == c.valuation() + 65
        assert c == exact.coeffs[i].truncate(c.prec)


def test_truncated_exponential_matches_exact_oracle(monkeypatch):
    # truncating the recursion to relative precision precision + 1 changes
    # no coefficient, no precision and no PrecisionError
    runs = [(q, r, ms, p) for (q, r, ms) in TORSION_INSTANCES
            for p in list(range(2, 49)) + [64]]
    fast = [_tate_outcome(*run) for run in runs]
    monkeypatch.setattr(drinfeld, "_subspace_polynomial",
                        _exact_subspace_polynomial)
    for run, got in zip(runs, fast):
        assert got == _tate_outcome(*run), run
    errors = sum(isinstance(out, tuple) for out in fast)
    assert 0 < errors < len(runs)


@pytest.mark.parametrize("ms, precision",
                         [([1, 2, 3], 160), ([1, 2, 4], 256),
                          ([1, 3, 6], 512)])
def test_rank4_torsion_matches_prediction(ms, precision):
    # three-step quotients of the rank-1 module: the torsion law at rank 4
    N = Poly.T(gf(2)) * Poly.T(gf(2))
    module, _ = iterate_tate(2, 1, ms, precision)
    assert module.rank == 4
    assert torsion_valuations(module, N) == \
        predicted_torsion_valuations(2, 1, ms, N)


def test_top_valuation_law_at_precision_512():
    # the exact recursion took seconds here; the truncated one is fast
    start = time.monotonic()
    _, steps = iterate_tate(2, 1, [1, 3], 512)
    profile = lattice_profile_of_steps(2, 1, [1, 3])
    assert [s.top_valuation for s in steps] == \
        [(2 ** (1 + j) - 1) * delta(2, 1, profile[:j]) for j in (1, 2)]
    assert time.monotonic() - start < 5.0


def _predicted_by_enumeration(q, r, ms, N):
    """predicted_torsion_valuations by listing (A/N)^n: the base torsion,
    then q^(rk) points at -epsilon(|N|^{-r} max_i |a_i|^r p_i) for each
    nonzero tuple of representatives of degree < k = deg N (the oracle for
    the count)."""
    field = gf(q)
    ps = lattice_profile_of_steps(q, r, ms)
    k = N.degree
    counts = {}
    for val, mult in torsion_valuations(standard_module(q, r), N):
        counts[F(val)] = counts.get(F(val), 0) + mult
    reps = [Poly.make(field, cs)
            for cs in itertools.product(field.elements(), repeat=k)]
    for tup in itertools.product(reps, repeat=len(ps)):
        if all(a.is_zero() for a in tup):
            continue
        arg = max(F(a.absolute_value()) ** r * p for a, p in zip(tup, ps))
        val = -epsilon(q, r, ps, F(q) ** (-k * r) * arg)
        counts[val] = counts.get(val, 0) + q ** (r * k)
    return sorted(counts.items())


def _levels(q, degrees):
    """T^k and 1 + T + ... + T^k (nonzero lower coefficients) over F_q."""
    field = gf(q)
    return [N for k in degrees
            for N in (Poly.make(field, [0] * k + [1]),
                      Poly.make(field, [1] * (k + 1)))]


COUNTING_INSTANCES = TORSION_INSTANCES + [
    (2, 1, [1, 2, 3]), (2, 1, [1, 2, 4]), (2, 1, [1, 3, 6]), (4, 1, [1, 2])]


@pytest.mark.parametrize("q, r, ms", COUNTING_INSTANCES)
def test_torsion_count_matches_enumeration(q, r, ms):
    for N in _levels(q, (1, 2, 3)):
        assert predicted_torsion_valuations(q, r, ms, N) == \
            _predicted_by_enumeration(q, r, ms, N), N


def test_torsion_count_evaluates_epsilon_once_per_size(monkeypatch):
    # n k = 9 sizes q^(rm) p_i at (2, 1, [1, 3, 6], T^3); listing
    # (A/N)^3 made 2^9 - 1 = 511 calls
    calls = []
    monkeypatch.setattr(drinfeld, "epsilon",
                        lambda *a: calls.append(a) or epsilon(*a))
    predicted_torsion_valuations(2, 1, [1, 3, 6], _levels(2, (3,))[0])
    assert 0 < len(calls) <= 9


@pytest.mark.parametrize("q, r, ms, degrees", [
    *[(q, r, ms, (1, 2, 3)) for q, r, ms in COUNTING_INSTANCES],
    (2, 1, [1, 3, 6], (4, 5, 8)), (5, 1, [1, 3], (1, 2, 3)),
    (3, 2, [1, 2], (1, 2, 3))])
def test_torsion_multiplicities_count_every_nonzero_point(q, r, ms, degrees):
    # phi[N] has q^(k (r + n)) points, k = deg N; every nonzero one is
    # counted once: q^(rk) - 1 from the base, q^(rk) over each nonzero a
    # in (A/N)^n
    for N in _levels(q, degrees):
        got = predicted_torsion_valuations(q, r, ms, N)
        assert sum(m for _, m in got) == \
            q ** (N.degree * (r + len(ms))) - 1, N
