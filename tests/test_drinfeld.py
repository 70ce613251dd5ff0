"""Tate quotients: exponentials, quotient modules, torsion valuations."""

from fractions import Fraction

import pytest

from drinfan.drinfeld import (admissibility_margin, class_point_of_steps,
                              iterate_tate, lattice_profile_of_steps,
                              predicted_torsion_valuations, standard_module,
                              tate_step, torsion_valuations)
from drinfan.epsilon import delta
from drinfan.gf import Poly, gf
from drinfan.series import PrecisionError

F = Fraction
PREC = 48


def test_standard_module():
    m = standard_module(2, 1)
    assert m.rank == 1
    assert m.reduction_rank() == 1  # the top coefficient is a unit
    assert m.phi_T.z_degree() == 2


def test_reduction_rank_drops_after_quotient():
    # the quotient has rank 2 but its reduction keeps rank 1: the new top
    # coefficient has positive valuation
    module, _ = iterate_tate(2, 1, [2], PREC)
    assert module.rank == 2
    assert module.reduction_rank() == 1


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
