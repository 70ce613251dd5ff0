"""Weighted norms, successive minima, norm-preserving base changes."""

import itertools
import random
from fractions import Fraction

import pytest

from drinfan.gf import Poly, gf, polys_of_degree_at_most
from drinfan.norms import (WeightedNorm, apply_change,
                           is_norm_preserving_change, normalized_profile,
                           successive_minima)

F = Fraction


def _identity(field, n):
    one, zero = Poly.one(field), Poly.zero(field)
    return [tuple(one if i == j else zero for j in range(n))
            for i in range(n)]


def test_norm_values():
    K = gf(2)
    nm = WeightedNorm(K, (F(1), F(3)))
    T, one, zero = Poly.T(K), Poly.one(K), Poly.zero(K)
    assert nm.norm((T, zero)) == 2
    assert nm.norm((zero, one)) == 3
    assert nm.norm((T * T, one)) == 4
    assert nm.norm((zero, zero)) == 0


def test_minima_of_standard_lattice():
    K = gf(2)
    nm = WeightedNorm(K, (F(1), F(3)))
    basis, vals = successive_minima(nm, _identity(K, 2))
    assert vals == [F(1), F(3)]


def test_minima_invariant_under_unimodular_generators():
    # the minima depend on the lattice, not the generating set
    K = gf(2)
    T, one, zero = Poly.T(K), Poly.one(K), Poly.zero(K)
    nm = WeightedNorm(K, (F(1), F(2)))
    v1 = successive_minima(nm, _identity(K, 2))[1]
    v2 = successive_minima(nm, [(one, T), (zero, one)])[1]
    v3 = successive_minima(nm, [(one, one), (zero, one)])[1]
    assert v1 == v2 == v3


def test_skewed_lattice_minima():
    # lattice spanned by (T, 1), (1, 0): contains (1,0) norm 1 and (0,1)?
    # (0,1) = (T,1) - T*(1,0) -> norm w2
    K = gf(2)
    T, one, zero = Poly.T(K), Poly.one(K), Poly.zero(K)
    nm = WeightedNorm(K, (F(1), F(4)))
    basis, vals = successive_minima(nm, [(T, one), (one, zero)])
    assert vals == [F(1), F(4)]


def test_profile_weakly_increasing():
    K = gf(2)
    rng = random.Random(3)
    for _ in range(10):
        w = sorted(F(rng.randint(1, 8)) for _ in range(2))
        nm = WeightedNorm(K, tuple(w))
        _, vals = successive_minima(nm, _identity(K, 2))
        assert vals[0] <= vals[1]


def test_normalized_profile():
    assert normalized_profile([F(2), F(6)]) == (F(1), F(3))
    with pytest.raises(ValueError):
        normalized_profile([F(0), F(1)])


def test_change_predicate_matches_brute_force():
    """The entry-degree + tie-block predicate agrees with re-running the
    successive-minima computation on the transformed basis."""
    K = gf(2)
    T, one, zero = Poly.T(K), Poly.one(K), Poly.zero(K)
    nm = WeightedNorm(K, (F(1), F(2)))
    basis, vals = successive_minima(nm, _identity(K, 2))
    pool = list(polys_of_degree_at_most(K, 1))
    grid = list(itertools.product(pool, repeat=4))
    rng = random.Random("change-grid")
    sample = rng.sample(grid, 80)
    agree = disagree = 0
    for entries in sample:
        mat = [[entries[0], entries[1]], [entries[2], entries[3]]]
        predicted = is_norm_preserving_change(vals, mat)
        new_basis = apply_change(basis, mat)
        # ground truth: the transformed vectors have the right norms and
        # still generate the same lattice with the minima achieved in order
        try:
            gvals = [nm.norm(v) for v in new_basis]
            _, best = successive_minima(nm, new_basis)
            actual = gvals == vals and best == vals
        except ValueError:
            actual = False  # singular: not a basis at all
        if predicted == actual:
            agree += 1
        else:
            disagree += 1
            assert not predicted, (mat, gvals, vals)
    # the predicate must never accept a bad change; it may be conservative
    # only in the documented tie-block direction, which this grid exercises
    assert disagree == 0
    assert agree == len(sample)


def test_rejects_non_basis():
    K = gf(2)
    zero = Poly.zero(K)
    nm = WeightedNorm(K, (F(1), F(1)))
    with pytest.raises(ValueError):
        successive_minima(nm, [(zero, zero), (zero, zero)])
