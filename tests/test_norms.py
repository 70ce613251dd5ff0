"""Weighted norms, successive minima, norm-preserving base changes."""

import itertools
import random
from fractions import Fraction

import pytest

from drinfan.gf import Poly, gf
from drinfan.linalg import det
from drinfan.norms import WeightedNorm, successive_minima
from fqt import RatFunc, field_solve

F = Fraction


def _polys_of_degree_at_most(field, d):
    """Every polynomial of degree <= d, 0 included, the constant
    coefficient running fastest."""
    return [Poly.make(field, cs[::-1])
            for cs in itertools.product(field.elements(), repeat=d + 1)]


def _identity(field, n):
    one, zero = Poly.one(field), Poly.zero(field)
    return [tuple(one if i == j else zero for j in range(n))
            for i in range(n)]


def _in_A_span(vectors, x):
    """Is x in the A-span of the given vectors?"""
    if not vectors:
        return all(p.is_zero() for p in x)
    # solve sum_j c_j vectors[j] = x over F_q(T); need every c_j in A
    sol = field_solve([[RatFunc.of(v[i]) for v in vectors]
                       for i in range(len(x))], [RatFunc.of(p) for p in x])
    return sol is not None and all(c.den.degree == 0 for c in sol)


def _oracle_minima(norm, gens, cap):
    """Successive minima by exhaustive greedy search, or None if it would
    list more than cap coefficient tuples.

    Lists every coefficient tuple up to a Cramer degree bound, sorted by
    (norm, lexicographic coefficients), and keeps each vector outside the
    A-span of those kept so far.  Independent of the reduction it checks.
    """
    field, q, n = norm.field, norm.field.q, norm.n
    # any successive-minima vector has norm <= max generator norm
    bound = max(norm.norm(g) for g in gens)
    deg_x = 0
    while Fraction(q) ** (deg_x + 1) * min(norm.weights) <= bound:
        deg_x += 1
    # coefficient degree bound via Cramer: a = adj(G) x / det
    adj_deg = 0
    for i in range(n):
        for j in range(n):
            minor = [[gens[jj][ii] for jj in range(n) if jj != j]
                     for ii in range(n) if ii != i]
            md = det(minor) if minor else Poly.one(field)
            if not md.is_zero():
                adj_deg = max(adj_deg, md.degree)
    deg_a = adj_deg + deg_x  # det has degree >= 0, dividing only lowers this
    if (q ** (deg_a + 1)) ** n > cap:
        return None
    candidates = []
    for coeffs in itertools.product(_polys_of_degree_at_most(field, deg_a),
                                    repeat=n):
        if all(c.is_zero() for c in coeffs):
            continue
        v = tuple(sum((gens[j][i] * coeffs[j] for j in range(1, n)),
                      gens[0][i] * coeffs[0]) for i in range(n))
        key = tuple(itertools.chain.from_iterable(c.coeffs for c in coeffs))
        candidates.append((norm.norm(v), key, v))
    candidates.sort(key=lambda t: (t[0], t[1]))
    basis, values = [], []
    for value, _, v in candidates:
        if len(basis) == n:
            break
        if not _in_A_span(basis, v):
            basis.append(v)
            values.append(value)
    return values


def _bidiagonal(field, n):
    """Basis e_j + T e_(j+1) (and e_n) of the lattice A^n."""
    T, one, zero = Poly.T(field), Poly.one(field), Poly.zero(field)
    return [tuple(one if i == j else T if i == j + 1 else zero
                  for i in range(n)) for j in range(n)]


def _assert_same_lattice(old, new):
    """new = M old with M over A and det M a nonzero constant."""
    n = len(old)
    # one equation per coordinate; unknown j, column k: coefficient of
    # old_j in new_k
    m = field_solve([[RatFunc.of(v[i]) for v in old] for i in range(n)],
                    [[RatFunc.of(v[i]) for v in new] for i in range(n)])
    assert m is not None
    assert all(c.den.degree == 0 for row in m for c in row)
    d = det([[c.num for c in row] for row in m])
    assert d.degree == 0


def _random_case(rng, q, n):
    """A nonsingular generator matrix with entries of degree <= 1 (linear
    terms rarer in rank 3, to keep the oracle's search small) and weights
    base * q^k, so that some weight ratios are powers of q and some not."""
    field = gf(q)

    def entry():
        c0 = rng.randrange(q)
        c1 = rng.randrange(q) if rng.random() < 1 / (n - 1) ** 2 else 0
        return Poly.make(field, (c0, c1))

    while True:
        gens = [tuple(entry() for _ in range(n)) for _ in range(n)]
        if not det([[g[i] for g in gens] for i in range(n)]).is_zero():
            break
    weights = tuple(rng.choice((F(1), F(3, 2), F(5, 3)))
                    * q ** rng.randint(0, 4 - n) for _ in range(n))
    return WeightedNorm(field, weights), gens


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


def _normalized_profile(values):
    """Profile up to a global positive scaling (first value scaled to 1)."""
    vals = [F(v) for v in values]
    if not vals or vals[0] <= 0:
        raise ValueError("profile values must be positive")
    return tuple(v / vals[0] for v in vals)


def _apply_change(basis, matrix):
    """New basis lambda'_i = sum_j matrix[i][j] * basis[j]."""
    n = len(basis)
    return [tuple(sum((basis[j][c] * matrix[i][j] for j in range(1, n)),
                      basis[0][c] * matrix[i][0])
                  for c in range(len(basis[0])))
            for i in range(n)]


def _is_norm_preserving_change(values, matrix):
    """Does the change of basis preserve the successive-minima property?

    values are the norms mu(lambda_j) of the old basis (weakly increasing).
    Conditions: every nonzero entry satisfies |a_ij| mu(lambda_j) <=
    mu(lambda_i) (which forces a_ij = 0 whenever mu(lambda_j) > mu(lambda_i)),
    and for each group of equal norm values the block of constant terms is
    invertible over F_q.
    """
    vals = [F(v) for v in values]
    n = len(vals)
    field = matrix[0][0].field
    if any(not matrix[i][j].is_zero()
           and matrix[i][j].absolute_value() * vals[j] > vals[i]
           for i in range(n) for j in range(n)):
        return False
    groups = {}  # tie blocks
    for i, v in enumerate(vals):
        groups.setdefault(v, []).append(i)
    return all(det([[Poly.constant(field, matrix[i][j].coeff(0))
                     for j in idxs] for i in idxs])
               for idxs in groups.values())


def test_normalized_profile():
    assert _normalized_profile([F(2), F(6)]) == (F(1), F(3))
    with pytest.raises(ValueError):
        _normalized_profile([F(0), F(1)])


def test_change_predicate_matches_brute_force():
    """The entry-degree + tie-block predicate agrees with re-running the
    successive-minima computation on the transformed basis."""
    K = gf(2)
    T, one, zero = Poly.T(K), Poly.one(K), Poly.zero(K)
    nm = WeightedNorm(K, (F(1), F(2)))
    basis, vals = successive_minima(nm, _identity(K, 2))
    pool = _polys_of_degree_at_most(K, 1)
    grid = list(itertools.product(pool, repeat=4))
    rng = random.Random("change-grid")
    sample = rng.sample(grid, 80)
    agree = disagree = 0
    for entries in sample:
        mat = [[entries[0], entries[1]], [entries[2], entries[3]]]
        predicted = _is_norm_preserving_change(vals, mat)
        new_basis = _apply_change(basis, mat)
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


def test_norm_rejects_a_vector_of_another_length():
    # zip would pair the weights with the first coordinates only
    K = gf(2)
    T = Poly.T(K)
    nm = WeightedNorm(K, (F(1), F(2)))
    for x in ((T,), (T, T, T), ()):
        with pytest.raises(ValueError,
                           match=f"vector has length {len(x)}, expected 2"):
            nm.norm(x)
    assert nm.norm((T, T)) == 4


def test_rejects_generators_of_another_length():
    K = gf(2)
    zero, one = Poly.zero(K), Poly.one(K)
    nm = WeightedNorm(K, (F(1), F(1)))
    for gens in ([(one, zero, one), (zero, one)], [(one,), (zero, one)]):
        with pytest.raises(ValueError, match="generator has length"):
            successive_minima(nm, gens)


def test_rejects_non_basis():
    K = gf(2)
    zero = Poly.zero(K)
    nm = WeightedNorm(K, (F(1), F(1)))
    with pytest.raises(ValueError):
        successive_minima(nm, [(zero, zero), (zero, zero)])


def test_rejects_empty_weights():
    with pytest.raises(ValueError):
        WeightedNorm(gf(2), ())


@pytest.mark.parametrize("weights,n,want", [
    ((1, 2, 4), 3, [1, 2, 4]),
    ((1, 1, 1, 1), 4, [1, 1, 1, 1]),
])
def test_minima_beyond_the_search(weights, n, want):
    # both were past the exhaustive search's cap
    K = gf(2)
    nm = WeightedNorm(K, weights)
    gens = _bidiagonal(K, n)
    basis, vals = successive_minima(nm, gens)
    assert vals == want
    assert [nm.norm(b) for b in basis] == vals
    _assert_same_lattice(gens, basis)


@pytest.mark.parametrize("q,n,cases,least", [
    (2, 2, 30, 25), (3, 2, 30, 20), (2, 3, 20, 15), (3, 3, 40, 5)])
def test_reduction_matches_exhaustive_oracle(q, n, cases, least):
    rng = random.Random(f"minima:{q}:{n}")
    checked = 0
    for _ in range(cases):
        nm, gens = _random_case(rng, q, n)
        basis, vals = successive_minima(nm, gens)
        assert vals == sorted(vals)
        assert [nm.norm(b) for b in basis] == vals
        _assert_same_lattice(gens, basis)
        want = _oracle_minima(nm, gens, cap=5_000)
        if want is not None:
            assert vals == want, (nm.weights, gens)
            checked += 1
    assert checked >= least


def test_relation_across_q_classes():
    # the norms fall into the q-classes 2^Z, 3 * 2^Z and 7 * 2^Z, and
    # each collision cancels one entry, so no multiplier crosses a class
    K = gf(2)
    T, one, zero = Poly.T(K), Poly.one(K), Poly.zero(K)
    # two dependent pairs, of norms (1, 2) and (3, 6); T^3 times the first
    # vector has norm 8 at position 1 and 7 at position 5, so a multiplier
    # outside the q-class of 6 would raise the norm it should lower
    nm = WeightedNorm(K, (F(1), F(1), F(3), F(3), F(7, 8)))
    gens = [(one, zero, zero, zero, one), (T, one, zero, zero, zero),
            (zero, zero, one, zero, zero), (zero, zero, T, one, zero),
            (zero, zero, zero, zero, one)]
    basis, vals = successive_minima(nm, gens)
    assert vals == [F(7, 8), 1, 1, 3, 3]
    _assert_same_lattice(gens, basis)


def _pivot(norm, b):
    """The last position i with s_i |b_i| = mu(b)."""
    mu = norm.norm(b)
    return max(i for i, (s, p) in enumerate(zip(norm.weights, b))
               if p and s * p.absolute_value() == mu)


@pytest.mark.parametrize("q,n,cases", [(2, 2, 30), (3, 2, 30), (2, 3, 20),
                                       (3, 3, 40)])
def test_reduced_basis_has_distinct_pivots(q, n, cases):
    # the cases of test_reduction_matches_exhaustive_oracle: distinct
    # pivots put the leading vectors in echelon form
    rng = random.Random(f"minima:{q}:{n}")
    for _ in range(cases):
        nm, gens = _random_case(rng, q, n)
        basis, _ = successive_minima(nm, gens)
        assert sorted(_pivot(nm, b) for b in basis) == list(range(n))


def test_rejects_dependent_nonzero_generators():
    # the reduction reaches a zero vector: (T, T^2) - T (1, T), and
    # (T, T) - T (1, 1)
    K = gf(2)
    T, one = Poly.T(K), Poly.one(K)
    for weights in ((F(1), F(1)), (F(1), F(3)), (F(5), F(1, 2))):
        nm = WeightedNorm(K, weights)
        for gens in ([(one, T), (T, T * T)], [(one, one), (T, T)],
                     [(T, T * T), (one, T)]):
            with pytest.raises(ValueError,
                               match="generators are not a lattice basis"):
                successive_minima(nm, gens)
