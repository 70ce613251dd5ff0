"""Exact linear algebra over Q and F_q(T), determinants over Z and F_q[T],
and integer lattice maps."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinfan.gf import Poly, RatFunc, gf
from drinfan.linalg import (_combine, _int_rows, det, mat_inv, mat_mul,
                            mat_vec, nullspace, primitive, rank, rref,
                            smith_normal_form, solve)

small_int = st.integers(-6, 6)


@st.composite
def int_matrix(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_n))
    return [[draw(small_int) for _ in range(m)] for _ in range(n)]


@given(int_matrix())
@settings(max_examples=100, deadline=None)
def test_solve_consistency(a):
    rng = random.Random(7)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(len(a[0]))]
    b = mat_vec([[Fraction(v) for v in row] for row in a], x)
    sol = solve([list(map(Fraction, row)) for row in a], list(b))
    assert sol is not None
    assert list(mat_vec([[Fraction(v) for v in row] for row in a], sol)) \
        == list(b)


@given(int_matrix())
@settings(max_examples=100, deadline=None)
def test_nullspace_is_kernel(a):
    ns = nullspace([list(map(Fraction, row)) for row in a], ncols=len(a[0]))
    for v in ns:
        assert all(sum(Fraction(r[j]) * v[j] for j in range(len(v))) == 0
                   for r in a)
    assert len(ns) == len(a[0]) - rank([list(map(Fraction, r)) for r in a])


@given(int_matrix())
@settings(max_examples=80, deadline=None)
def test_smith_normal_form(a):
    U, S, V = smith_normal_form(a)
    assert mat_mul(mat_mul(U, a), V) == S
    # diagonal with divisibility
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    for i in range(len(S)):
        for j in range(len(S[0])):
            if i != j:
                assert S[i][j] == 0
    nz = [d for d in diag if d != 0]
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0


@given(int_matrix())
@settings(max_examples=80, deadline=None)
def test_int_kernel(a):
    # the last n - r columns of V in U A V = S span the saturated kernel
    U, S, V = smith_normal_form(a)
    n = len(a[0])
    r = sum(1 for i in range(min(len(a), n)) if S[i][i] != 0)
    basis = [tuple(V[i][j] for i in range(n)) for j in range(r, n)]
    for v in basis:
        assert all(sum(r[j] * v[j] for j in range(len(v))) == 0 for r in a)


def test_mat_inv():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = mat_inv(m)
    assert mat_mul(m, inv) == [[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]]


def test_primitive():
    assert primitive((Fraction(2, 3), Fraction(4, 3))) == (1, 2)
    assert primitive((Fraction(0), Fraction(-2))) == (0, -1)
    # all-int vectors: divided by the gcd, signs kept
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert primitive((-3, 0)) == (-1, 0)
    assert primitive((5, 7)) == (5, 7)
    assert all(type(x) is int for x in primitive((4, -6, 0)))
    # ints mixed with Fractions
    assert primitive((2, Fraction(1, 3))) == (6, 1)
    assert primitive((Fraction(-4), 6)) == (-2, 3)
    for zero in ((0, 0), (Fraction(0), 0), ()):
        with pytest.raises(ValueError, match="zero vector"):
            primitive(zero)


def _perm_det(m, zero, one):
    """Reference determinant: the signed sum over all n! permutations."""
    n = len(m)
    total = zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = one
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total - term if inversions % 2 else total + term
    return total


def _random_poly(rng, field, max_deg=2):
    return Poly.make(field, [rng.randrange(field.q)
                             for _ in range(rng.randint(0, max_deg + 1))])


def _make_singular(rng, m, scale):
    """Overwrite one row by a multiple of another (n >= 2)."""
    i, j = rng.sample(range(len(m)), 2)
    m[i] = [scale(x) for x in m[j]]


def test_det_matches_permutation_sum_over_integers():
    rng = random.Random(11)
    singular = 0
    for trial in range(400):
        n = rng.randint(0, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 4 == 0:
            _make_singular(rng, m, lambda x: -3 * x)
        expected = _perm_det(m, 0, 1)
        singular += expected == 0
        assert det(m) == expected
    assert singular >= 80


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_det_matches_permutation_sum_over_polynomials(q):
    field = gf(q)
    zero, one = Poly.zero(field), Poly.one(field)
    T = Poly.T(field)
    rng = random.Random(q)
    singular = 0
    for trial in range(150):
        n = rng.randint(1, 4)
        m = [[_random_poly(rng, field) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 3 == 0:
            _make_singular(rng, m, lambda x: x * (T + one))
        expected = _perm_det(m, zero, one)
        singular += expected.is_zero()
        assert det(m) == expected
    assert singular >= 40


def _random_ratfunc(rng, field):
    den = _random_poly(rng, field, 1)
    while den.is_zero():
        den = _random_poly(rng, field, 1)
    return RatFunc.make(_random_poly(rng, field), den)


def _invertible_ratfunc_matrix(rng, field, n):
    while True:
        a = [[_random_ratfunc(rng, field) for _ in range(n)] for _ in range(n)]
        if rank(a) == n:
            return a


@pytest.mark.parametrize("q", [2, 3, 4])
def test_solve_and_inverse_over_rational_functions(q):
    field = gf(q)
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    rng = random.Random(100 + q)
    for _ in range(12):
        n = rng.randint(1, 3)
        a = _invertible_ratfunc_matrix(rng, field, n)
        b = [_random_ratfunc(rng, field) for _ in range(n)]
        x = solve(a, b)
        assert [row[0] for row in mat_mul(a, [[v] for v in x])] == b
        identity = [[one if i == j else zero for j in range(n)]
                    for i in range(n)]
        assert mat_mul(mat_inv(a), a) == identity
        assert mat_mul(a, mat_inv(a)) == identity


@pytest.mark.parametrize("q", [2, 3, 4])
def test_solve_over_rational_functions_detects_inconsistency(q):
    field = gf(q)
    zero = RatFunc.zero(field)
    T = RatFunc.of(Poly.T(field))
    rng = random.Random(200 + q)
    for _ in range(12):
        n = rng.randint(2, 3)
        a = _invertible_ratfunc_matrix(rng, field, n)
        # the last row becomes T * (first row): rank n - 1
        a[-1] = [T * x for x in a[0]]
        b = [_random_ratfunc(rng, field) for _ in range(n)]
        b[-1] = T * b[0]
        x = solve(a, b)  # consistent: one solution, free unknowns zero
        assert x is not None
        assert [row[0] for row in mat_mul(a, [[v] for v in x])] == b
        assert x.count(zero) >= 1
        b[-1] = b[-1] + RatFunc.one(field)
        assert solve(a, b) is None
        kernel = nullspace(a)
        assert len(kernel) == 1
        assert all(not row[0] for row in mat_mul(a, [[c] for c in kernel[0]]))
        with pytest.raises(ValueError):
            mat_inv(a)


def _column_solves(a, b):
    """Oracle for a matrix right-hand side: one vector solve per column."""
    cols = [solve(a, [row[j] for row in b]) for j in range(len(b[0]))]
    if any(c is None for c in cols):
        return None
    return tuple(zip(*cols))


def test_solve_matrix_rhs_matches_column_solves():
    rng = random.Random(31)
    kinds = {"consistent": 0, "rank-deficient": 0, "inconsistent": 0}
    for trial in range(90):
        m, n, k = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3)
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)] for _ in range(m)]
        kind = list(kinds)[trial % 3]
        if kind != "consistent":
            if m == 1:
                continue
            a[-1] = [2 * x for x in a[0]]  # rank below m
        x = [[Fraction(rng.randint(-5, 5)) for _ in range(k)]
             for _ in range(n)]
        b = mat_mul(a, x)
        if kind == "inconsistent":
            j = rng.randrange(k)
            if rank(a) == m:  # no room for an inconsistent right-hand side
                continue
            b[-1][j] += 1
        got = solve(a, b)
        assert got == _column_solves(a, b)
        assert solve(a, [tuple(row) for row in b]) == got  # rows as tuples
        if kind == "inconsistent":
            assert got is None
        else:
            assert got is not None and mat_mul(a, got) == b
            assert len(got) == n and all(len(row) == k for row in got)
        kinds[kind] += 1
    assert all(kinds.values())


@pytest.mark.parametrize("q", [2, 3])
def test_solve_matrix_rhs_over_rational_functions(q):
    field = gf(q)
    rng = random.Random(300 + q)
    for _ in range(6):
        n = rng.randint(1, 3)
        a = _invertible_ratfunc_matrix(rng, field, n)
        b = [[_random_ratfunc(rng, field) for _ in range(2)]
             for _ in range(n)]
        got = solve(a, b)
        assert got == _column_solves(a, b)
        assert mat_mul(a, got) == b


# -- rref against field Gauss-Jordan ------------------------------------------

def _field_rref(rows):
    """Oracle for ``rref``: Gauss-Jordan over the field of the entries,
    each pivot row divided by its pivot before it clears its column."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _fraction_rref(rows):
    """Oracle for ``rref`` on rational input: Gauss-Jordan on Fractions."""
    return _field_rref([[Fraction(x) for x in row] for row in rows])


def _random_rational_matrix(rng, nrows, ncols, max_den):
    """Rows of a random rank, with zero rows and zero columns mixed in."""
    rank_ = rng.randint(0, min(nrows, ncols))
    basis = [[Fraction(rng.randint(-9, 9), rng.randint(1, max_den))
              for _ in range(ncols)] for _ in range(rank_)]
    zero_cols = {c for c in range(ncols) if rng.random() < 0.2}
    rows = []
    for _ in range(nrows):
        if not basis or rng.random() < 0.15:
            row = [Fraction(0)] * ncols
        else:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                      for _ in basis]
            row = [sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                   for j in range(ncols)]
        row = [Fraction(0) if j in zero_cols else x for j, x in enumerate(row)]
        # integral entries as ints, as callers pass them
        rows.append([int(x) if x.denominator == 1 and rng.random() < 0.5
                     else x for x in row])
    return rows


def test_rref_matches_field_oracle():
    rng = random.Random(2024)
    seen = {"wide": 0, "tall": 0, "deficient": 0, "zero row": 0,
            "zero column": 0, "negative": 0, "big denominator": 0}
    for trial in range(400):
        nrows, ncols = rng.randint(1, 7), rng.randint(0, 7)
        max_den = rng.choice((1, 3, 10 ** 6))
        rows = _random_rational_matrix(rng, nrows, ncols, max_den)
        red, pivots = rref(rows)
        assert (red, pivots) == _fraction_rref(rows), trial
        assert all(type(x) is Fraction for row in red for x in row), trial
        assert len(red) == nrows and all(len(row) == ncols for row in red)
        seen["wide"] += ncols > nrows
        seen["tall"] += nrows > ncols
        seen["deficient"] += len(pivots) < min(nrows, ncols)
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(row[j] for row in rows)
                                   for j in range(ncols))
        seen["negative"] += any(x < 0 for row in rows for x in row)
        seen["big denominator"] += any(
            Fraction(x).denominator > 10 ** 4 for row in rows for x in row)
    assert min(seen.values()) >= 20, seen


def test_rref_edge_shapes():
    assert rref([]) == ([], [])
    assert rref([[], []]) == ([[], []], [])
    assert rref([[0, 0], [0, 0]]) == _fraction_rref([[0, 0], [0, 0]])
    rows = [[0, Fraction(-3, 10 ** 6), 5], [0, 1, Fraction(7, 2)]]
    assert rref(rows) == _fraction_rref(rows)
    assert rref(rows)[0] == [[0, 1, 0], [0, 0, 1]]
    # the input is not modified
    assert rows == [[0, Fraction(-3, 10 ** 6), 5], [0, 1, Fraction(7, 2)]]


def test_integer_row_steps_stay_primitive():
    assert _combine(2, (1, 1), 2, (1, 3)) == (1, 2)
    assert _combine(1, (1, 2), -1, (1, 2)) == (0, 0)
    assert _combine(3, (1, 0), -1, (0, 5)) == (3, -5)
    assert _int_rows([[Fraction(2, 3), 4, Fraction(-2, 9)], [0, 0], []]) \
        == [(3, 18, -1), (0, 0), ()]
    assert _int_rows([[6, -4]]) == [(3, -2)]
    assert _int_rows([[1, 2.5]]) is None  # left to the field path


# -- rref over F_q(T) against field Gauss-Jordan ------------------------------

def _random_ratfunc_matrix(rng, field, nrows, ncols):
    """Rows of a random rank over F_q(T), with zero rows mixed in."""
    zero = RatFunc.zero(field)
    rank_ = rng.randint(0, min(nrows, ncols))
    basis = [[_random_ratfunc(rng, field) for _ in range(ncols)]
             for _ in range(rank_)]
    rows = []
    for _ in range(nrows):
        if not basis or rng.random() < 0.15:
            rows.append([zero] * ncols)
            continue
        coeffs = [_random_ratfunc(rng, field) for _ in basis]
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), zero)
                     for j in range(ncols)])
    return rows


@pytest.mark.parametrize("q", [2, 3])
def test_rref_over_rational_functions_matches_field_oracle(q):
    field = gf(q)
    rng = random.Random(400 + q)
    seen = {"wide": 0, "tall": 0, "deficient": 0, "zero row": 0}
    for trial in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_ratfunc_matrix(rng, field, nrows, ncols)
        red, pivots = rref(rows)
        assert (red, pivots) == _field_rref(rows), trial
        assert all(type(x) is RatFunc for row in red for x in row), trial
        seen["wide"] += ncols > nrows
        seen["tall"] += nrows > ncols
        seen["deficient"] += len(pivots) < min(nrows, ncols)
        seen["zero row"] += any(not any(row) for row in rows)
    assert min(seen.values()) >= 10, seen
