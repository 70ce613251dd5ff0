"""Exact linear algebra over Q, determinants over Z and F_q[T], integer
lattice maps, and the F_q(T) reference of ``fqt``."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import drinfan.linalg as linalg_mod
from drinfan.gf import Poly, gf
from drinfan.linalg import (_combine, _int_rows, det, dot, mat_inv, mat_vec,
                            primitive, quotient_lattice_maps, rref,
                            smith_normal_form, solve)
from fqt import RatFunc, field_mat_inv, field_rref, field_solve

small_int = st.integers(-6, 6)


def _sum_of_products(a, b, zero=Fraction(0)):
    """The matrix product by its definition: entry (i, j) is
    sum_k a[i][k] b[k][j]."""
    return [[sum((row[k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for row in a]


def _rank(rows):
    return len(rref(rows)[1])


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


def test_solve_rejects_a_right_hand_side_of_another_length():
    # zip would drop the third equation, or the 3, and both return (1, 2)
    for rows, rhs in (([[1, 0], [0, 1], [1, 1]], [1, 2]),
                      ([[1, 0], [0, 1]], [1, 2, 3]),
                      ([[1, 0], [0, 1]], [[1], [2], [3]])):
        with pytest.raises(ValueError, match=f"right-hand side has length "
                                             f"{len(rhs)}, expected {len(rows)}"):
            solve(rows, rhs)
    assert solve([[1, 0], [0, 1], [1, 1]], [1, 2, 3]) == (1, 2)
    assert solve([[1, 0], [0, 1], [1, 1]], [1, 2, 4]) is None


def test_dot_rejects_vectors_of_different_lengths():
    # zip would pair (1, 2, 3) with (1, 2) and drop the 3
    for a, b in (((1, 2, 3), (1, 2)), ((1,), (1, 2)), ((), (5,))):
        with pytest.raises(ValueError,
                           match=f"lengths {len(a)} and {len(b)}"):
            dot(a, b)
    assert dot((1, 2, 3), (1, 2, Fraction(1, 3))) == 6


def test_mat_vec_rejects_a_vector_of_another_length():
    # zip would drop the 9 and return (1, 2)
    with pytest.raises(ValueError, match="lengths 2 and 3"):
        mat_vec([[1, 0], [0, 1]], (1, 2, 9))
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        mat_vec([[1, 0], [0, 1]], (1,))
    assert mat_vec([[1, 0], [1, 1]], (1, 2)) == (1, 3)


def test_det_rejects_ragged_and_non_square_matrices():
    # Bareiss alone would read the leading 2 x 2 block of [[1, 2, 3],
    # [4, 5, 6]] and return -3, and stop with an IndexError on ragged rows
    with pytest.raises(ValueError, match="2 x 3 matrix is not square"):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="row 1 has length 1, expected 2"):
        det([[1, 2], [3]])
    assert det([[1, 2], [3, 4]]) == -2 and det([]) == 1


def test_mat_inv_rejects_ragged_and_non_square_matrices():
    # elimination alone would give the 2 x 3 matrix a 2 x 3 "inverse",
    # and the ragged one an answer
    with pytest.raises(ValueError, match="2 x 3 matrix is not square"):
        mat_inv([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="row 1 has length 3, expected 2"):
        mat_inv([[1, 2], [3, 4, 5]])
    assert mat_inv([[1, 2], [3, 4]]) == [[-2, 1], [Fraction(3, 2),
                                                   Fraction(-1, 2)]]


def test_empty_matrix():
    assert mat_inv([]) == []
    assert det([]) == 1
    assert rref([]) == ([], [])
    assert solve([], []) == ()


def test_rref_rejects_ragged_rows():
    for rows, got in (([[1, 2], [3]], 1), ([[1], [3, 4], [5]], 2)):
        with pytest.raises(ValueError,
                           match=f"row 1 has length {got}, expected "
                                 f"{len(rows[0])}"):
            rref(rows)


def test_solve_rejects_ragged_rows():
    with pytest.raises(ValueError, match="row 1 has length 1, expected 2"):
        solve([[1, 2], [3]], [1, 2])
    with pytest.raises(ValueError, match="right-hand side row 1 has length "
                                         "1, expected 2"):
        solve([[1, 0], [0, 1]], [[1, 2], [3]])
    assert solve([[1, 0], [0, 1]], [[1, 2], [3, 4]]) == ((1, 2), (3, 4))


def test_smith_normal_form_rejects_ragged_rows():
    # the Smith steps alone would return S = [[1], [0]], dropping the 4
    with pytest.raises(ValueError, match="row 1 has length 2, expected 1"):
        smith_normal_form([[1], [3, 4]])


def test_quotient_lattice_maps_rejects_lines_of_another_length():
    # the Smith form alone would give [[1, 2, 3]] in Z^2 the saturation
    # basis [(1, 2)], dropping the 3
    with pytest.raises(ValueError, match="line has length 3, expected 2"):
        quotient_lattice_maps([[1, 2, 3]], 2)
    with pytest.raises(ValueError, match="line 1 has length 1, expected 2"):
        quotient_lattice_maps([[1, 2], [3]], 2)
    assert quotient_lattice_maps([[1, 2]], 2)[3] == [(1, 2)]


@given(int_matrix())
@settings(max_examples=80, deadline=None)
# matrices on which a floor-quotient remainder chase grew entries to
# millions of bits
@example([[-6, 0, 7, 0, -29], [-7, 28, 26, -11, 4], [17, 12, -26, -20, -5],
          [-29, -18, 2, 29, 23], [-29, 26, 24, 25, 8]])
@example([[-5, 14, 1, 15, 9, -6], [12, -8, -9, -5, -26, 0],
          [26, 24, 22, 0, -20, -21], [0, -13, 0, -28, 0, 0],
          [8, 9, 26, -9, 0, 21]])
@example([[8, -24, 26, -3, 21, 0], [0, 8, 8, 10, -7, 0],
          [24, 0, 30, -4, 27, -22], [-22, -3, 25, 22, 0, 20]])
@example([[0, -8, -3, 0, -7, 0], [-4, -4, -6, 6, 2, 6],
          [8, 7, -1, -6, -6, -6], [9, 5, -9, -7, 3, 0], [-8, 7, 5, 6, 0, 0],
          [-8, 0, 9, 0, 0, 5]])
# one input per kind of step: an extended-gcd row step (3 is not a
# multiple of the pivot 2), an extended-gcd column step that refills
# column 0, the row add (2 does not divide 3), a negative pivot, and a
# block with no nonzero entry left
@example([[2], [3]])
@example([[2, 3], [4, 5]])
@example([[2, 0], [0, 3]])
@example([[-2, 4]])
@example([[1, 2], [2, 4]])
def test_smith_normal_form(a):
    U, S, V = smith_normal_form(a)
    assert _sum_of_products(_sum_of_products(U, a, 0), V, 0) == S
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
    assert _sum_of_products(m, inv) == [[Fraction(1), Fraction(0)],
                               [Fraction(0), Fraction(1)]]


def test_mat_inv_of_a_singular_matrix_raises():
    for m in ([[1, 2], [2, 4]], [[0, 0], [0, 0]],
              [[Fraction(1, 2), 1, 0], [0, 0, 1], [1, 2, 3]]):
        with pytest.raises(ValueError, match="singular"):
            mat_inv(m)


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
        if len(field_rref(a)[1]) == n:
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
        x = field_solve(a, b)
        assert [row[0] for row in _sum_of_products(a, [[v] for v in x], zero)
                ] == b
        identity = [[one if i == j else zero for j in range(n)]
                    for i in range(n)]
        assert _sum_of_products(field_mat_inv(a), a, zero) == identity
        assert _sum_of_products(a, field_mat_inv(a), zero) == identity


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
        x = field_solve(a, b)  # consistent: one solution, free unknowns zero
        assert x is not None
        assert [row[0] for row in _sum_of_products(a, [[v] for v in x], zero)
                ] == b
        assert x.count(zero) >= 1
        b[-1] = b[-1] + RatFunc.one(field)
        assert field_solve(a, b) is None
        with pytest.raises(ValueError):
            field_mat_inv(a)


def _column_solves(a, b, solver=solve):
    """Oracle for a matrix right-hand side: one vector solve per column."""
    cols = [solver(a, [row[j] for row in b]) for j in range(len(b[0]))]
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
        b = _sum_of_products(a, x)
        if kind == "inconsistent":
            j = rng.randrange(k)
            if _rank(a) == m:  # no room for an inconsistent right-hand side
                continue
            b[-1][j] += 1
        got = solve(a, b)
        assert got == _column_solves(a, b)
        assert solve(a, [tuple(row) for row in b]) == got  # rows as tuples
        if kind == "inconsistent":
            assert got is None
        else:
            assert got is not None and _sum_of_products(a, got) == b
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
        got = field_solve(a, b)
        assert got == _column_solves(a, b, field_solve)
        assert _sum_of_products(a, got, RatFunc.zero(field)) == b


# -- rref against field Gauss-Jordan ------------------------------------------

def _fraction_rref(rows):
    """Oracle for ``rref`` on rational input: Gauss-Jordan on Fractions."""
    return field_rref([[Fraction(x) for x in row] for row in rows])


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
    assert _int_rows([[1, 2.5]]) is None  # not rational: rref raises


def test_int_rows_divide_all_int_rows_by_their_gcd(monkeypatch):
    # an all-int row skips the lcm pass and gives the rows of the same
    # entries as Fractions: zero rows, negative entries, gcds above 1
    rows = [[0, 0, 0], [6, -4, 10], [-9, 0, 12], [7, -3, 0], [-5], []]
    rng = random.Random(7)
    rows += [[rng.randint(-30, 30) * rng.choice((1, 2, 6))
              for _ in range(rng.randint(0, 5))] for _ in range(200)]
    want = _int_rows([[Fraction(x) for x in row] for row in rows])
    assert want[:6] == [(0, 0, 0), (3, -2, 5), (-3, 0, 4), (7, -3, 0),
                        (-1,), ()]
    monkeypatch.setattr(linalg_mod, "_over_lcm", None)  # no lcm pass
    assert _int_rows(rows) == want


def test_non_rational_entries_raise_type_error():
    # rref, solve and mat_inv work over Q: a float or a rational function
    # is named in a TypeError, never converted
    field = gf(2)
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    with pytest.raises(TypeError, match="float"):
        solve([[1]], [0.1])
    with pytest.raises(TypeError, match="float"):
        rref([[1, Fraction(1, 2)], [0.5, 2]])
    with pytest.raises(TypeError, match="float"):
        mat_inv([[1.0, 0], [0, 1]])
    a = [[one, zero], [zero, one]]
    with pytest.raises(TypeError, match="RatFunc"):
        rref(a)
    with pytest.raises(TypeError, match="RatFunc"):
        solve(a, [one, zero])
    with pytest.raises(TypeError, match="RatFunc"):
        mat_inv(a)
