"""Exact linear algebra over a field, over an integral domain, and over Z.

Exact elimination lives here, and only here: one Gauss-Jordan loop,
``_gauss_jordan``, for Z, Q and F_q(T), with the row step a parameter.
The integer step ``_combine`` (a combination of two rows divided by its
gcd) also runs the cone engine's canonical form and double description.

* Gauss-Jordan over an exact field: ``rref`` and the ``rank``,
  ``nullspace``, ``solve``, ``mat_inv`` and ``mat_mul`` built on it work on
  ``fractions.Fraction`` entries (ints are promoted) or on ``RatFunc``
  entries of F_q(T).  The field is the one the entries live in.  A
  rational matrix is eliminated fraction-free, on ints, and only the
  reduced rows are made ``Fraction``s; a ``RatFunc`` matrix is eliminated
  over its field.  ``solve`` takes one right-hand side or a matrix of them
  (one row per equation, as ``numpy.linalg.solve`` does) and eliminates
  ``[A | B]`` once for all of its columns.
* ``det``: the fraction-free Bareiss determinant over any integral domain
  with exact ``//``; drinfan uses it over Z and over F_q[T] (``Poly``).
* Over Z: primitive vectors (an all-int vector is divided by its gcd,
  with no ``Fraction``), Smith normal form with transformation matrices
  and quotient coordinates for Z^n modulo a saturated sublattice
  (``quotient_lattice_maps``).  The cone engine uses the Smith form for
  parallelepiped points and the quotient coordinates for Hilbert bases.
  ``dot``, ``mat_vec`` and ``frac_vec`` are rational only.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .gf import RatFunc

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]

__all__ = [
    "frac_vec", "dot", "rref", "rank", "nullspace", "solve", "mat_inv",
    "mat_mul", "mat_vec", "det", "primitive", "smith_normal_form",
    "quotient_lattice_maps",
]


def _entry(x):
    """x as a field element: a RatFunc stays, anything else is a Fraction."""
    return x if type(x) is RatFunc else Fraction(x)


def _zero_one(x) -> tuple:
    """The 0 and 1 of the field of the entry x."""
    if type(x) is RatFunc:
        return RatFunc.zero(x.field), RatFunc.one(x.field)
    return Fraction(0), Fraction(1)


def frac_vec(v: Sequence) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum(((x if type(x) is Fraction else Fraction(x))
                * (y if type(y) is Fraction else Fraction(y))
                for x, y in zip(a, b)), Fraction(0))


def _combine(c1: int, v1, c2: int, v2) -> tuple[int, ...]:
    """c1 v1 + c2 v2 divided by the gcd of its entries (zero stays zero)."""
    w = [c1 * x + c2 * y for x, y in zip(v1, v2)]
    g = gcd(*w)
    return tuple(w) if g <= 1 else tuple(x // g for x in w)


def _over_lcm(v: Sequence) -> tuple[list[int], int]:
    """(w, den) with v = w / den exactly, for entries that are ints or
    Fractions: den is the lcm of their denominators."""
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def _int_rows(rows: Sequence[Sequence]) -> list[tuple[int, ...]] | None:
    """Each row times the lcm of its denominators, divided by its gcd.

    None if some entry is neither an int nor a Fraction.
    """
    out = []
    for row in rows:
        if not all(type(x) is int or type(x) is Fraction for x in row):
            return None
        w = _over_lcm(row)[0]
        g = gcd(*w)
        out.append(tuple(w) if g <= 1 else tuple(x // g for x in w))
    return out


def _field_combine(c1, v1, c2, v2) -> list:
    """(c1 v1 + c2 v2) / c1 over a field: the row step of a RatFunc
    elimination.  Dividing by c1 keeps the entries from growing in degree."""
    t = c2 / c1
    return [x + t * y for x, y in zip(v1, v2)]


def _gauss_jordan(m: list, step) -> list[int]:
    """Gauss-Jordan on the rows of m, in place; returns the pivot columns.

    Pivots are chosen as over the field.  The pivot row is never scaled;
    every other row with an entry f in the pivot column becomes
    ``step(p, row, -f, pivot_row)``, p the pivot, a nonzero multiple of
    ``p*row - f*pivot_row``.  So the first ``len(pivots)`` rows are the
    reduced row echelon form up to one nonzero scalar each, and the rest
    are zero.
    """
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        row = m[r]
        p = row[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                m[i] = step(p, m[i], -f, row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    The entries are Fractions (ints are promoted) or RatFuncs, and the
    result is over their field.  A rational matrix is reduced fraction-free:
    its rows are scaled once to primitive integer rows and run through
    ``_gauss_jordan`` with the ``_combine`` step.  A RatFunc matrix runs
    through it with ``_field_combine``.  The reduced row echelon form is
    unique, so dividing each row by its pivot at the end gives exactly the
    field result (every entry a Fraction for a rational matrix).
    """
    if not rows:
        return [], []
    m = _int_rows(rows)
    if m is None:
        m = [[_entry(x) for x in row] for row in rows]
        pivots = _gauss_jordan(m, _field_combine)
        red = [[x / row[c] for x in row] for row, c in zip(m, pivots)]
        return red + m[len(pivots):], pivots
    pivots = _gauss_jordan(m, _combine)
    zero = Fraction(0)
    red = [[Fraction(x, row[c]) if x else zero for x in row]
           for row, c in zip(m, pivots)]
    red += [[zero] * len(m[0]) for _ in range(len(pivots), len(m))]
    return red, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vec]:
    """Basis of {x : A x = 0} (column vectors as tuples)."""
    rows = [list(r) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for empty matrix")
        n = ncols
        out = []
        for i in range(n):
            e = [Fraction(0)] * n
            e[i] = Fraction(1)
            out.append(tuple(e))
        return out
    n = len(rows[0])
    red, pivots = rref(rows)
    zero, one = _zero_one(red[0][0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence):
    """One solution of A x = b (free unknowns 0), or None if inconsistent.

    rhs is a vector b, or a matrix B given by its rows, one per equation
    (as in numpy.linalg.solve).  For a matrix the result is X, as a tuple of
    rows, one per unknown, with A X = B: one elimination of [A | B] solves
    every column, each column exactly as a solve of that column alone
    would, and the result is None if any column is inconsistent.  The
    first pivot in the B columns marks the first inconsistent column.
    """
    matrix = bool(rhs) and isinstance(rhs[0], (list, tuple))
    aug = [list(r) + (list(b) if matrix else [b]) for r, b in zip(rows, rhs)]
    if not aug:
        return ()
    n = len(rows[0])
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    zero = _zero_one(red[0][0])[0]
    x = [[zero] * (len(aug[0]) - n)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n:]
    if matrix:
        return tuple(tuple(row) for row in x)
    return tuple(row[0] for row in x)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Mat:
    a = [[_entry(x) for x in row] for row in a]
    b = [[_entry(x) for x in row] for row in b]
    zero = _zero_one(b[0][0])[0]
    return [[sum((row[k] * b[k][j] for k in range(len(b))), zero)
             for j in range(len(b[0]))] for row in a]


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in a)


def mat_inv(a: Sequence[Sequence]) -> Mat:
    n = len(a)
    zero, one = _zero_one(a[0][0])
    aug = [list(row) + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def det(m: Sequence[Sequence]):
    """Determinant by fraction-free elimination (Bareiss, 1968).

    Works over any integral domain whose ``//`` is exact division, such as
    int or Poly; every intermediate stays in the ring.  The empty matrix
    has determinant 1.
    """
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    negate = False
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return a[k][k]
            a[k], a[piv] = a[piv], a[k]
            negate = not negate
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = t if prev is None else t // prev
        prev = a[k][k]
    return -a[n - 1][n - 1] if negate else a[n - 1][n - 1]


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same direction).

    An all-int vector is divided by the gcd of its entries, with no
    ``Fraction`` made.
    """
    if not all(type(x) is int for x in v):
        v = _over_lcm([Fraction(x) for x in v])[0]
    g = gcd(*v)
    if g == 0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(v) if g == 1 else tuple(x // g for x in v)


def _identity_int(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, S, V) with U @ A @ V = S diagonal, U and V unimodular."""
    s = [list(map(int, row)) for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    U = _identity_int(m)
    V = _identity_int(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):  # row i += c * row j
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]

    def add_col(i, j, c):  # col i += c * col j
        for row in s:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    def neg_row(i):
        s[i] = [-x for x in s[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0:
                    if piv is None or abs(s[i][j]) < abs(s[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if s[t][t] < 0:
            neg_row(t)
        t += 1
    # enforce divisibility d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(m, n) - 1):
            a_, b_ = s[i][i], s[i + 1][i + 1]
            if a_ and b_ and b_ % a_ != 0:
                add_col(i, i + 1, 1)
                # re-clear the 2x2 block
                while s[i + 1][i] != 0 or s[i][i + 1] != 0:
                    if s[i + 1][i] != 0:
                        q = s[i + 1][i] // s[i][i] if s[i][i] else 0
                        if s[i][i] == 0 or (q == 0 and abs(s[i + 1][i]) < abs(s[i][i])):
                            swap_rows(i, i + 1)
                            continue
                        add_row(i + 1, i, -q)
                    if s[i][i + 1] != 0:
                        q = s[i][i + 1] // s[i][i] if s[i][i] else 0
                        if s[i][i] == 0 or (q == 0 and abs(s[i][i + 1]) < abs(s[i][i])):
                            swap_cols(i, i + 1)
                            continue
                        add_col(i + 1, i, -q)
                if s[i][i] < 0:
                    neg_row(i)
                if s[i + 1][i + 1] < 0:
                    neg_row(i + 1)
                changed = True
    return U, s, V


def quotient_lattice_maps(lines: Sequence[Sequence[int]], n: int):
    """Coordinate maps for Z^n modulo the saturation of span(lines).

    Returns (k, project, lift, sat_basis): k is the rank of the quotient
    Z^(n-rank), project(x) maps an integer vector to its quotient
    coordinates, lift(c) maps quotient coordinates back to a representative
    in Z^n, and sat_basis is a Z-basis of the saturation of span(lines).
    """
    if not lines:
        def project0(x):
            return tuple(int(v) for v in x)

        def lift0(c):
            return tuple(int(v) for v in c)

        return n, project0, lift0, []
    U, S, V = smith_normal_form([list(map(int, row)) for row in lines])
    r = sum(1 for i in range(min(len(lines), n)) if S[i][i] != 0)
    # rows of W = V^{-1} form a Z-basis of Z^n whose first r rows span the
    # saturation of span(lines); quotient coords of x are the last n-r
    # entries of x @ V.
    Vmat = V

    def project(x):
        return tuple(sum(int(x[i]) * Vmat[i][j] for i in range(n)) for j in range(r, n))

    Winv_rows = mat_inv(Vmat)  # W = V^{-1}; rows of W are the adapted basis
    W_int = [[int(e) for e in row] for row in Winv_rows]

    def lift(c):
        return tuple(sum(int(c[j]) * W_int[r + j][i] for j in range(len(c)))
                     for i in range(n))

    sat_basis = [tuple(W_int[i][j] for j in range(n)) for i in range(r)]
    return n - r, project, lift, sat_basis
