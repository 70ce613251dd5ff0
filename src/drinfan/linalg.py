"""Exact linear algebra over Q, over an integral domain, and over Z.

Exact elimination lives here, and only here: one Gauss-Jordan loop,
``_gauss_jordan``, on primitive integer rows.  Its row step ``_combine``
(a combination of two rows divided by its gcd) also runs the cone
engine's canonical form and double description.

* Gauss-Jordan over Q: ``rref`` and the ``solve`` and ``mat_inv`` built
  on it take ``int`` and ``fractions.Fraction`` entries, and raise a
  ``TypeError`` naming any other entry type (a float is not converted).
  A rational matrix is eliminated fraction-free, on ints, and only the
  reduced rows are made ``Fraction``s (an all-int row, such as a
  linearization sample's, goes in divided by its gcd, with no lcm pass).
  ``solve`` takes one right-hand side or a matrix of them (one row per
  equation, as ``numpy.linalg.solve`` does) and eliminates ``[A | B]``
  once for all of its columns.
* ``det``: the fraction-free Bareiss determinant over any integral domain
  with exact ``//``: over Z in the library, and over F_q[T] (``Poly``) in
  the tests.  There is no kernel routine; ``norms`` needs none.
* Over Z: primitive vectors (an all-int vector is divided by its gcd,
  with no ``Fraction``), Smith normal form with transformation matrices
  and quotient coordinates for Z^n modulo a saturated sublattice
  (``quotient_lattice_maps``).  The Smith form is one loop of exact and
  extended-gcd steps on one augmented matrix [[A, I], [I, 0]]; each
  extended-gcd step shrinks the pivot to a proper divisor, so it always
  terminates.  The cone engine uses the Smith form for parallelepiped
  points and the quotient coordinates for Hilbert bases.  ``dot``,
  ``mat_vec`` and ``frac_vec`` are rational only.

Public matrix functions check on entry that their rows share one length
(``det`` and ``mat_inv`` that the matrix is square) and raise a
``ValueError`` naming the lengths; the elimination loops check nothing.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]

__all__ = [
    "frac_vec", "dot", "rref", "solve", "mat_inv", "mat_vec",
    "det", "primitive", "smith_normal_form", "quotient_lattice_maps",
]


def _row_length(rows, what: str = "row", square: bool = False) -> int:
    """The length that all rows share (0 for no rows); ValueError naming
    the first row of another length, or the shape if square is asked."""
    n = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"{what} {i} has length {len(row)}, expected {n}")
    if square and n != len(rows):
        raise ValueError(f"{len(rows)} x {n} matrix is not square")
    return n


def frac_vec(v: Sequence) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dot product of vectors of lengths {len(a)} "
                         f"and {len(b)}")
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
    """Each row times the lcm of its denominators, divided by its gcd; an
    all-int row is divided by its gcd only.

    None if some entry is neither an int nor a Fraction.
    """
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            w = row
        elif all(type(x) is int or type(x) is Fraction for x in row):
            w = _over_lcm(row)[0]
        else:
            return None
        g = gcd(*w)
        out.append(tuple(w) if g <= 1 else tuple(x // g for x in w))
    return out


def _gauss_jordan(m: list) -> list[int]:
    """Gauss-Jordan on the integer rows of m, in place; returns the pivot
    columns.

    Pivots are chosen as over Q.  The pivot row is never scaled; every
    other row with an entry f in the pivot column becomes
    ``_combine(p, row, -f, pivot_row)``, p the pivot, a nonzero multiple
    of ``p*row - f*pivot_row``.  So the first ``len(pivots)`` rows are the
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
                m[i] = _combine(p, m[i], -f, row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form over Q; returns (matrix, pivot column
    indices).

    The entries are ints or Fractions; any other entry type raises a
    ``TypeError`` that names it.  The matrix is reduced fraction-free: its
    rows are scaled once to primitive integer rows and run through
    ``_gauss_jordan``.  The reduced row echelon form is unique, so dividing
    each row by its pivot at the end gives exactly the rational result,
    every entry a Fraction.
    """
    if not rows:
        return [], []
    _row_length(rows)
    m = _int_rows(rows)
    if m is None:
        bad = next(x for row in rows for x in row
                   if type(x) is not int and type(x) is not Fraction)
        raise TypeError("rref works over Q: entries must be int or "
                        f"Fraction, not {type(bad).__name__}")
    pivots = _gauss_jordan(m)
    zero = Fraction(0)
    red = [[Fraction(x, row[c]) if x else zero for x in row]
           for row, c in zip(m, pivots)]
    red += [[zero] * len(m[0]) for _ in range(len(pivots), len(m))]
    return red, pivots


def solve(rows: Sequence[Sequence], rhs: Sequence):
    """One solution of A x = b (free unknowns 0), or None if inconsistent.

    rhs is a vector b, or a matrix B given by its rows, one per equation
    (as in numpy.linalg.solve).  For a matrix the result is X, as a tuple of
    rows, one per unknown, with A X = B: one elimination of [A | B] solves
    every column, each column exactly as a solve of that column alone
    would, and the result is None if any column is inconsistent.  The
    first pivot in the B columns marks the first inconsistent column.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"right-hand side has length {len(rhs)}, "
                         f"expected {len(rows)}, one entry per equation")
    n = _row_length(rows)
    matrix = bool(rhs) and isinstance(rhs[0], (list, tuple))
    if matrix:
        _row_length(rhs, "right-hand side row")
    aug = [list(r) + (list(b) if matrix else [b]) for r, b in zip(rows, rhs)]
    if not aug:
        return ()
    red, pivots = rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    x = [[Fraction(0)] * (len(aug[0]) - n)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n:]
    if matrix:
        return tuple(tuple(row) for row in x)
    return tuple(row[0] for row in x)


def mat_vec(a: Sequence[Sequence], v: Sequence) -> Vec:
    return tuple(dot(row, v) for row in a)


def mat_inv(a: Sequence[Sequence]) -> Mat:
    n = _row_length(a, square=True)
    if n == 0:
        return []
    aug = [list(row) + [int(i == j) for j in range(n)]
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
    n = _row_length(m, square=True)
    a = [list(row) for row in m]
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


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, x0, y0, x1, y1 = b, r, x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, S, V) with U @ A @ V = S diagonal, U and V unimodular.

    The nonzero diagonal entries of S come first, are positive, and each
    divides the next.  One loop works on the augmented matrix
    M = [[A, I_m], [I_n, 0]]: a row step on its first m rows acts on A and
    U at once, a column step on its first n columns on A and V, and at the
    end M = [[S, U], [V, 0]].

    Step t moves the smallest nonzero entry of the block of rows and
    columns t and beyond, the first in row-major order, to the pivot
    p = M[t][t], and clears column t, then row t.  An entry e that p
    divides goes by the exact step: e/p times the pivot's row (column) is
    subtracted from e's.  Any other e goes by the extended-gcd step
    (Cohen, Alg. 2.4.14; Kannan and Bachem, 1979): with
    x p + y e = g = gcd(p, e), the pivot's and e's rows (columns) u, v
    become x u + y v and (p/g) v - (e/g) u, a unimodular step that puts g
    on the pivot and 0 at e.  When row and column are clear but p fails
    to divide an entry of the remaining block, that entry's row is added
    to the pivot row and the clearing goes on; so p divides the whole
    remaining block, and each diagonal entry divides the next.

    Termination: only an extended-gcd step changes p, and it replaces |p|
    by a proper divisor g, so it happens at most log2|p| times in step t.
    A pass of the loop without one ends step t, or adds a row: the row
    pass leaves column t zero below p, exact column steps keep it so, and
    the added row puts into row t an entry that p does not divide, which
    the next pass meets with an extended-gcd step.  So of two passes in a
    row one shrinks |p| or ends step t, step t takes at most
    2 log2|p| + 2 passes, and no remainder is left to chase.
    """
    n = _row_length(a)
    m = len(a)
    M = [[int(x) for x in row] + [int(i == k) for k in range(m)]
         for i, row in enumerate(a)]
    M += [[int(i == j) for j in range(n)] + [0] * m for i in range(n)]
    for t in range(min(m, n)):
        block = [(abs(M[i][j]), i, j) for i in range(t, m)
                 for j in range(t, n) if M[i][j]]
        if not block:
            break
        _, i, j = min(block)
        M[t], M[i] = M[i], M[t]
        for row in M:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                p, e = M[t][t], M[i][t]
                if e % p:
                    g, x, y = _egcd(p, e)
                    pg, eg, u, v = p // g, e // g, M[t], M[i]
                    M[t] = [x * c + y * d for c, d in zip(u, v)]
                    M[i] = [pg * d - eg * c for c, d in zip(u, v)]
                elif e:
                    q = e // p
                    M[i] = [c - q * d for c, d in zip(M[i], M[t])]
            for j in range(t + 1, n):
                p, e = M[t][t], M[t][j]
                if e % p:
                    g, x, y = _egcd(p, e)
                    pg, eg = p // g, e // g
                    for row in M:
                        u, v = row[t], row[j]
                        row[t], row[j] = x * u + y * v, pg * v - eg * u
                elif e:
                    q = e // p
                    for row in M:
                        row[j] -= q * row[t]
            if any(M[i][t] for i in range(t + 1, m)):
                continue  # an extended-gcd column step refilled column t
            p = M[t][t]
            i = next((i for i in range(t + 1, m)
                      if any(M[i][j] % p for j in range(t + 1, n))), None)
            if i is None:
                break
            M[t] = [c + d for c, d in zip(M[t], M[i])]
        if M[t][t] < 0:
            M[t] = [-x for x in M[t]]
    return ([row[n:] for row in M[:m]], [row[:n] for row in M[:m]],
            [row[:n] for row in M[m:]])


def quotient_lattice_maps(lines: Sequence[Sequence[int]], n: int):
    """Coordinate maps for Z^n modulo the saturation of span(lines).

    Returns (k, project, lift, sat_basis): k is the rank of the quotient
    Z^(n-rank), project(x) maps an integer vector to its quotient
    coordinates, lift(c) maps quotient coordinates back to a representative
    in Z^n, and sat_basis is a Z-basis of the saturation of span(lines).
    """
    if _row_length(lines, "line") not in (0, n):
        raise ValueError(f"line has length {len(lines[0])}, expected {n}")
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
