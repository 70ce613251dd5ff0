"""Vector-level piecewise-linear machinery on the weight cone C_d.

Contents:

* the comparison fans Sigma^(k): C_d refined by the finitely many
  hyperplanes of two-term comparisons q^h s_j = s_i (0 <= h < k),
* the index map theta and the flattening map pi attached to a cone of
  Sigma^(k),
* the rescaling maps xi_k (evaluated stratum by stratum on power
  coordinates, always landing in rational coordinates),
* exact linearization: on each cone sigma of Sigma^(k), xi_{k'} factors as
  a single linear map applied to pi; the matrix comes from one exact
  elimination over interior samples, each evaluated once (pi and every
  needed xi_t from one integer stage chain), and is certified on
  generators plus interior points,
* one integer kernel for pi and xi (_chain_values), run by pi_eval on
  stored powers and by the linearization on its samples; xi_eval, one
  epsilon_closed per coordinate, is the reference for its xi,
* the image fans Sigma_k = {xi_k(sigma)} and the piecewise-linear
  transition maps xi_{k,k'} = xi_{k'} o xi_k^{-1} with their cone pieces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .cones import Cone, Fan
from .epsilon import _run, _stage_pairs, delta, epsilon_closed, epsilon_hat
from .gf import check_q
from .linalg import (_over_lcm, frac_vec, mat_inv, mat_mul, mat_vec,
                     primitive, solve)
from .points import ClassPoint, _check_in_cone

__all__ = [
    "cone_Cd", "sigma_upper_fan", "theta_vector", "pi_eval",
    "pi_family_eval", "delta_tilde", "xi_eval", "xi_eval_coords",
    "linearize_xi", "sigma_k_fan", "sigma_kk_map", "PiecewiseLinearMap",
    "LinearizationError", "interior_samples", "contains_class_point",
]


# fresh interior points on which linearize_xi certifies each matrix
_CERTIFY_POINTS = 5


class LinearizationError(ArithmeticError):
    """Raised when a claimed linear factorization fails certification."""


def cone_Cd(d: int) -> Cone:
    """The weight cone {0 <= s_1 <= ... <= s_{d-1}} in R^(d-1)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    n = d - 1
    ineqs = []
    e = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ineqs.append(e[0])
    for i in range(n - 1):
        ineqs.append([b - a for a, b in zip(e[i], e[i + 1])])
    return Cone.from_ineqs(ineqs, n=n)


def _check_q_levels(q: int, *ks: int) -> None:
    check_q(q)
    if any(k < 1 for k in ks):
        raise ValueError("k must be >= 1")


def _check_indices(d: int, **indices: int) -> None:
    for name, i in indices.items():
        if not 1 <= i <= d - 1:
            raise ValueError(f"{name} = {i} is outside 1..{d - 1}")


def _cut(cone: Cone, form: Sequence[int]) -> list[Cone]:
    """The pieces of a full-dimensional pointed cone cut by the hyperplane
    form = 0: the cone itself if the form has one sign on its rays,
    otherwise its intersections with the two closed halfspaces.  Both are
    full-dimensional: the form is > 0 at some ray r, so p + t r, for p
    interior and t large, is an interior point where the form is > 0, and
    a neighbourhood of it lies in the half form >= 0; likewise for < 0."""
    values = [sum(a * x for a, x in zip(form, g)) for g in cone.rays()]
    if all(v >= 0 for v in values) or all(v <= 0 for v in values):
        return [cone]
    return [Cone.from_ineqs(list(cone.ineqs()) + [side], n=cone.n,
                            eqs=cone.eqs())
            for side in (form, [-x for x in form])]


def sigma_upper_fan(q: int, d: int, k: int) -> Fan:
    """The comparison fan Sigma^(k): C_d subdivided by the hyperplanes
    q^h s_j = s_i for 1 <= j < i <= d-1 and 0 <= h <= k-1.

    Built by refinement: starting from C_d, every current maximal cone is
    cut by one hyperplane at a time, keeping a cone the hyperplane does not
    cross and the two full-dimensional halves of one it does.  The fan is
    generated by the resulting chambers; every cell of a sign assignment on
    the comparisons (weak signs included) is a face of a chamber, so this
    is the fan those cells form, and the cost grows with the output.
    """
    _check_q_levels(q, k)
    n = d - 1
    maximal = [cone_Cd(d)]
    for i in range(2, n + 1):
        for j in range(1, i):
            for h in range(k):
                form = [0] * n
                form[j - 1] = q ** h
                form[i - 1] = -1
                maximal = [piece for c in maximal for piece in _cut(c, form)]
    return Fan(maximal)


def theta_vector(q: int, k: int, sigma: Cone) -> tuple[int, ...]:
    """theta(i) = min{j <= i : q^(k-1) s_j >= s_i holds on all of sigma}."""
    _check_q_levels(q, k)
    n = sigma.n
    rays = sigma.rays()
    out = []
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if all(q ** (k - 1) * g[j - 1] >= g[i - 1] for g in rays):
                out.append(j)
                break
    return tuple(out)


def contains_class_point(q: int, k: int, sigma: Cone,
                         point: ClassPoint) -> bool:
    """Exact membership of a (possibly irrational) class point in a cone of
    Sigma^(k): the cone equals C_d intersected with the two-term sign
    constraints it satisfies on all its generators, and each two-term sign
    is decidable on the stored coordinate powers.  Valid only for sigma in
    Sigma^(k), whose facets are such walls with h < k (an image cone has
    others); a rational point in any cone goes to Cone.contains."""
    _check_q_levels(q, k)
    n = sigma.n
    if point.d != n + 1:
        raise ValueError("dimension mismatch")
    rays = sigma.rays()
    # coordinate-vanishing constraints (faces on the boundary of C_d)
    for i in range(n):
        if all(g[i] == 0 for g in rays) and point.values[i] != 0:
            return False
    for i in range(2, n + 1):
        for j in range(1, i):
            for h in range(k):
                signs = {(q ** h * g[j - 1] > g[i - 1])
                         - (q ** h * g[j - 1] < g[i - 1]) for g in rays}
                pt = point.sign_two_term(q, h, j, i)
                if all(s >= 0 for s in signs) and pt < 0:
                    return False
                if all(s <= 0 for s in signs) and pt > 0:
                    return False
    return True


def _point_powers(point: ClassPoint) -> tuple[int, tuple[Fraction, ...]]:
    r = point.stratum()
    if r == point.d:
        return r, point.values  # all zero
    return r, point.power_values(r)


def pi_eval(q: int, k: int, sigma: Cone, point: ClassPoint,
            theta: tuple[int, ...] | None = None) -> tuple[Fraction, ...]:
    """The flattening map attached to (k, sigma), in power coordinates:
    coordinate i >= r is epsilon_hat^{r}_{p_r..p_{theta(i)-1}}(p_i), from
    _chain_values on the stored powers p_r..p_{d-1} over their lcm (the
    ClassPoint has checked them, so they are not checked again)."""
    _check_q_levels(q, k)
    if point.d != sigma.n + 1:
        raise ValueError("dimension mismatch")
    if theta is None:
        theta = theta_vector(q, k, sigma)
    elif len(theta) != sigma.n or any(not 1 <= t <= i
                                      for i, t in enumerate(theta, 1)):
        raise ValueError(f"theta needs {sigma.n} entries, theta(i) in 1..i")
    r, p = _point_powers(point)
    return _chain_values(q, theta, (), r, *_over_lcm(p[r - 1:]))[0]


def pi_family_eval(q: int, kprime: int, i: int, iprime: int,
                   point: ClassPoint) -> Fraction:
    """epsilon_hat^{r, i'+1-r}_{p_r..p_{i'}} (q^{-k' r} p_i); i, i' < d."""
    _check_q_levels(q, kprime)
    _check_indices(point.d, i=i, iprime=iprime)
    r, p = _point_powers(point)
    weights = p[r - 1:iprime] if iprime >= r else ()
    arg = Fraction(q) ** (-kprime * r) * p[i - 1]
    return epsilon_hat(q, r, weights, arg)


def delta_tilde(q: int, point: ClassPoint, i: int) -> Fraction:
    """delta^{r, i+1-r}(p_r .. p_i), i < d; zero for i below the stratum."""
    check_q(q)
    _check_indices(point.d, i=i)
    r, p = _point_powers(point)
    if i < r:
        return Fraction(0)
    return delta(q, r, p[r - 1:i])


def xi_eval(q: int, k: int, point: ClassPoint) -> ClassPoint:
    """The rescaling map xi^d_k; output always has rational coordinates.

    Coordinate i >= r is epsilon^{r, d-r}_{p_r..p_{d-1}}(q^{-k r} p_i), by
    the closed form: the values of a ClassPoint are weakly increasing.
    Every coordinate passes the one tuple p_r..p_{d-1} to epsilon_closed,
    so the weights are checked and the integer stage chain is built once
    per point, by the one-entry memo of epsilon._stage_chain.  This path
    is the reference for the xi of the kernel _chain_values."""
    _check_q_levels(q, k)
    d = point.d
    if d < 2:
        raise ValueError("d must be >= 2: a point needs a coordinate")
    r, p = _point_powers(point)
    weights = p[r - 1:]
    scale = Fraction(q) ** (-k * r)  # a Fraction power: never a float
    out = [Fraction(0)] * (r - 1)
    out += [epsilon_closed(q, r, weights, scale * p[i - 1])
            for i in range(r, d)]
    return ClassPoint.from_coords(out, d)


def xi_eval_coords(q: int, k: int, coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return xi_eval(q, k, ClassPoint.from_coords(coords)).coords_if_rational()


def interior_samples(sigma: Cone, rng: random.Random, count: int
                     ) -> list[tuple[int, ...]]:
    """Integer points in the relative interior (positive ray combinations)."""
    rays = sigma.rays()
    if not rays:
        return [(0,) * sigma.n] * count
    out = []
    for _ in range(count):
        cs = [rng.randint(1, 9) for _ in rays]
        out.append(tuple(sum(c * g[i] for c, g in zip(cs, rays))
                         for i in range(sigma.n)))
    return out


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A map given by (cone, matrix) pieces; matrices act on column points."""

    pieces: tuple[tuple[Cone, tuple[tuple[Fraction, ...], ...]], ...]

    def eval(self, coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
        v = frac_vec(coords)
        for cone, mat in self.pieces:
            if cone.contains(v):
                return mat_vec(mat, v)
        raise ValueError(f"point {coords} not in the domain of the map")


def _chain_values(q: int, theta: Sequence[int], levels: Sequence[int],
                  r: int, P: Sequence[int], L: int
                  ) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """pi (for the index map theta) and xi_t for each t in levels at the
    point of stratum r with power coordinates p_r..p_{d-1} = P / L, P
    positive and weakly increasing ints checked by the caller (empty at the
    origin), from one stage chain over P.  epsilon_hat, delta, pi and xi
    are homogeneous of degree 1 in (x, weights), as the band test of _hat1
    is scale-invariant: so the chains of P are L times those of p, and one
    Fraction per coordinate divides L out.  Stage j depends only on the
    first j+1 weights, so pi's coordinates run prefixes of the chain."""
    stages, (dn, dm) = _stage_pairs(q, r, [(x, 1) for x in P])
    head = [Fraction(0)] * (r - 1)
    pi = []
    for i, x in enumerate(P, r):
        a, b = _run(q, r, stages[:max(theta[i - 1] - r, 0)], x, 1)
        pi.append(Fraction(a, b * L))
    xis = []
    for t in levels:
        qtr = q ** (t * r)
        xi = []
        for x in P:
            a, b = _run(q, r, stages, x, qtr)
            xi.append(Fraction(a * dm + dn * b, b * dm * L))
        _check_in_cone(xi)
        xis.append(tuple(head + xi))
    return tuple(head + pi), xis


def _pi_xi(q: int, theta: Sequence[int], levels: Sequence[int],
           coords: Sequence[int | Fraction]
           ) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """pi_eval and xi_eval (each t in levels) at the rational point coords,
    checked as by ClassPoint.from_coords: with coords = C / L over the lcm
    of their denominators and r the stratum, _chain_values at C^r / L^r."""
    _check_in_cone(coords)
    C, L = _over_lcm(coords)
    r = next((i for i, c in enumerate(C, 1) if c), len(C) + 1)
    return _chain_values(q, theta, levels, r, [c ** r for c in C[r - 1:]],
                         L ** r)


def _linearize(q: int, sigma: Cone, base_k: int, levels: Sequence[int],
               rng: random.Random) -> list[tuple[tuple[Fraction, ...], ...]]:
    """linearize_xi for every target level in levels, from one sample set:
    pi and every xi_t come from one _pi_xi call per point, and each matrix
    is solved and certified on its own."""
    _check_q_levels(q, base_k, *levels)
    n = sigma.n
    theta = theta_vector(q, base_k, sigma)
    A, B = zip(*[_pi_xi(q, theta, levels, p)
                 for p in interior_samples(sigma, rng, 2 * n + 2)])
    mats = []
    for Bt in zip(*B):  # the level-t xi values of every sample
        X = solve(A, Bt)
        if X is None:
            i = next(i for i in range(n)
                     if solve(A, [b[i] for b in Bt]) is None)
            raise LinearizationError(
                f"no linear factorization for coordinate {i + 1} on {sigma!r}")
        mats.append(tuple(zip(*X)))  # row i of M is column i of X
    # certification: generators and fresh interior points
    rows = [[_over_lcm(row) for row in M] for M in mats]
    check_pts = [frac_vec(g) for g in sigma.rays()]
    check_pts += interior_samples(sigma, rng, _CERTIFY_POINTS)
    for p in check_pts:
        pi, xis = _pi_xi(q, theta, levels, p)
        u, c = _over_lcm(pi)
        for rows_t, xi in zip(rows, xis):
            if any(sum(map(mul, w, u)) * x.denominator != x.numerator * m * c
                   for (w, m), x in zip(rows_t, xi)):
                raise LinearizationError(
                    f"linearization certificate failed at {p} on {sigma!r}")
    return mats


def linearize_xi(q: int, sigma: Cone, base_k: int, target_k: int,
                 rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix M with xi_{target_k} = M o pi_{base_k, sigma} on sigma.

    pi and xi are evaluated at each of 2n+2 exact interior samples by one
    integer stage chain (_pi_xi); one elimination of [pi values | xi
    values] gives every row of M.  M is certified on every generator of
    sigma plus _CERTIFY_POINTS fresh interior points, by exact equality
    checked on ints: row i of M is scaled once to w_i / m_i and each
    point's pi value to u / c, so (M pi)_i = xi_i reads w_i . u * den(xi_i)
    = num(xi_i) * m_i * c.  Raises LinearizationError if no consistent
    matrix exists (naming the first coordinate with none) or the
    certification fails.
    """
    return _linearize(q, sigma, base_k, (target_k,), rng)[0]


def _image_cone(q: int, k: int, sigma: Cone) -> Cone:
    img_rays = []
    for g in sigma.rays():
        img = xi_eval(q, k, ClassPoint.from_coords(g)).values
        img_rays.append(primitive(img))
    return Cone.from_rays(img_rays, n=sigma.n)


def sigma_k_fan(q: int, d: int, k: int, seed: int = 0
                ) -> tuple[Fan, list[dict]]:
    """The image fan Sigma_k = {xi_k(sigma) : sigma in Sigma^(k)}.

    Returns (fan, pieces); each piece records the source cone, its image,
    and the certified matrix M with xi_k = M o pi_{k, sigma} on the source.
    """
    rng = random.Random(f"sigma_k:{seed}:{q}:{d}:{k}")
    upper = sigma_upper_fan(q, d, k)
    fan = Fan()
    pieces = []
    for sigma in upper.maximal_cones():
        M = linearize_xi(q, sigma, k, k, rng)
        image = _image_cone(q, k, sigma)
        fan.add(image)
        pieces.append({"source": sigma, "image": image, "matrix": M})
    return fan, pieces


def sigma_kk_map(q: int, d: int, k: int, kprime: int, seed: int = 0
                 ) -> PiecewiseLinearMap:
    """The transition map xi_{k,k'} = xi_{k'} o xi_k^{-1} as exact linear
    pieces on the cones xi_k(sigma), sigma running over the maximal cones
    of Sigma^(K) with K = max(k, k').

    Both matrices of a cone (xi_k and xi_k' over pi_{K, sigma}) come from
    one sample set: one pi and one stage chain per point."""
    _check_q_levels(q, k, kprime)
    rng = random.Random(f"sigma_kk:{seed}:{q}:{d}:{k}:{kprime}")
    K = max(k, kprime)
    upper = sigma_upper_fan(q, d, K)
    pieces = []
    for sigma in upper.maximal_cones():
        Mk, Mkp = _linearize(q, sigma, K, (k, kprime), rng)
        trans = mat_mul(Mkp, mat_inv(Mk))
        image = _image_cone(q, k, sigma)
        pieces.append((image, tuple(tuple(row) for row in trans)))
    return PiecewiseLinearMap(tuple(pieces))

