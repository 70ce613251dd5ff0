"""Vector-level piecewise-linear machinery on the weight cone C_d.

Contents:

* the comparison fans Sigma^(k): cones cut out of C_d by sign assignments
  on the finitely many two-term comparisons q^h s_j <=> s_i (0 <= h < k),
* the index map theta and the flattening map pi attached to a cone of
  Sigma^(k),
* the rescaling maps xi_k (evaluated stratum by stratum on power
  coordinates, always landing in rational coordinates),
* exact linearization: on each cone sigma of Sigma^(k), xi_{k'} factors as
  a single linear map applied to pi; the matrix is recovered by exact
  sampling and certified on generators plus interior points,
* the image fans Sigma_k = {xi_k(sigma)} and the piecewise-linear
  transition maps xi_{k,k'} = xi_{k'} o xi_k^{-1} with their cone pieces.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import Cone, Fan
from .epsilon import delta, epsilon, epsilon_hat
from .linalg import frac_vec, mat_inv, mat_mul, mat_vec, primitive, solve
from .points import ClassPoint

__all__ = [
    "cone_Cd", "sigma_upper_fan", "theta_vector", "pi_eval",
    "pi_family_eval", "delta_tilde", "xi_eval", "xi_eval_coords",
    "linearize_xi", "sigma_k_fan", "sigma_kk_map", "PiecewiseLinearMap",
    "LinearizationError", "interior_samples", "contains_class_point",
]


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


def _sign_sequences(k: int) -> list[tuple[int, ...]]:
    """Possible sign vectors of h -> sign(q^h s_j - s_i) for h = 0..k-1.

    The quantity is increasing in h, so the sequence is nondecreasing in
    {-1, 0, +1} with at most one zero; there are 2k+1 such sequences.
    """
    seqs = []
    for minus in range(k + 1):
        seqs.append(tuple([-1] * minus + [1] * (k - minus)))
    for minus in range(k):
        seqs.append(tuple([-1] * minus + [0] + [1] * (k - 1 - minus)))
    return seqs


def sigma_upper_fan(q: int, d: int, k: int) -> Fan:
    """The fan of C_d cut out by all sign assignments on
    q^h s_j - s_i for 1 <= j < i <= d-1 and 0 <= h <= k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = d - 1
    base = cone_Cd(d)
    pairs = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    fan = Fan()
    if not pairs:
        fan.add(base)
        return fan
    seqs = _sign_sequences(k)
    for assignment in itertools.product(seqs, repeat=len(pairs)):
        ineqs = [list(a) for a in base.ineqs()]
        eqs = []
        for (i, j), seq in zip(pairs, assignment):
            for h, sign in enumerate(seq):
                vec = [0] * n
                vec[j - 1] = q ** h
                vec[i - 1] = -1
                if sign > 0:
                    ineqs.append(vec)
                elif sign < 0:
                    ineqs.append([-x for x in vec])
                else:
                    eqs.append(vec)
        fan.add(Cone.from_ineqs(ineqs, n=n, eqs=eqs))
    return fan


def theta_vector(q: int, k: int, sigma: Cone) -> tuple[int, ...]:
    """theta(i) = min{j <= i : q^(k-1) s_j >= s_i holds on all of sigma}."""
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
    is decidable on the stored coordinate powers."""
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
    """The flattening map attached to (k, sigma), in power coordinates."""
    d = point.d
    if theta is None:
        theta = theta_vector(q, k, sigma)
    r, p = _point_powers(point)
    out = []
    for i in range(1, d):
        if i < r:
            out.append(Fraction(0))
            continue
        hi = max(theta[i - 1] - 1, r - 1)  # weights p_r .. p_{theta(i)-1}
        weights = p[r - 1:hi]
        out.append(epsilon_hat(q, r, weights, p[i - 1]))
    return tuple(out)


def pi_family_eval(q: int, kprime: int, i: int, iprime: int,
                   point: ClassPoint) -> Fraction:
    """epsilon_hat^{r, i'+1-r}_{p_r..p_{i'}} (q^{-k' r} p_i)."""
    r, p = _point_powers(point)
    weights = p[r - 1:iprime] if iprime >= r else ()
    arg = Fraction(q) ** (-kprime * r) * p[i - 1]
    return epsilon_hat(q, r, weights, arg)


def delta_tilde(q: int, point: ClassPoint, i: int) -> Fraction:
    """delta^{r, i+1-r}(p_r .. p_i); zero for i below the stratum."""
    r, p = _point_powers(point)
    if i < r:
        return Fraction(0)
    return delta(q, r, p[r - 1:i])


def xi_eval(q: int, k: int, point: ClassPoint) -> ClassPoint:
    """The rescaling map xi^d_k; output always has rational coordinates."""
    d = point.d
    r, p = _point_powers(point)
    out = []
    for i in range(1, d):
        if i < r:
            out.append(Fraction(0))
        else:
            arg = Fraction(q) ** (-k * r) * p[i - 1]
            out.append(epsilon(q, r, p[r - 1:], arg))
    return ClassPoint.from_coords(out, d)


def xi_eval_coords(q: int, k: int, coords: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return xi_eval(q, k, ClassPoint.from_coords(coords)).coords_if_rational()


def interior_samples(sigma: Cone, rng: random.Random, count: int
                     ) -> list[tuple[Fraction, ...]]:
    """Rational points in the relative interior (positive ray combinations)."""
    rays = sigma.rays()
    if not rays:
        return [tuple(Fraction(0) for _ in range(sigma.n))] * count
    out = []
    for _ in range(count):
        cs = [rng.randint(1, 9) for _ in rays]
        out.append(tuple(sum(Fraction(c * g[i]) for c, g in zip(cs, rays))
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

    def domain_fan(self) -> Fan:
        return Fan(c for c, _ in self.pieces)


def linearize_xi(q: int, sigma: Cone, base_k: int, target_k: int,
                 rng: random.Random, certify_points: int = 5
                 ) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix M with xi_{target_k} = M o pi_{base_k, sigma} on sigma.

    The matrix is recovered from exact interior samples and certified on
    every generator of sigma plus `certify_points` fresh interior points.
    Raises LinearizationError if no consistent matrix exists or the
    certification fails.
    """
    n = sigma.n
    d = n + 1
    theta = theta_vector(q, base_k, sigma)
    pts = interior_samples(sigma, rng, 2 * n + 2)
    A = [list(pi_eval(q, base_k, sigma, ClassPoint.from_coords(p), theta))
         for p in pts]
    B = [list(xi_eval(q, target_k, ClassPoint.from_coords(p)).values)
         for p in pts]
    rows = []
    for i in range(n):
        w = solve(A, [b[i] for b in B])
        if w is None:
            raise LinearizationError(
                f"no linear factorization for coordinate {i + 1} on {sigma!r}")
        rows.append(tuple(w))
    M = tuple(rows)
    # certification: generators and fresh interior points
    check_pts = [frac_vec(g) for g in sigma.rays()]
    check_pts += interior_samples(sigma, rng, certify_points)
    for p in check_pts:
        cp = ClassPoint.from_coords(p)
        lhs = xi_eval(q, target_k, cp).values
        rhs = mat_vec(M, pi_eval(q, base_k, sigma, cp, theta))
        if tuple(lhs) != tuple(rhs):
            raise LinearizationError(
                f"linearization certificate failed at {p} on {sigma!r}")
    return M


def _image_cone(q: int, k: int, sigma: Cone) -> Cone:
    d = sigma.n + 1
    img_rays = []
    for g in sigma.rays():
        img = xi_eval(q, k, ClassPoint.from_coords(g)).values
        img_rays.append(primitive(img))
    if not img_rays:
        return Cone.from_rays([], n=sigma.n)
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
    of Sigma^(K) with K = max(k, k')."""
    rng = random.Random(f"sigma_kk:{seed}:{q}:{d}:{k}:{kprime}")
    K = max(k, kprime)
    upper = sigma_upper_fan(q, d, K)
    pieces = []
    for sigma in upper.maximal_cones():
        Mk = linearize_xi(q, sigma, K, k, rng)
        Mkp = linearize_xi(q, sigma, K, kprime, rng)
        trans = mat_mul(Mkp, mat_inv(Mk))
        image = _image_cone(q, k, sigma)
        pieces.append((image, tuple(tuple(row) for row in trans)))
    return PiecewiseLinearMap(tuple(pieces))

