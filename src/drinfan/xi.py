"""Vector-level piecewise-linear machinery on the weight cone C_d.

Contents:

* the comparison fans Sigma^(k): C_d refined by the finitely many
  hyperplanes of two-term comparisons q^h s_j = s_i (0 <= h < k),
* the index map theta and the flattening map pi attached to a cone of
  Sigma^(k),
* the rescaling maps xi_k (evaluated stratum by stratum on power
  coordinates, always landing in rational coordinates),
* exact linearization: on each cone sigma of Sigma^(k), xi_{k'} factors as
  a single linear map applied to pi; the matrices of every needed level
  come from one exact elimination over interior samples, each evaluated
  once by the integer kernel below, and each is certified on generators
  plus interior points.  The samples stay integers from the kernel to
  the certificate: no Fraction is made before the elimination reduces
  its rows.  A system with no solution is located by one more
  elimination of the same rows, which names the first coordinate with
  none,
* one integer kernel for pi and xi (_chain_record): pi and the prefix
  deltas are read off the walk of the _stage_pairs run that builds a
  point's stages (_read_pi, for any index map), and each xi_{t,i} runs a
  fresh prefix of at most i - r stages plus its delta: the stages whose
  weights are below q^(-tr) p_i, as the later ones are provably band 0
  there.  It returns integer
  numerators over one denominator, run by pi_eval on stored powers (which
  divides them out) and by the linearization on its samples; xi_eval, one
  epsilon_closed per coordinate, is the reference for its xi,
* the image fans Sigma_k = {xi_k(sigma)}, joined as chambers, and the
  transition maps xi_{k,k'} = xi_{k'} o xi_k^{-1} with their linear pieces
  (each one elimination of the two certified matrices, no inverse or
  product), built on the chambers of Sigma^(K) without their face lattices
  (_chambers), with each ray's image computed once per fan, and each
  ray's chain once per transition map.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .cones import Cone, Fan, _idot, _join_adjacent, _neg
from .epsilon import _run, _stage_pairs, delta, epsilon_closed, epsilon_hat
from .gf import check_q
from .linalg import _over_lcm, frac_vec, mat_vec, primitive, rref, solve
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
    """The pieces of a pointed, full-dimensional cone cut by the
    hyperplane form = 0: the cone itself if the form has one sign on its
    rays, otherwise its intersections with the halfspaces form >= 0 and
    form <= 0, in that order.  Any other cone raises ValueError.

    One double-description step (Fukuda & Prodon, 1996) on the cone's
    canonical rays and their tight sets over its facets: the rays of a
    half are the rays on its side of the hyperplane or on it, plus the
    primitive ray on the hyperplane of each adjacent +/- pair
    (cones._join_adjacent).  Sorted and distinct, with no lines, that is
    the half's canonical V.

    Both halves are full-dimensional: the form is > 0 at some ray r, so
    p + t r, for p interior and t large, is an interior point where the
    form is > 0, and a neighbourhood of it lies in the half form >= 0;
    likewise for < 0.  So the canonical H of a half is its primitive
    facet normals, sorted, with no equations.

    The half is defined by the cone's facet normals and the primitive
    +/-form, all nonzero, and its facets are the inequalities of that
    system whose tight sets (the half's rays where they vanish) are
    maximal; this holds for any system of nonzero inequalities defining a
    pointed, full-dimensional cone K, whose faces are determined by their
    rays.  Every facet F is K & {a = 0} for some a of the system, with
    tight set the rays of F.  A tight set strictly containing it would
    cut out a face strictly containing F, which is K, and an inequality
    vanishing on K is 0.  A maximal tight set is not every ray, for the
    same reason, so its face lies in some facet F, and maximality makes
    the two ray sets equal.  An inequality vanishing on a facet is a
    positive multiple of its normal, so equal to it once primitive.  Each
    half is born with its V and H (Cone._born) and converts nothing."""
    if cone.lines() or cone.eqs():
        raise ValueError("only a pointed, full-dimensional cone is cut")
    rays, ineqs = cone.rays(), cone.ineqs()
    form = primitive(form)
    values = [_idot(form, r) for r in rays]
    if all(v >= 0 for v in values) or all(v <= 0 for v in values):
        return [cone]
    tight = [sum(1 << i for i, a in enumerate(ineqs) if not _idot(a, r))
             for r in rays]
    shared = _join_adjacent(rays, values, tight)
    shared += [r for r, v in zip(rays, values) if not v]
    halves = []
    for side, sign in ((form, 1), (_neg(form), -1)):
        half = sorted(set(shared).union(
            r for r, v in zip(rays, values) if v * sign > 0))
        candidates = ineqs + (side,)
        masks = [sum(1 << i for i, r in enumerate(half) if not _idot(a, r))
                 for a in candidates]
        facets = sorted(a for a, m in zip(candidates, masks)
                        if not any(o & m == m != o for o in masks))
        halves.append(Cone._born(cone.n, (tuple(half), ()),
                                 (tuple(facets), ())))
    return halves


def _chambers(q: int, d: int, k: int) -> list[Cone]:
    """The maximal cones of Sigma^(k), in the order of sigma_upper_fan's
    maximal_cones(), with no face lattice built.

    Built by refinement: starting from C_d, every current chamber is cut by
    one hyperplane q^h s_j = s_i at a time, keeping a cone the hyperplane
    does not cross and the two full-dimensional halves of one it does
    (_cut, one double-description step each; only C_d is converted)."""
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
    return maximal


def sigma_upper_fan(q: int, d: int, k: int) -> Fan:
    """The comparison fan Sigma^(k): C_d subdivided by the hyperplanes
    q^h s_j = s_i for 1 <= j < i <= d-1 and 0 <= h <= k-1.

    The fan is generated by the chambers of _chambers; every cell of a
    sign assignment on the comparisons (weak signs included) is a face of
    a chamber, so this is the fan those cells form, and the cost grows
    with the output.  The chambers are full-dimensional with disjoint
    interiors (each cut splits one chamber into two closed halves), so
    they join the fan through Fan._from_chambers, without containment
    tests.  The map builders sigma_k_fan and sigma_kk_map read only the
    chambers, and build no face lattice.
    """
    return Fan._from_chambers(_chambers(q, d, k))


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
    _chain_record on the stored powers p_r..p_{d-1} over their lcm (the
    ClassPoint has checked them, so they are not checked again), with its
    integer pair divided out here: one Fraction per coordinate."""
    _check_q_levels(q, k)
    if point.d != sigma.n + 1:
        raise ValueError("dimension mismatch")
    if theta is None:
        theta = theta_vector(q, k, sigma)
    elif len(theta) != sigma.n or any(not 1 <= t <= i
                                      for i, t in enumerate(theta, 1)):
        raise ValueError(f"theta needs {sigma.n} entries, theta(i) in 1..i")
    r, p = _point_powers(point)
    record = _chain_record(q, (), r, *_over_lcm(p[r - 1:]))
    nums, den = _read_pi(theta, record)[0]
    return tuple(Fraction(a, den) for a in nums)


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
    is the reference for the xi of the kernel _chain_record."""
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
    """Integer points in the relative interior: each is sum c_g g over the
    rays g, with every c_g drawn by rng.randrange(1, 10) (the draw of
    randint(1, 9)), as one dot product per column of the rays."""
    rays = sigma.rays()
    if not rays:
        return [(0,) * sigma.n] * count
    cols = tuple(zip(*rays))
    out = []
    for _ in range(count):
        cs = [rng.randrange(1, 10) for _ in rays]
        out.append(tuple(sum(map(mul, cs, col)) for col in cols))
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


def _chain_record(q: int, levels: Sequence[int], r: int, P: Sequence[int],
                  L: int) -> tuple:
    """The walk of the point of stratum r with power coordinates
    p_r..p_{d-1} = P / L, P positive and weakly increasing ints checked by
    the caller (empty at the origin): one _stage_pairs run over P, which
    records each weight's walk and prefix delta, and xi_t for each t in
    levels, whose coordinate i runs a fresh prefix of at most i - r
    stages: those whose weights are below q^(-tr) p_i.
    Returns (r, walks, tail, L, xis); _read_pi reads pi for any index map
    off it, so one record serves every cone with the point as a ray.
    Each xi_t is an integer pair (numerators, denominator): one positive
    denominator for all d - 1 coordinates, the numerators unreduced (0
    below the stratum).

    epsilon_hat, delta, pi and xi are homogeneous of degree 1 in (x,
    weights), as the band test of _hat1 is scale-invariant: so the chains
    of P are L times those of p, and the denominators carry the factor L.

    pi.  Stage j depends only on the first j+1 weights, and the run that
    builds stage i - r starts at (p_i, 1), as pi_i does: pi_i, which runs
    the first m = theta(i) - r stages (none if theta(i) <= r), is that
    run's walk after m stages.  _hat1's denominator does not depend on x,
    and each stage multiplies it by the factor that multiplies delta's: the
    walk after m stages is over B_m, the denominator of the prefix delta
    of walk m, and tail[m] = B / B_m puts it over delta's denominator B =
    tail[0].

    xi, the band-0 lemma.  xi_{t,i} = epsilon(x) with x = q^(-tr) p_i.
    Let m count the weights p_r..p_{d-1} below x: x <= p_{r+j} for every
    j >= m (P increases weakly), and m <= i - r (q^(-tr) < 1, so x <
    p_i).  Each stage is nondecreasing in x, so the value entering stage
    j >= m, the chain of stages 0..j-1 at x, is at most that chain at
    p_{r+j}, which is stage j's weight s'_j; _hat1 then picks band h = 0,
    x -> x - (q-1)/D_j s'_j.  delta adds (q-1)/D_j s'_j for each stage j,
    so the stages from m on cancel delta's suffix: xi_{t,i} = (chain of
    stages[:m] at x) + delta(stages[:m]), the prefix delta of the walk of
    weight m.  The defining sum says the same: a weight s_j >= x admits
    only y_j = 0.  On the integers P, p_{r+j} >= x reads P_j >= ceil(P_i
    / q^(tr)), so m is one bisection of P.  The prefix run is a / (q^(tr)
    B_m) and the prefix delta dn / dm' with dm' = B_m (_stage_pairs
    multiplies dm' by D_j v_j per stage), so the sum is (a + q^(tr) dn) /
    (q^(tr) B_m), and B tail[m] puts it over q^(tr) B^2: the denominator,
    and so the numerators, of the run through every stage plus the whole
    delta."""
    walks: list = []
    stages, (_, B) = _stage_pairs(q, r, [(x, 1) for x in P], walks)
    # tail[m] = B / B_m, B_m the denominator of walk m's prefix delta
    tail = [B // bm for _, (_, bm) in walks] + [1]
    head = (0,) * (r - 1)
    xis = []
    for t in levels:
        qtr = q ** (t * r)
        nums = []
        for x in P:
            # the stages from m on have weights >= x / qtr: band 0
            m = bisect_left(P, -(-x // qtr))
            a = _run(q, r, stages[:m], x, qtr)[0]
            nums.append((a + qtr * walks[m][1][0]) * B * tail[m])
        # the coordinates are nums / (qtr B^2 L), one positive
        # denominator (L at the origin, which runs nothing), and the cone
        # check reads the integer numerators
        _check_in_cone(nums)
        xis.append((head + tuple(nums), (qtr if P else 1) * B * B * L))
    return r, walks, tail, L, xis


def _read_pi(theta: Sequence[int], record: tuple
             ) -> tuple[tuple[tuple[int, ...], int],
                        list[tuple[tuple[int, ...], int]]]:
    """pi for the index map theta, read off a _chain_record, as an integer
    pair (numerators over tail[0] L), and the record's xi pairs."""
    r, walks, tail, L, xis = record
    pi = [0] * (r - 1)
    for i, (walk, _) in enumerate(walks, r):
        m = max(theta[i - 1] - r, 0)
        pi.append(walk[m] * tail[m])
    return (tuple(pi), tail[0] * L), xis


def _pi_xi(q: int, theta: Sequence[int], levels: Sequence[int],
           coords: Sequence[int | Fraction], records: dict | None = None
           ) -> tuple[tuple[tuple[int, ...], int],
                      list[tuple[tuple[int, ...], int]]]:
    """pi_eval and xi_eval (each t in levels) at the rational point coords,
    as the integer pairs of _chain_record, checked as by
    ClassPoint.from_coords: with coords = C / L over the lcm of their
    denominators (L = 1 for ints) and r the stratum, _chain_record at
    C^r / L^r.  pi depends on the cone only through theta, so
    sigma_kk_map passes one coords -> record dict per map (one q, one
    levels) as records: a ray shared by several cones walks its chain
    once."""
    record = None if records is None else records.get(coords)
    if record is None:
        _check_in_cone(coords)
        if all(type(c) is int for c in coords):
            C, L = coords, 1
        else:
            C, L = _over_lcm(coords)
        r = next((i for i, c in enumerate(C, 1) if c), len(C) + 1)
        record = _chain_record(q, levels, r, [c ** r for c in C[r - 1:]],
                               L ** r)
        if records is not None:
            records[coords] = record
    return _read_pi(theta, record)


def _sample_row(pi: tuple[tuple[int, ...], int],
                xis: Sequence[tuple[tuple[int, ...], int]]) -> list[int]:
    """One sample's augmented row [pi | xi_t1 | xi_t2 | ...] of integer
    pairs, times the lcm of their denominators: one integer row."""
    pairs = (pi, *xis)
    m = lcm(*(den for _, den in pairs))
    return [a * (m // den) for nums, den in pairs for a in nums]


def _linearize(q: int, sigma: Cone, base_k: int, levels: Sequence[int],
               rng: random.Random, records: dict | None = None
               ) -> list[tuple[tuple[Fraction, ...], ...]]:
    """linearize_xi for every target level in levels, from one sample set
    and one elimination: pi and every xi_t come from one _pi_xi call per
    point, as integer pairs, and each sample's row [pi | xi_t1 | ...] is
    scaled to integers (_sample_row); one solve of A X = [B_t1 | B_t2 |
    ...] gives every matrix, each column exactly as its own solve would (a
    row scaled by a positive integer has the same solutions).  If some
    column has no solution, one rref of the rows [A | B] locates the
    first: its first pivot c >= n is a column outside span(A), while every
    B column before it is a combination of the pivot columns before it,
    all in A.  So c lies in the first level with no solution, and c - n
    mod n is that level's first coordinate with none: the (level,
    coordinate) that a solve per level, and then per coordinate, names.
    Each matrix is certified on its own.  The certificate reads each ray's
    pi and xi through records, sigma_kk_map's ray -> record dict of one
    map (see _pi_xi); with None every ray is walked here.  A cone with
    lines raises ValueError: its samples and rays would miss the lines."""
    _check_q_levels(q, base_k, *levels)
    if sigma.lines():
        raise ValueError("only a cone without lines is linearized")
    n = sigma.n
    theta = theta_vector(q, base_k, sigma)
    rows = [_sample_row(*_pi_xi(q, theta, levels, p))
            for p in interior_samples(sigma, rng, 2 * n + 2)]
    X = solve([row[:n] for row in rows], [row[n:] for row in rows])
    if X is None:
        c = next(c for c in rref(rows)[1] if c >= n)
        raise LinearizationError(
            f"no linear factorization for coordinate {(c - n) % n + 1} on "
            f"{sigma!r}")
    # row i of the matrix of levels[j] is column j n + i of X
    mats = [tuple(zip(*[row[j * n:(j + 1) * n] for row in X]))
            for j in range(len(levels))]
    # certification: generators and fresh interior points
    scaled = [[_over_lcm(row) for row in M] for M in mats]
    rays = sigma.rays()
    fresh = interior_samples(sigma, rng, _CERTIFY_POINTS)
    for j, p in enumerate(rays + tuple(fresh)):
        (u, c), xis = _pi_xi(q, theta, levels, p,
                             records if j < len(rays) else None)
        for rows_t, (nums, den) in zip(scaled, xis):
            if any(sum(map(mul, w, u)) * den != a * m * c
                   for (w, m), a in zip(rows_t, nums)):
                shown = frac_vec(p) if j < len(rays) else p
                raise LinearizationError(
                    f"linearization certificate failed at {shown} on "
                    f"{sigma!r}")
    return mats


def linearize_xi(q: int, sigma: Cone, base_k: int, target_k: int,
                 rng: random.Random) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix M with xi_{target_k} = M o pi_{base_k, sigma} on sigma.

    pi and xi are evaluated at each of 2n+2 exact interior samples by the
    integer kernel (_pi_xi): pi and the prefix deltas come from the walk
    that builds the stages, and each xi_i runs a fresh prefix of at most
    i - r stages, each map as integer numerators over one denominator.
    Each sample's row [pi | xi] is scaled to integers by the lcm of its
    two denominators, and one elimination of those rows gives every row
    of M.  M is certified on every generator of sigma plus
    _CERTIFY_POINTS fresh interior points, by exact equality checked on
    the unreduced integer pairs: row i of M is scaled once to w_i / m_i
    and each point's pi is u / c and xi is num / den, so (M pi)_i = xi_i
    reads w_i . u * den = num_i * m_i * c.
    Raises LinearizationError if no consistent matrix exists (naming the
    first coordinate with none) or the certification fails, and
    ValueError for a cone with lines.  Every ray of sigma is walked on
    each call.
    """
    return _linearize(q, sigma, base_k, (target_k,), rng)[0]


def _image_cone(q: int, k: int, sigma: Cone,
                images: dict | None = None) -> Cone:
    """xi_k(sigma): the cone on the primitive images of sigma's rays.  The
    map builders pass one ray -> primitive image dict per fan, so a ray
    shared by several cones goes through xi_eval once."""
    if images is None:
        images = {}
    for g in sigma.rays():
        if g not in images:
            img = xi_eval(q, k, ClassPoint.from_coords(g)).values
            images[g] = primitive(img)
    return Cone.from_rays([images[g] for g in sigma.rays()], n=sigma.n)


def sigma_k_fan(q: int, d: int, k: int, seed: int = 0
                ) -> tuple[Fan, list[dict]]:
    """The image fan Sigma_k = {xi_k(sigma) : sigma in Sigma^(k)}.

    Returns (fan, pieces); each piece records the source cone, its image,
    and the certified matrix M with xi_k = M o pi_{k, sigma} on the source.
    The sources are the chambers of Sigma^(k), read without a face lattice
    (_chambers), each linearized by linearize_xi, whose certificate walks
    every ray of its chamber; each ray's image is computed once for the
    whole fan (one ray -> image dict).

    The images join as chambers (``Fan._from_chambers``), in chamber order:
    none contains another.  xi_k keeps the stratum r (xi_i = 0 for i < r,
    xi_r = q^(-kr) p_r > 0), and for i > r, xi_i = epsilon(q^(-kr) p_i)
    reads only the weights p_j < p_i and strictly increases with p_i (its
    y = 0 term has slope 1), so xi_k is injective on C_d.  It is continuous
    on the interior of C_d, so by invariance of domain it maps each
    chamber's interior onto an open set.  With xi_k(sigma) the cone on the
    images of sigma's rays, as _image_cone takes it, one image cone inside
    another would make the images of two disjoint chamber interiors meet.
    ``Fan.validate`` stays the independent check.
    """
    rng = random.Random(f"sigma_k:{seed}:{q}:{d}:{k}")
    pieces = []
    images: dict = {}
    for sigma in _chambers(q, d, k):
        M = linearize_xi(q, sigma, k, k, rng)
        image = _image_cone(q, k, sigma, images)
        pieces.append({"source": sigma, "image": image, "matrix": M})
    return Fan._from_chambers(p["image"] for p in pieces), pieces


def sigma_kk_map(q: int, d: int, k: int, kprime: int, seed: int = 0
                 ) -> PiecewiseLinearMap:
    """The transition map xi_{k,k'} = xi_{k'} o xi_k^{-1} as exact linear
    pieces on the cones xi_k(sigma), sigma running over the chambers of
    Sigma^(K) with K = max(k, k') (_chambers: no face lattice is built).

    Both matrices of a cone (xi_k = M_k o pi and xi_k' = M_k' o pi, pi =
    pi_{K, sigma}) come from one sample set and one elimination: one
    kernel call per point, for pi and both xi, one solve per cone.  The
    piece is T = M_k' M_k^(-1), read off one rref of [M_k^T | M_k'^T] =
    [I | T^T].  M_k is invertible: xi_k is injective on C_d (see
    sigma_k_fan), so xi_k(sigma) = M_k pi(sigma) is full-dimensional; a
    singular M_k still raises ValueError rather than give a wrong piece.
    Each ray's walk and its image under xi_k are computed once for the
    whole map."""
    _check_q_levels(q, k, kprime)
    rng = random.Random(f"sigma_kk:{seed}:{q}:{d}:{k}:{kprime}")
    K = max(k, kprime)
    pieces = []
    images: dict = {}
    records: dict = {}
    for sigma in _chambers(q, d, K):
        Mk, Mkp = _linearize(q, sigma, K, (k, kprime), rng, records)
        n = len(Mk)
        red, pivots = rref([a + b for a, b in zip(zip(*Mk), zip(*Mkp))])
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        image = _image_cone(q, k, sigma, images)
        pieces.append((image, tuple(zip(*(row[n:] for row in red)))))
    return PiecewiseLinearMap(tuple(pieces))
