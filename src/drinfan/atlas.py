"""Boundary atlas for the d = 3, level-T compactification: slope fans,
chart monoids, the incidence graph of boundary components, and the
degree-one symmetric identity.

* A slope datum is an increasing tuple of rationals 1 = alpha_0 < alpha_1 <
  ... < alpha_m.  It determines a fan of two-dimensional cones in the
  weight cone {0 <= s_1 <= s_2}, with rays the primitive vectors
  (den, num) of the alphas together with the vertical ray (0, 1).  The fan
  is smooth iff every pair of consecutive rays has determinant one.
* Each maximal cone yields a chart: the Hilbert basis of the dual monoid,
  rendered as monomials in u0/u1 and u0/u2.
* The components of the special fiber are indexed by points a of P^2(F_q),
  lines l of P^2(F_q), and flags (a in l) decorated by a level i in
  1..m.  Two components meet according to the chain rule
  D(l) - D(a,l,1) - ... - D(a,l,m) - D(a), collapsing to D(l) - D(a)
  when m = 0; components of the same kind never meet.
* The degree-one symmetric identity: with t_i the ratios of the three
  nonzero F_2-combinations of u1, u2 under u0, the elementary symmetric
  expression t1 t2 + t2 t3 + t3 t1 vanishes identically over F_2; and the
  normalized T-division polynomial built from the full F_2-span of
  (u0, u1, u2) has z-degree q^3, only q-power exponents, and is invariant
  under the GL_3(F_2)-action on the variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cones import Cone, Fan, dual_monoid_hilbert_basis
from .gf import GF, gf

__all__ = ["slope_fan", "slope_fan_is_smooth", "slope_determinants",
           "slope_fan_is_interior_smooth", "chart_monomials",
           "projective_points", "projective_lines", "incident",
           "component_inventory", "component_graph", "MPoly",
           "symmetric_identity_holds", "division_polynomial_exponents",
           "division_polynomial_is_symmetric"]


# ---------------------------------------------------------------------------
# slope fans


def _ray_of_slope(alpha: Fraction) -> tuple[int, int]:
    alpha = Fraction(alpha)
    return (alpha.denominator, alpha.numerator)


def slope_rays(alphas: Sequence[Fraction]) -> list[tuple[int, int]]:
    vals = [Fraction(1)] + [Fraction(a) for a in alphas]
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("slopes must be strictly increasing")
    if vals[0] != 1:
        raise ValueError("the first slope is always 1")
    return [_ray_of_slope(a) for a in vals] + [(0, 1)]


def slope_fan(alphas: Sequence[Fraction]) -> Fan:
    """Fan of the slope datum inside {0 <= s_1 <= s_2}."""
    rays = slope_rays(alphas)
    fan = Fan()
    for a, b in zip(rays, rays[1:]):
        fan.add(Cone.from_rays([a, b], n=2))
    return fan


def slope_determinants(alphas: Sequence[Fraction]) -> list[int]:
    """Determinants of consecutive ray pairs, ending with the pair against
    the vertical boundary ray (0, 1)."""
    rays = slope_rays(alphas)
    return [a[0] * b[1] - a[1] * b[0] for a, b in zip(rays, rays[1:])]


def slope_fan_is_smooth(alphas: Sequence[Fraction]) -> bool:
    """Full smoothness: every consecutive determinant is one, including the
    final pair against the vertical boundary ray."""
    return all(d == 1 for d in slope_determinants(alphas))


def slope_fan_is_interior_smooth(alphas: Sequence[Fraction]) -> bool:
    """Smoothness of the charts between consecutive finite slopes only
    (the final vertical pair excluded)."""
    return all(d == 1 for d in slope_determinants(alphas)[:-1])


def chart_monomials(cone: Cone) -> list[str]:
    """Hilbert basis of the dual monoid of a slope-fan cone, written as
    monomials (u0/u1)^{b1} (u0/u2)^{b2}."""
    data = dual_monoid_hilbert_basis(cone)
    out = []
    for b in sorted(data["all"]):
        parts = []
        if b[0]:
            parts.append(f"(u0/u1)^{b[0]}" if b[0] != 1 else "(u0/u1)")
        if b[1]:
            parts.append(f"(u0/u2)^{b[1]}" if b[1] != 1 else "(u0/u2)")
        out.append("*".join(parts) if parts else "1")
    return out


# ---------------------------------------------------------------------------
# projective combinatorics


def projective_points(q: int) -> list[tuple[int, ...]]:
    """Points of P^2(F_q), normalized so the first nonzero entry is 1."""
    field = gf(q)
    pts = set()
    for v in itertools.product(field.elements(), repeat=3):
        if all(x == 0 for x in v):
            continue
        lead = next(x for x in v if x != 0)
        inv = field.inv(lead)
        pts.add(tuple(field.mul(inv, x) for x in v))
    return sorted(pts)


def projective_lines(q: int) -> list[tuple[int, ...]]:
    """Lines of P^2(F_q) as normalized covectors."""
    return projective_points(q)


def incident(q: int, a: tuple[int, ...], line: tuple[int, ...]) -> bool:
    field = gf(q)
    acc = 0
    for x, y in zip(a, line):
        acc = field.add(acc, field.mul(x, y))
    return acc == 0


Component = tuple  # ("point", a) | ("line", l) | ("flag", a, l, i)


def component_inventory(q: int, m: int) -> list[Component]:
    if m < 0:
        raise ValueError("flag level count m must be >= 0")
    pts = projective_points(q)
    lines = projective_lines(q)
    comps: list[Component] = [("point", a) for a in pts]
    comps += [("line", l) for l in lines]
    for a in pts:
        for l in lines:
            if incident(q, a, l):
                for i in range(1, m + 1):
                    comps.append(("flag", a, l, i))
    return comps


def component_graph(q: int, m: int
                    ) -> tuple[list[Component], list[tuple[Component, Component]]]:
    """Components and their incidence edges (each unordered pair once)."""
    comps = component_inventory(q, m)
    edges = []
    pts = projective_points(q)
    lines = projective_lines(q)
    for a in pts:
        for l in lines:
            if not incident(q, a, l):
                continue
            if m == 0:
                edges.append((("point", a), ("line", l)))
            else:
                chain = [("line", l)] + \
                    [("flag", a, l, i) for i in range(1, m + 1)] + \
                    [("point", a)]
                edges.extend(zip(chain, chain[1:]))
    return comps, edges


# ---------------------------------------------------------------------------
# small multivariate polynomials over F_q


@dataclass(frozen=True)
class MPoly:
    """Multivariate polynomial over F_q: exponent tuple -> coefficient."""

    field: GF
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def make(field: GF, terms: dict[tuple[int, ...], int]) -> "MPoly":
        clean = {e: c for e, c in terms.items() if c != 0}
        return MPoly(field, tuple(sorted(clean.items())))

    @staticmethod
    def zero(field: GF) -> "MPoly":
        return MPoly.make(field, {})

    @staticmethod
    def variable(field: GF, i: int, nvars: int, power: int = 1) -> "MPoly":
        e = tuple(power if j == i else 0 for j in range(nvars))
        return MPoly.make(field, {e: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MPoly") -> "MPoly":
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = self.field.add(out.get(e, 0), c)
        return MPoly.make(self.field, out)

    def __neg__(self) -> "MPoly":
        return MPoly.make(self.field,
                          {e: self.field.neg(c) for e, c in self.terms})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = self.field.add(out.get(e, 0),
                                        self.field.mul(c1, c2))
        return MPoly.make(self.field, out)

    def substitute(self, images: Sequence["MPoly"]) -> "MPoly":
        """Replace variable i by images[i]."""
        field = self.field
        nvars = len(images[0].terms[0][0]) if images and images[0].terms else 0
        total = MPoly.zero(field)
        for e, c in self.terms:
            acc = MPoly.make(field, {(0,) * nvars: c})
            for i, ei in enumerate(e):
                for _ in range(ei):
                    acc = acc * images[i]
            total = total + acc
        return total


# ---------------------------------------------------------------------------
# the symmetric identity and the division polynomial (q = 2)


def _span_combinations(field: GF, gens_count: int, nvars: int
                       ) -> list[MPoly]:
    """All F_q-linear combinations of the first gens_count variables."""
    out = []
    for coeffs in itertools.product(field.elements(), repeat=gens_count):
        p = MPoly.zero(field)
        for i, c in enumerate(coeffs):
            if c:
                e = tuple(1 if j == i else 0 for j in range(nvars))
                p = p + MPoly.make(field, {e: c})
        out.append(p)
    return out


def symmetric_identity_holds(q: int = 2) -> bool:
    """t1 t2 + t2 t3 + t3 t1 = 0 for t1 = u0/u1, t2 = u0/u2,
    t3 = u0/(u1 + u2), checked by clearing denominators (q = 2)."""
    field = gf(q)
    u0 = MPoly.variable(field, 0, 3)
    u1 = MPoly.variable(field, 1, 3)
    u2 = MPoly.variable(field, 2, 3)
    d1, d2, d3 = u1, u2, u1 + u2
    # numerator of t1 t2 + t2 t3 + t3 t1 over the common denominator
    num = u0 * u0 * (d3 + d1 + d2)
    return num.is_zero()


def _division_polynomial(q: int = 2) -> list[tuple[int, MPoly]]:
    """Coefficient list [(z-exponent, numerator)] of the normalized
    T-division polynomial prod over the F_q-span V of (u0,u1,u2) of
    (z - f), divided by z's coefficient; numerators share the denominator
    prod of nonzero f, which is returned implicitly via exponent 1 having
    numerator equal to that product."""
    field = gf(q)
    span = _span_combinations(field, 3, 3)
    # expand prod_{f in V} (z - f) as a polynomial in z with MPoly coeffs
    coeffs: dict[int, MPoly] = {0: MPoly.make(field, {(0, 0, 0): 1})}
    for f in span:
        new: dict[int, MPoly] = {}
        for k, c in coeffs.items():
            new[k + 1] = new.get(k + 1, MPoly.zero(field)) + c
            prod = c * (-f)
            new[k] = new.get(k, MPoly.zero(field)) + prod
        coeffs = {k: v for k, v in new.items() if not v.is_zero()}
    return sorted(coeffs.items())


def division_polynomial_exponents(q: int = 2) -> list[int]:
    """z-exponents with nonzero coefficient; must be the q-powers up to
    q^3 for an additive polynomial of a rank-3 level structure."""
    return [k for k, _ in _division_polynomial(q)]


# generators of GL_3(F_2) acting on (u0, u1, u2)
_GL3_GENERATORS = (
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),  # swap u0, u1
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),  # u0 -> u0 + u1
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),  # cyclic
)


def division_polynomial_is_symmetric(q: int = 2) -> bool:
    """Invariance of the division polynomial under the substitutions
    _GL3_GENERATORS on (u0, u1, u2)."""
    field = gf(q)
    coeffs = _division_polynomial(q)
    for mat in _GL3_GENERATORS:
        images = []
        for row in mat:
            p = MPoly.zero(field)
            for j, c in enumerate(row):
                if c:
                    p = p + MPoly.make(
                        field, {tuple(1 if jj == j else 0
                                      for jj in range(3)): c})
            images.append(p)
        for _, c in coeffs:
            if not (c.substitute(images) - c).is_zero():
                return False
    return True
