"""Rank-raising Tate quotients of Drinfeld modules over F_q((t)).

A DrinfeldModule is given by the additive polynomial phi(T) (a twisted
polynomial in tau = Frobenius with Laurent-series coefficients over
F_q((t))); the structure map sends T to t.  Starting from the standard
module psi(T) = t z + z^{q^r}, the module provides:

* the exponential of the A-lattice generated by lambda = t^{-m} inside the
  period space (A acts through psi), built as a monic subspace polynomial
  by the one-dimension-at-a-time recursion e' = tau e - e(lambda)^{q-1} e
  over the finitely many lattice elements of valuation above the working
  precision cutoff, then normalized to linear coefficient 1; each step
  truncates every coefficient to relative precision precision + 1, which
  is all the normalization reads (no coefficient has smaller valuation
  than the linear one; `tate_step` states the bound),
* the quotient module phi with phi(T) e = e psi(T), solved triangularly;
  the tail of the relation is checked to vanish to working precision,
* iterated quotients (each step raises the rank by one),
* Newton-polygon valuations of torsion points phi[N], and the predicted
  valuation multiset from the lattice combinatorics: epsilon on the
  lattice profile at the n deg N sizes q^(rm) p_i, each weighted by a
  count of (A/N)^n, plus the base torsion carried through the exponential,
* the weight-cone class point of a quotient module and of its torsion.

Everything is exact arithmetic on truncated Laurent series; a
PrecisionError from the series layer means the requested precision was
insufficient, never a silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .epsilon import epsilon, epsilon_inv
from .gf import GF, Poly, gf
from .points import ClassPoint
from .series import AdditiveSeries, LaurentSeries, PrecisionError, \
    root_valuations

__all__ = ["DrinfeldModule", "standard_module", "tate_step", "iterate_tate",
           "TateStep", "torsion_valuations", "predicted_torsion_valuations",
           "class_point_of_steps", "lattice_profile_of_steps",
           "admissibility_margin"]


@dataclass(frozen=True)
class DrinfeldModule:
    """A Drinfeld module over F_q((t)) with structure map T -> t."""

    field: GF
    phi_T: AdditiveSeries

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def rank(self) -> int:
        return self.phi_T.tau_degree()

    def phi_of(self, a: Poly) -> AdditiveSeries:
        """The additive polynomial phi(a) for a in F_q[T]."""
        out = AdditiveSeries.zero(self.field)
        power = AdditiveSeries.identity(self.field)  # phi(T)^0
        for i, c in enumerate(a.coeffs):
            if c:  # scale(1) returns its series unchanged
                out = out + AdditiveSeries(self.field, {
                    j: s.scale(c) for j, s in power.coeffs.items()})
            if i < len(a.coeffs) - 1:
                power = self.phi_T.compose(power)
        return out


def standard_module(q: int, r: int) -> DrinfeldModule:
    """psi(T) = t z + z^{q^r} (rank r, good reduction rank r ... its
    reduction has rank r; the t-coefficient realizes the structure map)."""
    if r < 1:
        raise ValueError("rank parameter r must be >= 1")
    field = gf(q)
    return DrinfeldModule(field, AdditiveSeries(field, {
        0: LaurentSeries.t_power(field, 1),
        r: LaurentSeries.one(field),
    }))


def admissibility_margin(module: DrinfeldModule, m: int) -> Fraction:
    """Margin of the convergence condition for the lattice t^{-m} A:
    m (q^r - 1)(q - 1) - q * v(top coefficient); must be >= 0."""
    q = module.q
    r = module.rank
    f = module.phi_T.coeff(r)
    v = f.valuation()
    if v is None:
        raise ValueError("top coefficient vanishes to working precision")
    return Fraction(m * (q ** r - 1) * (q - 1) - q * v)


@dataclass(frozen=True)
class TateStep:
    """Diagnostics of one quotient step."""

    module: DrinfeldModule          # the new module (rank + 1)
    exponential: AdditiveSeries     # monic-normalized lattice exponential
    m: int                          # lattice generator valuation: -v(lambda)
    lattice_valuations: tuple[int, ...]  # -v over the enumerated lattice pts
    top_valuation: int              # v of the new top coefficient


def _lattice_basis(module: DrinfeldModule, m: int, precision: int
                   ) -> list[LaurentSeries]:
    """F_q-basis phi(T^j)(t^{-m}) of the lattice points with -v <= precision.

    An arbitrary lattice point phi(a)(t^{-m}) has the valuation of the
    leading basis vector involved, so this span is exactly the set of
    lattice points above the cutoff.
    """
    lam = LaurentSeries.t_power(module.field, -m)
    pts = []
    prev = None
    while True:
        val = lam.valuation()
        if val is None or -val > precision:
            break
        if prev is not None and val >= prev:
            raise ArithmeticError("lattice valuations failed to decrease")
        prev = val
        pts.append(lam)
        lam = module.phi_T.apply(lam)
    return pts


def _subspace_polynomial(field: GF, points: Sequence[LaurentSeries],
                         rel: int) -> AdditiveSeries:
    """Monic additive polynomial vanishing on the F_q-span of the points
    (which must be F_q-independent, with strictly decreasing valuations),
    each coefficient known to relative precision ``rel``.

    After every step e <- tau e - e(lambda)^(q-1) e each coefficient c is
    truncated at v(c) + rel.  The step itself loses no relative precision:
    the top term of e(lambda) is lambda^(q^j) with coefficient exactly 1,
    and it strictly dominates the other terms because lambda has smaller
    valuation than every point of the span so far.  So e(lambda) and every
    new coefficient again have relative precision at least ``rel``.
    """
    q = field.q
    e = AdditiveSeries.identity(field)
    for lam in points:
        img = e.apply(lam)
        if img.is_zero_to_precision():
            raise ArithmeticError("basis point already in the span")
        a = img.pow_int(q - 1)
        e = e.frobenius_twist() - e.scale(a)
        e = AdditiveSeries(field, {i: c.truncate(c.valuation() + rel)
                                   for i, c in e.coeffs.items()})
    return e


def tate_step(module: DrinfeldModule, m: int, precision: int) -> TateStep:
    """Quotient of `module` by the A-lattice generated by t^{-m}.

    Raises ValueError if precision < 1 or the lattice is not admissible
    (the exponential would not converge), and PrecisionError if the
    requested working precision cannot certify the quotient relation.

    The monic exponential is computed to relative precision precision + 1
    and no further.  Normalizing needs c_0^{-1} to absolute precision
    precision + 1 - v(c_0), which `inverse` reaches exactly when c_0 is
    known to relative precision precision + 1, and every c_i modulo
    t^(v(c_0) + precision + 1).  Every nonzero root of the monic
    exponential is a lattice point of negative valuation; c_0 is (up to
    sign) the product of all of them and c_i a sum of products of fewer.
    So v(c_i) >= v(c_0), and relative precision precision + 1 covers c_i.
    """
    if m < 1:
        raise ValueError("lattice generator exponent m must be >= 1")
    if precision < 1:
        raise ValueError("working precision must be >= 1")
    if admissibility_margin(module, m) < 0:
        raise ValueError("inadmissible lattice: exponential does not converge")
    field = module.field
    q = field.q
    r = module.rank
    pts = _lattice_basis(module, m, precision)
    e_monic = _subspace_polynomial(field, pts, precision + 1)
    lam_vals = tuple(sorted(-v.valuation() for v in pts))
    # normalize to linear coefficient one
    c0 = e_monic.coeff(0)
    v_c0 = c0.valuation()
    if v_c0 is None:
        raise PrecisionError("linear coefficient lost to working precision")
    c0_inv = c0.inverse(precision + 1 - v_c0)
    coeffs: dict[int, LaurentSeries] = {}
    for i in range(e_monic.tau_degree() + 1):
        ci = e_monic.coeff(i)
        if ci.is_zero_to_precision():
            continue
        coeffs[i] = (ci * c0_inv).truncate(precision + 1)
    coeffs[0] = LaurentSeries.one(field, precision + 1)
    e = AdditiveSeries(field, coeffs)
    # triangular solve of phi(T) e = e psi(T): e_0 = 1 exactly, so the
    # k-th unknown equals the residual for k <= r + 1, and past the top
    # the residual must vanish to working precision
    rhs = e.compose(module.phi_T)
    phi_coeffs: dict[int, LaurentSeries] = {}
    for k in range(r + 2 + e.tau_degree()):
        acc = rhs.coeff(k)
        for i, c in phi_coeffs.items():
            acc = acc - c * e.coeff(k - i).frobenius_power(i)
        if acc.is_zero_to_precision():
            continue
        if k > r + 1:
            raise PrecisionError(
                f"quotient relation residual at tau^{k} does not vanish")
        phi_coeffs[k] = acc
    # structure-map sanity: the linear coefficient must be t.  A missing
    # key is a coefficient that vanished to working precision.
    if 0 not in phi_coeffs:
        raise PrecisionError("linear coefficient of the quotient lost")
    lin = phi_coeffs[0] - LaurentSeries.t_power(field, 1)
    if not lin.is_zero_to_precision():
        raise PrecisionError("linear coefficient of the quotient is not t")
    if r + 1 not in phi_coeffs:
        raise PrecisionError("top coefficient of the quotient lost")
    top = phi_coeffs[r + 1].valuation()
    new_module = DrinfeldModule(field, AdditiveSeries(field, phi_coeffs))
    return TateStep(module=new_module, exponential=e, m=m,
                    lattice_valuations=lam_vals, top_valuation=top)


def iterate_tate(q: int, r: int, ms: Sequence[int], precision: int
                 ) -> tuple[DrinfeldModule, list[TateStep]]:
    """Iterated quotients of the standard rank-r module by t^{-m_i} A."""
    module = standard_module(q, r)
    steps = []
    for m in ms:
        step = tate_step(module, m, precision)
        steps.append(step)
        module = step.module
    return module, steps


def torsion_valuations(module: DrinfeldModule, N: Poly
                       ) -> list[tuple[Fraction, int]]:
    """(valuation, multiplicity) of the roots of phi(N), by Newton polygon."""
    pts = module.phi_of(N).newton_points()
    return sorted(root_valuations(pts))


def lattice_profile_of_steps(q: int, r: int, ms: Sequence[int]
                             ) -> tuple[Fraction, ...]:
    """Power coordinates p_i = s_i^r of the lattice profile: p_1 = m_1 and
    p_j is the preimage of m_j under the counting function for the profile
    built so far (each step's generator valuation is measured after the
    previous exponentials)."""
    ps: list[Fraction] = []
    for m in ms:
        ps.append(epsilon_inv(q, r, ps, Fraction(m)))
    return tuple(ps)


def class_point_of_steps(q: int, r: int, ms: Sequence[int]) -> ClassPoint:
    """The weight-cone class point of the iterated quotient: d = r + n,
    coordinates (0, ..., 0, s_1, ..., s_n) with s_i^r the lattice profile."""
    ps = lattice_profile_of_steps(q, r, ms)
    values = tuple([Fraction(0)] * (r - 1) + list(ps))
    return ClassPoint(r + len(ms), values, r)


def predicted_torsion_valuations(q: int, r: int, ms: Sequence[int],
                                 N: Poly) -> list[tuple[Fraction, int]]:
    """Predicted multiset of -v over the N-torsion of the iterated quotient.

    Two parts: the image under the exponential of the N-torsion of the
    standard rank-r module (valuations preserved: torsion valuations are
    positive, lattice valuations negative), and, for each nonzero a in
    (A/N)^n, q^(rk) points at -v = epsilon(|N|^{-r} max_i |a_i|^r p_i) on
    the lattice profile p, with k = deg N.

    The second part is counted.  With a_i of degree < k, the a_i that are
    0 or have q^(r deg a_i) p_i <= X are the q^(e_i(X)) polynomials of
    degree < e_i(X), e_i(X) the number of m < k with q^(rm) p_i <= X.  So
    q^(number of sizes q^(rm) p_i <= X) tuples, the zero tuple included,
    have max <= X; between consecutive distinct sizes X the count grows by
    the tuples with max exactly X: n k epsilon values in place of q^(kn).
    """
    gf(q)  # q is checked first, as the field of the base module
    ps = lattice_profile_of_steps(q, r, ms)
    k = N.degree
    if k < 1:
        raise ValueError("N must be nonconstant")
    counts: dict[Fraction, int] = {}
    base = standard_module(q, r)
    # torsion of the base module passes through the exponential with its
    # valuation unchanged (base torsion is integral, lattice points are not)
    for val, mult in torsion_valuations(base, N):
        counts[Fraction(val)] = counts.get(Fraction(val), 0) + mult
    sizes = [q ** (r * m) * p for p in ps for m in range(k)]
    at_most = 1  # tuples with max <= the previous size: the zero tuple
    for X in sorted(set(sizes)):
        upto = q ** sum(s <= X for s in sizes)
        val = -epsilon(q, r, ps, Fraction(q) ** (-k * r) * X)
        counts[val] = counts.get(val, 0) + (upto - at_most) * q ** (r * k)
        at_most = upto
    return sorted(counts.items())
