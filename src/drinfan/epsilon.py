"""The scalar piecewise-linear kernel: the weighted counting function
epsilon, its normalization delta, and the reduced map epsilon_hat.

All three are functions of a rank parameter r >= 1, a tuple of positive
rational weights s = (s_1, ..., s_n), and a rational argument x:

  epsilon(x) = sum over y in A^n of max(x - max_i |y_i|^r s_i, 0),

where A = F_q[T] and |y| = q^deg(y), |0| = 0.  The sum is finite: only y
with max_i |y_i|^r s_i < x contribute.  For x <= 0 we use the extension
epsilon(x) = x (all omitted product factors are units), which is what the
exponential-map bookkeeping requires.

Two independent evaluators are provided:

* epsilon_oracle: direct summation over degree profiles of y (the defining
  formula, used as the trusted reference), on integers: x and the weights
  are scaled by the lcm L of their denominators and the integer total is
  divided by L, which is exact because the defining sum is itself
  homogeneous of degree 1 in (x, weights).  It shares no code with the
  closed form;
* epsilon_closed: closed form, built from the one-weight formula
  epsilon_hat(x) = q^h x - q^{h(r+1)} (q-1)/(q^{r+1}-1) s on the band
  q^{(h-1)r} s <= x <= q^{hr} s, chained across weights (valid for weakly
  increasing weights).

delta(r, s) satisfies epsilon = epsilon_hat + delta and the recursion
delta^{r,n} = delta^{r,n-1} + (q-1)/(q^{r+n}-1) * epsilon_hat^{r,n-1}(s_n).
The exact inverse of epsilon is included; the inverse of epsilon_hat at y
is epsilon_inv at y + delta.

Evaluation core.  The one-weight map and its inverse (_hat1, _hat1_inv)
work on ints only: with s = u/v and x = a/b (b > 0) the band h is found by
comparing a v with q^{hr} u b, which is homogeneous in (a, b) and in
(u, v), so neither pair need be in lowest terms, and the value comes back
as an unreduced pair over the denominator b D v.  A stage chain has one
form, a tuple of integer pairs (u, v); _run and _run_inv carry the value
through it as an unreduced pair, and each caller makes one Fraction at
the end (epsilon_closed adds delta in that step).  Stage weights are
positive by construction, so the runners skip epsilon_hat1's checks.

The stages are built by one loop, _stage_pairs: stage i is the chain of
stages 0..i-1 at s_{i+1}, reduced by one gcd, and delta gathers
(q-1)/(q^{r+i+1}-1) times stage i as an unreduced pair.  Stage i depends
only on s_1..s_{i+1}, so the chain of a prefix is a prefix of the chain.
The band test is scale-invariant and each band's value is linear in (x,
s), so epsilon_hat, delta and epsilon are homogeneous of degree 1 in (x,
weights): scaling x and every weight by L > 0 scales the stages, delta
and the value by L.  The pi/xi kernel of xi (_chain_record) uses this to
run the loop on integer weights and return integer numerators over one
denominator per map.  The loop keeps each weight's walk (its numerator
after each stage, from the run that builds its stage); when passed a
list, _stage_pairs hands every walk back with the delta of the stages
before it, and otherwise drops it.  The kernel reads pi and the prefix
deltas off those walks, so this loop stays the only one that builds
stages; each xi coordinate then runs a fresh prefix of the stages
through _run, up to the first weight at or above its argument.

Every public function here that needs a chain gets it from _stage_chain,
which checks q and r, then the weights, on every miss (so an empty vector
is checked too), and keeps the last successful (weights, q, r) in a
one-entry memo keyed on identity; an invalid vector raises on every call.
xi_eval passes one weight tuple, p_r..p_{d-1}, to epsilon_closed for each
coordinate of a point, so the point's chain is checked and built once;
pi_eval runs the kernel on powers its ClassPoint has checked.  There is
no cache behind the memo: over one steady benchmark pass (seed 1) a
64-entry LRU of chains answered 70 of 220 requests on `tate` and 32 of
82 on `fans` (the memo the rest), each saving a 2-5 stage rebuild that
costs 1.5-2 times a hit, and on `cli-mix` it thrashed: 239 hits, 582
misses.

Identity table.  IDENTITIES maps each law that `drinfan verify identities`
checks to f(q, r, w, x) -> (expected, got): closed form against the
defining sum, the scaling law q^{r+n} epsilon_hat(x) = epsilon_hat(q^r x)
(which holds for x >= s_n / q^r), the delta split through the first
weight's one-weight map, and the delta extension above (these ignore x).
The CLI and the acceptance tests sample their own points.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .gf import check_q

__all__ = [
    "epsilon_oracle", "epsilon_closed", "epsilon", "epsilon_hat", "delta",
    "epsilon_inv", "is_monotone", "delta_oracle", "epsilon_hat_oracle",
    "epsilon_hat1", "IDENTITIES",
]


def _check_args(q: int, r: int, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    check_q(q)
    if r < 1:
        raise ValueError("rank parameter r must be >= 1")
    w = tuple(x if type(x) is Fraction else Fraction(x) for x in weights)
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    return w


def is_monotone(weights: Sequence[Fraction]) -> bool:
    w = [Fraction(x) for x in weights]
    return all(a <= b for a, b in zip(w, w[1:]))


def epsilon_oracle(q: int, r: int, weights: Sequence[Fraction],
                   x: Fraction) -> Fraction:
    """Defining sum over y in A^n, grouped by degree profiles, on ints.

    Coordinate j contributes 0 for y_j = 0 (one y_j) and q^{mr} s_j for
    deg y_j = m ((q-1) q^m of them), and only values below x matter.  The
    sum is homogeneous of degree 1 in (x, weights): scaling x and every
    weight by L > 0 scales every term max(x - max_j |y_j|^r s_j, 0) by L.
    So it runs on X = L x and S_j = L s_j, for L the lcm of their
    denominators, and the integer total is divided by L once.  That is a
    property of the sum itself, so the oracle stays independent of the
    closed form it checks."""
    w = _check_args(q, r, weights)
    x = Fraction(x)
    if x <= 0:
        return x
    L = lcm(x.denominator, *(s.denominator for s in w))
    X = x.numerator * (L // x.denominator)
    Q = q ** r
    # per-coordinate options (count of y_j, value |y_j|^r S_j), every value
    # below X, so each profile of options contributes X - its max
    options: list[list[tuple[int, int]]] = []
    for s in w:
        opts = [(1, 0)]
        count, val = q - 1, s.numerator * (L // s.denominator)
        while val < X:
            opts.append((count, val))
            count *= q
            val *= Q
        options.append(opts)
    if not options:
        return x
    *inner, last = options

    def below(j: int, top: int) -> int:
        """Sum over the options of coordinates j.. of their count
        product times X - max(top, their values)."""
        if j == len(inner):
            return sum(c * (X - (v if v > top else top)) for c, v in last)
        return sum(c * below(j + 1, v if v > top else top)
                   for c, v in inner[j])

    return Fraction(below(0, 0), L)


def _hat1(q: int, r: int, u: int, v: int, a: int, b: int) -> tuple[int, int]:
    """epsilon_hat1 on checked arguments, in integer arithmetic.

    With s = u/v and x = a/b (v, b > 0; neither pair need be in lowest
    terms) and Q = q^r, the band h is the least h >= 0 with a v <= Q^h u b
    (homogeneous in (a, b) and in (u, v)), and the value
    q^h x - q^h Q^h c s, c = (q-1)/D, D = q^{r+1} - 1, is returned as the
    unreduced pair (q^h (a v D - Q^h (q-1) u b), b D v)."""
    Q = q ** r
    av, ub = a * v, u * b
    qh = Qh = 1
    while av > Qh * ub:
        Qh *= Q
        qh *= q
    D = q * Q - 1
    return qh * (av * D - Qh * (q - 1) * ub), b * D * v


def _hat1_inv(q: int, r: int, u: int, v: int, a: int, b: int
              ) -> tuple[int, int]:
    """Inverse of epsilon_hat1 on checked arguments, in integer arithmetic.

    The value at the right end of band h is P^h s (1 - c), P = q^{r+1},
    increasing in h; with s = u/v and y = a/b (b > 0) the band is the least
    h with a v D <= P^h u (P - q) b, and the preimage is the unreduced pair
    (a D v + P^h (q-1) u b, b D v q^h)."""
    P = q ** (r + 1)
    D = P - 1
    avD, edge = a * v * D, u * (P - q) * b
    qh = Ph = 1
    while avD > Ph * edge:
        Ph *= P
        qh *= q
    return avD + Ph * (q - 1) * u * b, b * D * v * qh


def epsilon_hat1(q: int, r: int, s: Fraction, x: Fraction) -> Fraction:
    """One-weight reduced map; linear with slope q^h on the band
    q^{(h-1)r} s <= x <= q^{hr} s."""
    s, = _check_args(q, r, (s,))
    x = Fraction(x)
    return Fraction(*_hat1(q, r, s.numerator, s.denominator,
                           x.numerator, x.denominator))


def _run(q: int, r: int, stages: Sequence[tuple[int, int]], a: int, b: int
         ) -> tuple[int, int]:
    """The chain at x = a/b (b > 0): stage j, a pair (u, v), is the
    one-weight map of rank r+j at weight u/v.  The value comes back as an
    unreduced pair."""
    for j, (u, v) in enumerate(stages):
        a, b = _hat1(q, r + j, u, v, a, b)
    return a, b


def _run_inv(q: int, r: int, stages: Sequence[tuple[int, int]], a: int,
             b: int) -> tuple[int, int]:
    """The inverse of _run: the stages from the last to the first."""
    for j in range(len(stages) - 1, -1, -1):
        u, v = stages[j]
        a, b = _hat1_inv(q, r + j, u, v, a, b)
    return a, b


def _stage_pairs(q: int, r: int, weights: Sequence[tuple[int, int]],
                 walks: list | None = None
                 ) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """(stage weights, delta) of positive, weakly increasing weights given
    as integer pairs (u, v), v > 0; both come back as integer pairs.

    Stage i is the chain of stages 0..i-1 at weight i, reduced by one
    gcd (so the integers of the later chains stay small), and delta adds
    (q-1)/(q^{r+i+1}-1) times stage i, unreduced.

    Weight i's walk is kept as its stage is built; with a list walks it
    is appended there as (numerators, prefix delta), where numerators[j]
    is the numerator of the chain of stages 0..j-1 at weight i, over v
    prod_{l<j} D_l v_l (D_l = q^{r+l+1} - 1, v_l the denominator of stage
    l; numerators[0] is u), and prefix delta is delta of stages 0..i-1 as
    its unreduced pair, whose denominator is prod_{l<i} D_l v_l."""
    stages: list[tuple[int, int]] = []
    dn, dm = 0, 1
    for u, v in weights:
        a, b, walk = u, v, [u]
        for j, (s, t) in enumerate(stages):
            a, b = _hat1(q, r + j, s, t, a, b)
            walk.append(a)
        if walks is not None:
            walks.append((walk, (dn, dm)))
        g = gcd(a, b)
        a, b = a // g, b // g
        if a <= 0:
            raise ArithmeticError("stage weight collapsed to <= 0")
        D = q ** (r + len(stages) + 1) - 1
        dn, dm = dn * D * b + (q - 1) * a * dm, dm * D * b
        stages.append((a, b))
    return tuple(stages), (dn, dm)


# the last weight vector _stage_chain checked: (weights, q, r, chain)
_last: tuple = (None, None, None, None)


def _stage_chain(q: int, r: int, weights: Sequence[Fraction]
                 ) -> tuple[tuple[tuple[int, int], ...], tuple[int, int]]:
    """(stage weights, delta) of a weight vector as integer pairs: the
    stages reduced with u, v > 0, delta unreduced.

    q, r and the weights (positive) are checked, then every adjacent pair
    is compared before any stage is built.  The one-entry memo is keyed
    on the identity of (weights, q, r) and keeps only successes on a
    tuple of exact Fractions, which cannot change; the memo holds it, so
    its id is not reused while it is the key."""
    global _last
    last = _last
    if weights is last[0] and q is last[1] and r is last[2]:
        return last[3]
    w = _check_args(q, r, weights)
    if any(a > b for a, b in zip(w, w[1:])):
        raise ValueError("closed evaluation requires weakly increasing weights")
    chain = _stage_pairs(q, r, [(t.numerator, t.denominator) for t in w])
    if type(weights) is tuple and all(type(x) is Fraction for x in weights):
        _last = (weights, q, r, chain)
    return chain


def epsilon_hat(q: int, r: int, weights: Sequence[Fraction],
                x: Fraction) -> Fraction:
    """Reduced map epsilon - delta, via the one-weight chain."""
    stages, _ = _stage_chain(q, r, weights)
    x = Fraction(x)
    return Fraction(*_run(q, r, stages, x.numerator, x.denominator))


def delta(q: int, r: int, weights: Sequence[Fraction]) -> Fraction:
    """Normalization constant; 0 for no weights."""
    return Fraction(*_stage_chain(q, r, weights)[1])


def epsilon_closed(q: int, r: int, weights: Sequence[Fraction],
                   x: Fraction) -> Fraction:
    """Closed-form epsilon (requires weakly increasing weights)."""
    stages, (n, m) = _stage_chain(q, r, weights)
    if type(x) is not Fraction:
        x = Fraction(x)
    a, b = _run(q, r, stages, x.numerator, x.denominator)
    return Fraction(a * m + n * b, b * m)


def epsilon(q: int, r: int, weights: Sequence[Fraction],
            x: Fraction) -> Fraction:
    """epsilon, via the closed form when available, else the defining sum."""
    if is_monotone(weights):
        return epsilon_closed(q, r, weights, x)
    return epsilon_oracle(q, r, weights, x)


def epsilon_inv(q: int, r: int, weights: Sequence[Fraction],
                y: Fraction) -> Fraction:
    """Inverse of the (strictly increasing) closed-form epsilon."""
    stages, (n, m) = _stage_chain(q, r, weights)
    y = Fraction(y)
    b = y.denominator
    return Fraction(*_run_inv(q, r, stages, y.numerator * m - n * b, b * m))


def delta_oracle(q: int, r: int, weights: Sequence[Fraction]) -> Fraction:
    """Normalization constant straight from its defining sum,
    (q-1)/(q^{r+n}-1) * sum_i q^{n-i} epsilon^{r,i-1}(s_i), independent of
    the closed-form machinery (weights need not be monotone).  q, r and
    the weights are checked as ``delta`` checks them."""
    w = _check_args(q, r, weights)
    n = len(w)
    if n == 0:
        return Fraction(0)
    acc = sum((q ** (n - i) * epsilon_oracle(q, r, w[:i - 1], w[i - 1])
               for i in range(1, n + 1)), Fraction(0))
    return Fraction(q - 1, q ** (r + n) - 1) * acc


def epsilon_hat_oracle(q: int, r: int, weights: Sequence[Fraction],
                       x: Fraction) -> Fraction:
    """Reduced map from the defining sums (reference implementation)."""
    return (epsilon_oracle(q, r, weights, x)
            - delta_oracle(q, r, weights))


IDENTITIES: dict[str, Callable[..., tuple[Fraction, Fraction]]] = {
    "closed-vs-oracle": lambda q, r, w, x: (
        epsilon_oracle(q, r, w, x), epsilon_closed(q, r, w, x)),
    "scaling": lambda q, r, w, x: (
        q ** (r + len(w)) * epsilon_hat(q, r, w, x),
        epsilon_hat(q, r, w, q ** r * x)),
    "delta-split": lambda q, r, w, x: (
        delta(q, r, w[:1])
        + delta(q, r + 1, [epsilon_hat1(q, r, w[0], t) for t in w[1:]]),
        delta(q, r, w)),
    "delta-extend": lambda q, r, w, x: (
        delta(q, r, w[:-1]) + Fraction(q - 1, q ** (r + len(w)) - 1)
        * epsilon_hat(q, r, w[:-1], w[-1]),
        delta(q, r, w)),
}
