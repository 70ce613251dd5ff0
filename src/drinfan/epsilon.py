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
  formula, used as the trusted reference);
* epsilon_closed: closed form, built from the one-weight formula
  epsilon_hat(x) = q^h x - q^{h(r+1)} (q-1)/(q^{r+1}-1) s on the band
  q^{(h-1)r} s <= x <= q^{hr} s, chained across weights (valid for weakly
  increasing weights).

delta(r, s) satisfies epsilon = epsilon_hat + delta and the recursion
delta^{r,n} = delta^{r,n-1} + (q-1)/(q^{r+n}-1) * epsilon_hat^{r,n-1}(s_n).
Exact inverses of epsilon_hat and epsilon are included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = [
    "epsilon_oracle", "epsilon_closed", "epsilon", "epsilon_hat", "delta",
    "epsilon_hat_inv", "epsilon_inv", "hat_stage_weights", "is_monotone",
    "delta_oracle", "epsilon_hat_oracle", "epsilon_hat1", "epsilon_hat1_inv",
]


def _check_args(q: int, r: int, weights: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if q < 2:
        raise ValueError("q must be at least 2")
    if r < 1:
        raise ValueError("rank parameter r must be >= 1")
    w = tuple(Fraction(x) for x in weights)
    if any(x <= 0 for x in w):
        raise ValueError("weights must be positive")
    return w


def is_monotone(weights: Sequence[Fraction]) -> bool:
    w = [Fraction(x) for x in weights]
    return all(a <= b for a, b in zip(w, w[1:]))


def epsilon_oracle(q: int, r: int, weights: Sequence[Fraction],
                   x: Fraction) -> Fraction:
    """Defining sum over y in A^n, grouped by degree profiles."""
    w = _check_args(q, r, weights)
    x = Fraction(x)
    if x <= 0:
        return x
    # per-coordinate options: (count of y_j, contributed value |y_j|^r s_j)
    options: list[list[tuple[int, Fraction]]] = []
    for s in w:
        opts = [(1, Fraction(0))]  # y_j = 0
        m = 0
        val = s  # q^{m r} s at m = 0
        step = Fraction(q) ** r
        count = q - 1  # number of y of degree exactly m: (q-1) q^m
        while val < x:
            opts.append((count, val))
            m += 1
            val *= step
            count *= q
        options.append(opts)

    total = Fraction(0)

    def recurse(j: int, count: int, cur_max: Fraction) -> None:
        nonlocal total
        if cur_max >= x:
            return
        if j == len(options):
            total += count * (x - cur_max)
            return
        for c, v in options[j]:
            recurse(j + 1, count * c, max(cur_max, v))

    recurse(0, 1, Fraction(0))
    return total


def _hat1_band(q: int, r: int, s: Fraction, x: Fraction) -> int:
    """Smallest h >= 0 with x <= q^{hr} s."""
    h = 0
    bound = s
    step = Fraction(q) ** r
    while x > bound:
        bound *= step
        h += 1
    return h


def epsilon_hat1(q: int, r: int, s: Fraction, x: Fraction) -> Fraction:
    """One-weight reduced map; linear with slope q^h on each band."""
    s, = _check_args(q, r, (s,))
    x = Fraction(x)
    h = _hat1_band(q, r, s, x)
    c = Fraction(q - 1, q ** (r + 1) - 1)
    return q ** h * x - q ** (h * (r + 1)) * c * s


def epsilon_hat1_inv(q: int, r: int, s: Fraction, y: Fraction) -> Fraction:
    s, = _check_args(q, r, (s,))
    y = Fraction(y)
    c = Fraction(q - 1, q ** (r + 1) - 1)
    # value at the right end of band h is q^{h(r+1)} s (1 - c), increasing in h
    h = 0
    edge = s * (1 - c)
    step = Fraction(q) ** (r + 1)
    while y > edge:
        edge *= step
        h += 1
    return (y + q ** (h * (r + 1)) * c * s) / q ** h


def hat_stage_weights(q: int, r: int, weights: Sequence[Fraction]
                      ) -> list[Fraction]:
    """Chained one-weight parameters: stage i has rank r+i and weight
    epsilon_hat^{r,i}_{s_1..s_i}(s_{i+1})."""
    w = _check_args(q, r, weights)
    if not is_monotone(w):
        raise ValueError("closed evaluation requires weakly increasing weights")
    stages: list[Fraction] = []
    for i, s in enumerate(w):
        v = Fraction(s)
        for j, t in enumerate(stages):
            v = epsilon_hat1(q, r + j, t, v)
        if v <= 0:
            raise ArithmeticError("stage weight collapsed to <= 0")
        stages.append(v)
    return stages


def epsilon_hat(q: int, r: int, weights: Sequence[Fraction],
                x: Fraction) -> Fraction:
    """Reduced map epsilon - delta, via the one-weight chain."""
    stages = hat_stage_weights(q, r, weights)
    y = Fraction(x)
    for j, t in enumerate(stages):
        y = epsilon_hat1(q, r + j, t, y)
    return y


def epsilon_hat_inv(q: int, r: int, weights: Sequence[Fraction],
                    y: Fraction) -> Fraction:
    stages = hat_stage_weights(q, r, weights)
    x = Fraction(y)
    for j in range(len(stages) - 1, -1, -1):
        x = epsilon_hat1_inv(q, r + j, stages[j], x)
    return x


def delta(q: int, r: int, weights: Sequence[Fraction]) -> Fraction:
    """Normalization constant; 0 for no weights."""
    if not weights:
        return Fraction(0)
    stages = hat_stage_weights(q, r, weights)
    return sum((Fraction(q - 1, q ** (r + i + 1) - 1) * t
                for i, t in enumerate(stages)), Fraction(0))


def epsilon_closed(q: int, r: int, weights: Sequence[Fraction],
                   x: Fraction) -> Fraction:
    """Closed-form epsilon (requires weakly increasing weights)."""
    if not weights:
        return Fraction(x)
    return epsilon_hat(q, r, weights, x) + delta(q, r, weights)


def epsilon(q: int, r: int, weights: Sequence[Fraction],
            x: Fraction) -> Fraction:
    """epsilon, via the closed form when available, else the defining sum."""
    if not weights:
        return Fraction(x)
    if is_monotone(weights):
        return epsilon_closed(q, r, weights, x)
    return epsilon_oracle(q, r, weights, x)


def epsilon_inv(q: int, r: int, weights: Sequence[Fraction],
                y: Fraction) -> Fraction:
    """Inverse of the (strictly increasing) closed-form epsilon."""
    if not weights:
        return Fraction(y)
    return epsilon_hat_inv(q, r, weights, Fraction(y) - delta(q, r, weights))


def delta_oracle(q: int, r: int, weights: Sequence[Fraction]) -> Fraction:
    """Normalization constant straight from its defining sum,
    (q-1)/(q^{r+n}-1) * sum_i q^{n-i} epsilon^{r,i-1}(s_i), independent of
    the closed-form machinery (weights need not be monotone)."""
    w = tuple(Fraction(x) for x in weights)
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
