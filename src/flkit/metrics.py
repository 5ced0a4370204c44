"""Tie-aware expected-rank metrics and pairwise correlation.

The expected rank is counted from a plain score dict: only the elements above
and tied at the best faulty score matter, so no ranking is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

from .model import ModelError


class NotLocalizedError(Exception):
    """No faulty element is scored; the caller picks a penalty policy."""


class CorrelationUndefinedError(Exception):
    """Too few retained pairs, or zero variance in a coordinate."""


def expected_first_faulty_rank(scores: Mapping, faulty: AbstractSet) -> Fraction:
    """Expected 1-based rank of the first faulty element, exact.

    Tied elements are assumed to be presented in uniformly random order. Let
    s* be the best faulty score, a the elements scored above s*, t the
    elements tied at s* and t_f the faulty ones among those. The value is
    a + 1 + (t - t_f) / (t_f + 1), the mean of the negative hypergeometric
    count of correct elements before the first faulty one: the t_f faulty
    elements cut the t - t_f correct ones into t_f + 1 runs of equal expected
    length.
    """
    for elem, score in scores.items():
        if math.isnan(score):
            raise ModelError(f"NaN score for {elem}")
    found = [scores[e] for e in faulty if e in scores]
    if not found:
        raise NotLocalizedError("no faulty element appears in the ranking")
    best = max(found)
    t_f = found.count(best)
    above = tied = 0
    for score in scores.values():
        if score > best:
            above += 1
        elif score == best:
            tied += 1
    return Fraction((above + 1) * (t_f + 1) + tied - t_f, t_f + 1)


def e_inspect_at_n(values: Iterable[Fraction], n: int) -> int:
    """How many faults were localized within the top n expected positions."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(1 for v in values if v <= n)


def _scaled(values: Sequence) -> list:
    """The values times the lcm of their denominators: integers, same ratios."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def r_squared(
    xs: Sequence[Fraction], ys: Sequence[Fraction], q: int = 100
) -> tuple[float, float]:
    """Coefficient of determination r^2 and its two-sided p-value.

    Only pairs with x <= q or y <= q are retained: positions past the
    threshold would never be inspected, so agreement there is irrelevant.
    Coordinates may be ints, Fractions or finite floats; r^2 is computed
    exactly and rounded to float once.
    """
    if len(xs) != len(ys):
        raise ValueError("coordinate sequences differ in length")
    pairs = [(x, y) for x, y in zip(xs, ys) if x <= q or y <= q]
    n = len(pairs)
    if n < 3:
        raise CorrelationUndefinedError(
            f"only {n} pairs retained after q={q} filter; need >= 3"
        )
    try:
        rx = _scaled([p[0] for p in pairs])
        ry = _scaled([p[1] for p in pairs])
    except (OverflowError, ValueError):
        raise ValueError("coordinates must be finite") from None
    sx, sy = sum(rx), sum(ry)
    sxx = n * sum(v * v for v in rx) - sx * sx
    syy = n * sum(v * v for v in ry) - sy * sy
    if sxx == 0 or syy == 0:
        raise CorrelationUndefinedError("zero variance in a retained coordinate")
    sxy = n * sum(a * b for a, b in zip(rx, ry)) - sx * sy
    # n^2 times covariance and variances, in ints: r^2 and 1 - r^2 round once.
    den = sxx * syy
    r2 = sxy * sxy / den
    return r2, _correlation_p(r2, (den - sxy * sxy) / den, n - 2)


def _correlation_p(r2: float, x: float, nu: int) -> float:
    """Two-sided p-value of Student's t for a sample correlation r on nu
    degrees of freedom, given r^2 and x = 1 - r^2 (each rounded once).

    With sin(theta) = |r| and cos^2(theta) = x, the finite series of Abramowitz
    & Stegun 26.7.4 (even nu) and 26.7.3 (odd nu) give P(|T| <= t) as
        even: |r| * sum_{k < nu/2} c_k x^k,  c_k = (2k-1)!!/(2k)!!
        odd:  (2/pi) * (theta + |r| cos(theta) * sum_{k < (nu-1)/2} d_k x^k),
              d_k = (2k)!!/(2k+1)!!
    and the infinite series make it exactly 1, so p is the sum of the terms
    past the head. That tail is summed directly when the head leaves p below
    1/8, where 1 - head would lose relative precision to cancellation.
    """
    if x == 0.0:
        return 0.0
    odd = nu % 2
    r, c = math.sqrt(r2), math.sqrt(x)
    # |r| * (2/pi) cos(theta) for odd nu: the series' common factor.
    scale = 2.0 * r * c / math.pi if odd else r
    start = 2.0 * math.atan2(r, c) / math.pi if odd else 0.0
    term, head = 1.0, 0.0
    for k in range(nu // 2):
        head += term
        term *= x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    p = 1.0 - (start + scale * head)
    if p >= 0.125:
        return p
    tail, k = 0.0, nu // 2
    # Each term is at most x times the last, so the terms after `term` sum to
    # at most term * x / (1 - x).
    while term * x > tail * r2 * 2.0**-54:
        tail += term
        term *= x * (2 * k + 1 + odd) / (2 * k + 2 + odd)
        k += 1
    return scale * (tail + term)
