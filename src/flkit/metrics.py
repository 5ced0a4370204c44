"""Tie-aware expected-rank metrics and pairwise correlation."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from scipy import stats

from .model import Ranking


class NotLocalizedError(Exception):
    """The ranking contains no faulty element; the caller picks a penalty policy."""


class CorrelationUndefinedError(Exception):
    """Too few retained pairs, or zero variance in a coordinate."""


def expected_first_faulty_rank(ranking: Ranking, faulty: set) -> Fraction:
    """Expected 1-based rank of the first faulty element, exact.

    Tied elements are assumed to be presented in uniformly random order. With
    the first faulty-containing tie-group of size t holding t_f faulty
    elements and starting at position P, the value is
    P + sum_{k=1..t-t_f} k * C(t-k-1, t_f-1) / C(t, t_f).
    """
    for group, start in zip(ranking.groups, ranking.start_positions):
        t_f = len(group & faulty)
        if t_f:
            t = len(group)
            total = comb(t, t_f)
            tail = sum(
                Fraction(k * comb(t - k - 1, t_f - 1), total)
                for k in range(1, t - t_f + 1)
            )
            return start + tail
    raise NotLocalizedError("no faulty element appears in the ranking")


def e_inspect_at_n(values: Iterable[Fraction], n: int) -> int:
    """How many faults were localized within the top n expected positions."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sum(1 for v in values if v <= n)


def exam(ranking: Ranking, faulty: set, universe_size: int) -> Fraction:
    """Fraction of the element universe inspected before the first faulty element."""
    if universe_size < ranking.total:
        raise ValueError("universe smaller than the ranked element count")
    return expected_first_faulty_rank(ranking, faulty) / universe_size


def r_squared(
    xs: Sequence[float], ys: Sequence[float], q: int = 100
) -> tuple[float, float]:
    """Coefficient of determination r^2 and its two-sided p-value.

    Only pairs with x <= q or y <= q are retained: positions past the
    threshold would never be inspected, so agreement there is irrelevant.
    """
    if len(xs) != len(ys):
        raise ValueError("coordinate sequences differ in length")
    pairs = [(float(x), float(y)) for x, y in zip(xs, ys) if x <= q or y <= q]
    if len(pairs) < 3:
        raise CorrelationUndefinedError(
            f"only {len(pairs)} pairs retained after q={q} filter; need >= 3"
        )
    rx = [p[0] for p in pairs]
    ry = [p[1] for p in pairs]
    if len(set(rx)) == 1 or len(set(ry)) == 1:
        raise CorrelationUndefinedError("zero variance in a retained coordinate")
    r, p = stats.pearsonr(rx, ry)
    return r * r, p
