"""Spectrum construction and the Ochiai / DStar suspiciousness formulas."""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple


class SpectrumError(Exception):
    pass


class Counts(NamedTuple):
    ef: int  # failed tests executing the element
    ep: int  # passed tests executing the element
    nf: int  # failed tests not executing it
    np: int  # passed tests not executing it


def build_spectrum(runs: Iterable[tuple], universe: Iterable) -> dict:
    """Count per-element coverage over (covered_elements, failed) runs:
    element -> Counts, in universe order."""
    runs = list(runs)
    total_failed = sum(1 for _, failed in runs if failed)
    total_passed = len(runs) - total_failed
    if total_failed == 0:
        raise SpectrumError("spectrum requires at least one failed test")
    counts = {}
    for elem in universe:
        ef = sum(1 for covered, failed in runs if failed and elem in covered)
        ep = sum(1 for covered, failed in runs if not failed and elem in covered)
        counts[elem] = Counts(ef, ep, total_failed - ef, total_passed - ep)
    return counts


def ochiai(ef: int, ep: int, nf: int, np: int) -> float:
    if ef == 0:
        return 0.0
    return ef / math.sqrt((ef + nf) * (ef + ep))


def dstar(ef: int, ep: int, nf: int, np: int, star: int = 2) -> float:
    """DStar with zero denominator mapping to +inf (more suspicious than any finite)."""
    if star < 1:
        raise ValueError(f"star must be >= 1, got {star}")
    if ef == 0:
        return 0.0
    denom = ep + nf
    if denom == 0:
        return math.inf
    return ef**star / denom


def spectrum_scores(spectrum: dict, formula) -> dict:
    return {elem: formula(*counts) for elem, counts in spectrum.items()}
