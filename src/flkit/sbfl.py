"""Spectrum construction and the Ochiai / DStar suspiciousness formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


class SpectrumError(Exception):
    pass


@dataclass(frozen=True)
class Counts:
    ef: int  # failed tests executing the element
    ep: int  # passed tests executing the element
    nf: int  # failed tests not executing it
    np: int  # passed tests not executing it


@dataclass(frozen=True)
class Spectrum:
    counts: dict  # element -> Counts
    total_failed: int
    total_passed: int

    def __post_init__(self):
        for elem, c in self.counts.items():
            if c.ef + c.nf != self.total_failed or c.ep + c.np != self.total_passed:
                raise SpectrumError(f"inconsistent counts for {elem}: {c}")


def build_spectrum(runs: Iterable[tuple], universe: Iterable) -> Spectrum:
    """Count per-element coverage over (covered_elements, failed) runs."""
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
    return Spectrum(counts, total_failed, total_passed)


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


def spectrum_scores(spectrum: Spectrum, formula) -> dict:
    return {elem: formula(c.ef, c.ep, c.nf, c.np) for elem, c in spectrum.counts.items()}
