"""Mutation-based scoring: outcome matrices, MUSE, Metallaxis, statement aggregation.

Kill notions differ: MUSE counts a failing test as killing a mutant only when
it flips to passing; Metallaxis counts any output change (it may still fail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .model import ScoredList

SAME = "same-result"
CHANGED = "output-changed"
F2P = "fail-to-pass"
P2F = "pass-to-fail"


class MatrixError(Exception):
    pass


@dataclass(frozen=True)
class MutantOutcomeMatrix:
    classes: dict  # (mutant_id, test_id) -> outcome class
    mutant_stmt: dict  # mutant_id -> statement element
    originally_failed: frozenset  # test ids
    originally_passed: frozenset
    f2p: int  # fail->pass transitions over all mutants
    p2f: int

    @property
    def total_failed(self) -> int:
        return len(self.originally_failed)

    def muse_counts(self, mutant_id) -> tuple[int, int]:
        """(failed_m, passed_m): tests flipping fail->pass / pass->fail on this mutant."""
        failed_m = sum(
            1 for t in self.originally_failed if self.classes[(mutant_id, t)] == F2P
        )
        passed_m = sum(
            1 for t in self.originally_passed if self.classes[(mutant_id, t)] == P2F
        )
        return failed_m, passed_m

    def metallaxis_counts(self, mutant_id) -> tuple[int, int]:
        """(failed_m, passed_m): tests whose output changed on this mutant."""
        failed_m = sum(
            1
            for t in self.originally_failed
            if self.classes[(mutant_id, t)] in (F2P, CHANGED)
        )
        passed_m = sum(
            1
            for t in self.originally_passed
            if self.classes[(mutant_id, t)] in (P2F, CHANGED)
        )
        return failed_m, passed_m


def classify(original_passed: bool, mutant_passed: bool, output_changed: bool) -> str:
    if original_passed and not mutant_passed:
        return P2F
    if not original_passed and mutant_passed:
        return F2P
    return CHANGED if output_changed else SAME


def build_outcome_matrix(
    original: Mapping, mutants: Mapping, mutant_stmt: Mapping
) -> MutantOutcomeMatrix:
    """Classify every (mutant, test) pair.

    original maps test_id -> (passed, output signature); mutants maps
    mutant_id -> {test_id -> (passed, output signature)}. Output equality is
    signature equality (outcome class plus result value / crash kind).
    """
    classes = {}
    f2p = p2f = 0
    failed = frozenset(t for t, (passed, _) in original.items() if not passed)
    passed_tests = frozenset(original) - failed
    for mid, per_test in mutants.items():
        for test_id, (orig_passed, orig_sig) in original.items():
            if test_id not in per_test:
                raise MatrixError(f"mutant {mid} missing execution for test {test_id}")
            mut_passed, mut_sig = per_test[test_id]
            cls = classify(orig_passed, mut_passed, mut_sig != orig_sig)
            classes[(mid, test_id)] = cls
            if cls == F2P:
                f2p += 1
            elif cls == P2F:
                p2f += 1
    return MutantOutcomeMatrix(
        classes, dict(mutant_stmt), failed, passed_tests, f2p, p2f
    )


def muse_mutant_score(failed_m: int, passed_m: int, f2p: int, p2f: int) -> float:
    """failed_m - (f2p/p2f) * passed_m; with no pass->fail transitions the weight is f2p."""
    weight = f2p / p2f if p2f > 0 else float(f2p)
    return failed_m - weight * passed_m


def metallaxis_mutant_score(failed_m: int, passed_m: int, total_failed: int) -> float:
    if total_failed < 1:
        raise ValueError("total_failed must be >= 1")
    if failed_m == 0:
        return 0.0
    return failed_m / math.sqrt(total_failed * (failed_m + passed_m))


def mutant_scores(matrix: MutantOutcomeMatrix, technique: str) -> dict:
    out = {}
    for mid in matrix.mutant_stmt:
        if technique == "muse":
            fm, pm = matrix.muse_counts(mid)
            out[mid] = muse_mutant_score(fm, pm, matrix.f2p, matrix.p2f)
        elif technique == "metallaxis":
            fm, pm = matrix.metallaxis_counts(mid)
            out[mid] = metallaxis_mutant_score(fm, pm, matrix.total_failed)
        else:
            raise ValueError(f"unknown MBFL technique {technique!r}")
    return out


def aggregate_to_statement(
    technique: str, matrix: MutantOutcomeMatrix, universe
) -> ScoredList:
    """MUSE averages a statement's mutant scores; Metallaxis takes the maximum."""
    per_mutant = mutant_scores(matrix, technique)
    by_stmt: dict = {}
    for mid, stmt in matrix.mutant_stmt.items():
        by_stmt.setdefault(stmt, []).append(per_mutant[mid])
    entries = []
    for elem in universe:
        scores = by_stmt.get(elem)
        if not scores:
            entries.append((elem, 0.0))
        elif technique == "muse":
            entries.append((elem, sum(scores) / len(scores)))
        else:
            entries.append((elem, max(scores)))
    return ScoredList(technique, entries)
