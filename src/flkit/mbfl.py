"""Mutation-based scoring: per-mutant kill counts, MUSE, Metallaxis, statement aggregation.

Kill notions differ: MUSE counts a failing test as killing a mutant only when
it flips to passing; Metallaxis counts any output change (it may still fail).
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

from .model import ProgramElement


class MutantKills(NamedTuple):
    """How the tests of one mutant differ from the original runs."""

    stmt: ProgramElement  # the mutated statement
    f2p: int  # originally failing tests that pass
    p2f: int  # originally passing tests that fail
    failed_changed: int  # originally failing tests whose output changed, f2p included
    passed_changed: int  # originally passing tests whose output changed, p2f included


def build_outcome_matrix(
    original: Mapping, mutants: Mapping, mutant_stmt: Mapping
) -> tuple[int, dict]:
    """Count each mutant's kills in one pass over its test runs.

    original maps test_id -> (passed, output signature); mutants maps
    mutant_id -> {test_id -> (passed, output signature)}. Output equality is
    signature equality (outcome class plus result value / crash kind), and a
    pass/fail flip is always a change. Returns the number of originally
    failing tests and mutant_id -> MutantKills, in `mutants` order; a mutant
    without a run for some test raises KeyError.
    """
    kills = {}
    for mid, per_test in mutants.items():
        f2p = p2f = failed_changed = passed_changed = 0
        for test_id, (orig_passed, orig_sig) in original.items():
            passed, sig = per_test[test_id]
            changed = passed != orig_passed or sig != orig_sig
            if orig_passed:
                p2f += not passed
                passed_changed += changed
            else:
                f2p += passed
                failed_changed += changed
        kills[mid] = MutantKills(mutant_stmt[mid], f2p, p2f, failed_changed, passed_changed)
    total_failed = sum(1 for passed, _ in original.values() if not passed)
    return total_failed, kills


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


def aggregate_to_statement(matrix: tuple, universe) -> dict:
    """Score each mutant from `build_outcome_matrix`'s counts, then each
    statement: technique -> statement -> score, where Metallaxis takes the
    maximum of the statement's mutants and MUSE averages them. Statements
    without mutants score 0."""
    total_failed, kills = matrix
    f2p = sum(k.f2p for k in kills.values())
    p2f = sum(k.p2f for k in kills.values())
    by_stmt: dict = {}
    for k in kills.values():
        by_stmt.setdefault(k.stmt, []).append(k)
    metallaxis, muse = {}, {}
    for elem in universe:
        mine = by_stmt.get(elem, ())
        metallaxis[elem] = max(
            (metallaxis_mutant_score(k.failed_changed, k.passed_changed, total_failed) for k in mine),
            default=0.0,
        )
        total = 0.0  # left to right: sum() compensates rounding from Python 3.12
        for k in mine:
            total += muse_mutant_score(k.f2p, k.p2f, f2p, p2f)
        muse[elem] = total / len(mine) if mine else 0.0
    return {"metallaxis": metallaxis, "muse": muse}
