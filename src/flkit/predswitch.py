"""Critical-predicate discovery by flipping one dynamic predicate evaluation at a time."""

from __future__ import annotations

from dataclasses import dataclass

from .minilang.interp import PASS, ExecutionTrace, TestCase, run
from .minilang.parse import Program
from .model import ScoredList

# Bounds the number of re-executions per failing test; instances are taken
# in execution order.
INSTANCE_BUDGET = 10**4


@dataclass(frozen=True)
class SwitchResult:
    critical: frozenset  # predicate elements whose flip turns the failure into a pass
    reexecutions: int


def find_critical_predicates(
    program: Program, test: TestCase, baseline: ExecutionTrace, budget: int
) -> SwitchResult:
    """Flip each dynamic predicate instance of the failing run, one per re-execution.

    ``baseline`` is the test's original run. Each flip gets ``budget`` steps
    (``reexec_step_budget`` of the fault's original runs); a flip that
    crashes or exhausts them does not qualify.
    """
    if not baseline.failed:
        raise ValueError(f"test {test.test_id} passes; nothing to switch")
    critical = set()
    instances = baseline.predicate_instances[:INSTANCE_BUDGET]
    for position in instances:
        flipped = run(program, test, flip=position, step_budget=budget)
        if flipped.flip_applied and flipped.outcome.status == PASS:
            critical.add(baseline.events[position].element)
    return SwitchResult(frozenset(critical), len(instances))


def critical_predicates_for_tests(program: Program, failing_runs, budget: int) -> tuple[ScoredList, int]:
    """Union of critical predicates over (test, original failing trace) pairs, each flip run
    within ``budget`` steps, as a set-valued scored list, plus the number of re-executions."""
    critical = set()
    reexecutions = 0
    for test, baseline in failing_runs:
        result = find_critical_predicates(program, test, baseline, budget)
        critical |= result.critical
        reexecutions += result.reexecutions
    return ScoredList("predswitch", [(e, 1.0) for e in critical]), reexecutions
