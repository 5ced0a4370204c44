"""Critical-predicate discovery by flipping one dynamic predicate evaluation at a time."""

from __future__ import annotations

from .minilang.interp import PASS, run
from .minilang.parse import Program

# Bounds the predicate instances examined per failing test, taken in
# execution order; an instance of an already critical predicate is not re-run.
INSTANCE_BUDGET = 10**4


def critical_predicates_for_tests(program: Program, failing_runs, budget: int) -> tuple[dict, int]:
    """Union of critical predicates over (test, original failing trace) pairs, each flip run
    within ``budget`` steps, each scoring 1.0, plus the number of re-executions.

    Each failing run's predicate instances are flipped in execution order, one
    per re-execution. ``budget`` is ``reexec_step_budget`` of the fault's
    original runs; a flip that crashes or exhausts it does not qualify. A flip
    cannot remove a predicate from the union, so an instance whose predicate
    is already critical, from this test or an earlier one, is skipped.
    """
    critical = set()
    reexecutions = 0
    for test, baseline in failing_runs:
        if not baseline.failed:
            raise ValueError(f"test {test.test_id} passes; nothing to switch")
        for position in baseline.predicate_instances[:INSTANCE_BUDGET]:
            element = baseline.events[position].element
            if element in critical:
                continue
            flipped = run(program, test, flip=position, step_budget=budget)
            reexecutions += 1
            if flipped.flip_applied and flipped.outcome.status == PASS:
                critical.add(element)
    return dict.fromkeys(critical, 1.0), reexecutions
