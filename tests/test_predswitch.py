from pathlib import Path

import pytest

from flkit import predswitch
from flkit.corpus import load_corpus
from flkit.minilang.interp import PASS, TestCase as MLTest, reexec_step_budget, run
from flkit.minilang.parse import parse
from flkit.predswitch import critical_predicates_for_tests

# Faulty branch choice: the condition is inverted, so flipping it repairs
# the run for every input.
INVERTED = """\
func absval(x) {
    if (x > 0) {
        return -x;
    }
    return x;
}
"""


def switch(prog, test):
    """critical_predicates_for_tests on one test's original run, with its budget."""
    baseline = run(prog, test)
    return critical_predicates_for_tests(prog, [(test, baseline)], reexec_step_budget([baseline]))


def switch_all(prog, tests):
    """critical_predicates_for_tests on the tests' original runs, with their budget."""
    runs = [(t, run(prog, t)) for t in tests]
    return critical_predicates_for_tests(prog, runs, reexec_step_budget(tr for _, tr in runs))


class TestFindCritical:
    def test_inverted_branch_is_critical(self):
        prog = parse(INVERTED)
        scored, reexec = switch(prog, MLTest("t", "absval", (-5,), 5))
        assert {e.line for e in scored} == {2}
        assert reexec == 1

    def test_no_critical_predicate(self):
        # wrong constant, not a wrong branch: no flip can fix it
        prog = parse("func f(x) { if (x > 0) { return 7; } return 0; }")
        scored, _ = switch(prog, MLTest("t", "f", (3,), 3))
        assert scored.keys() == set()

    def test_loop_bound_flip(self):
        # off-by-one loop: flipping the final spurious iteration's test fixes it
        prog = parse(
            "func f(n) { var s = 0; var i = 0;"
            " while (i <= n) { s = s + 1; i = i + 1; } return s; }"
        )
        scored, reexec = switch(prog, MLTest("t", "f", (3,), 3))
        assert len(scored) == 1
        # one per dynamic evaluation up to the critical fourth; the fifth
        # evaluates the same, already critical, predicate and is not re-run
        assert reexec == 4

    def test_flip_repairing_a_crash_is_critical(self):
        prog = parse(
            "func f(a, n) { var i = 0; var s = 0;"
            " while (i < n) { s = s + a[i]; i = i + 1; } return s; }"
        )
        # n exceeds the array length and the baseline crashes; flipping the
        # loop test at the overrun iteration exits early and passes
        scored, _ = switch(prog, MLTest("t", "f", ([1, 2], 5), "pass"))
        assert {e.stmt_index for e in scored} == {2}  # the while statement

    def test_crashing_flip_not_critical(self):
        # baseline fails the output check; the flipped branch crashes instead,
        # which does not qualify as critical
        prog = parse("func f(a, x) { if (x > 0) { return a[9]; } return 1; }")
        scored, _ = switch(prog, MLTest("t", "f", ([1], 0), 2))
        assert scored.keys() == set()

    def test_passing_test_rejected(self):
        prog = parse(INVERTED)
        with pytest.raises(ValueError):
            switch(prog, MLTest("t", "absval", (0,), 0))

    def test_instance_budget_limits_reexecutions(self, monkeypatch):
        monkeypatch.setattr(predswitch, "INSTANCE_BUDGET", 10)
        prog = parse(
            "func f(n) { var i = 0; while (i < n) { i = i + 1; } return 0; }"
        )
        _, reexec = switch(prog, MLTest("t", "f", (50,), 99))
        assert reexec == 10

    def test_flip_budget_follows_long_original_run(self, monkeypatch):
        # The wrong branch comes first and a 6,000-step loop follows it, so
        # the repairing flip needs as many steps as the original run.
        monkeypatch.setattr(predswitch, "INSTANCE_BUDGET", 1)
        prog = parse(
            "func f(n) {\n"
            "    var r = 0;\n"
            "    if (n > 0) { r = 1; }\n"
            "    var i = 0;\n"
            "    while (i < n) { i = i + 1; }\n"
            "    return r;\n"
            "}\n"
        )
        test = MLTest("t", "f", (3000,), 0)
        assert len(run(prog, test).events) > 5_000
        scored, _ = switch(prog, test)
        assert {e.line for e in scored} == {3}


class TestMultiTest:
    def test_union_over_failing_tests(self):
        prog = parse(INVERTED)
        tests = [
            MLTest("t1", "absval", (-5,), 5),
            MLTest("t2", "absval", (-9,), 9),
        ]
        scored, reexec = switch_all(prog, tests)
        assert {e.line for e in scored} == {2}
        assert set(scored.values()) == {1.0}
        assert reexec == 1  # t2's only instance is of t1's critical predicate

    def test_deterministic(self):
        prog = parse(INVERTED)
        tests = [MLTest("t1", "absval", (-5,), 5)]
        a = switch_all(prog, tests)
        b = switch_all(prog, tests)
        assert a[0] == b[0]
        assert a[1] == b[1]


def test_flipped_run_repeats_the_original_up_to_the_flip():
    """Positional flips rest on this: a run is deterministic, so flipping the
    predicate evaluation at position p of a failing test's original run gives
    a run whose events up to p have the original's elements and control
    parents, and that applies the flip at the same predicate. The flip run at
    the re-execution budget records the elements of that full-trace flip run
    and has its signature."""
    flips = 0
    for bundle in load_corpus(Path(__file__).resolve().parent.parent / "corpus"):
        originals = [run(bundle.program, t) for t in bundle.tests]
        budget = reexec_step_budget(originals)
        for test, original in zip(bundle.tests, originals):
            if not original.failed:
                continue
            for p in original.predicate_instances:
                full = run(bundle.program, test, flip=p)
                assert full.flip_applied
                shape = [(ev.element, ev.control) for ev in full.events[: p + 1]]
                assert shape == [(ev.element, ev.control) for ev in original.events[: p + 1]]
                flipped = run(bundle.program, test, flip=p, step_budget=budget)
                assert flipped.flip_applied
                assert flipped.events == [ev.element for ev in full.events]
                assert flipped.signature() == full.signature()
                flips += 1
    assert flips == 82


def test_skipped_flips_keep_every_corpus_critical_set(monkeypatch):
    """Flipping every instance, as a reference, finds the same critical set on
    every corpus fault; ``reexecutions`` counts the flipped runs made."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["flip"])
        return run(*args, **kwargs)

    monkeypatch.setattr(predswitch, "run", counted)
    flips = reexecutions = 0
    for bundle in load_corpus(Path(__file__).resolve().parent.parent / "corpus"):
        originals = [(t, run(bundle.program, t)) for t in bundle.tests]
        budget = reexec_step_budget(tr for _, tr in originals)
        failing = [(t, tr) for t, tr in originals if tr.failed]
        reference = set()
        for test, original in failing:
            local = set()
            for p in original.predicate_instances[: predswitch.INSTANCE_BUDGET]:
                flipped = run(bundle.program, test, flip=p, step_budget=budget)
                if flipped.flip_applied and flipped.outcome.status == PASS:
                    local.add(original.events[p].element)
                flips += 1
            calls.clear()
            scored, count = critical_predicates_for_tests(bundle.program, [(test, original)], budget)
            assert scored.keys() == local, (bundle.fault_id, test.test_id)
            assert count == len(calls)
            reference |= local
        calls.clear()
        scored, count = critical_predicates_for_tests(bundle.program, failing, budget)
        assert scored.keys() == reference, bundle.fault_id
        assert count == len(calls)
        reexecutions += count
    assert (flips, reexecutions) == (82, 50)
