import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flkit.minilang import interp
from flkit.minilang.interp import (
    ASSERT_FAIL,
    CRASH,
    MAX_CALL_DEPTH,
    PASS,
    TestCase as MLTest,
    run,
)
from flkit.minilang.mutate import gen_mutants
from flkit.minilang.parse import (
    ARITH_OPS,
    CHILD_FIELDS,
    LOGIC_OPS,
    MAX_NESTING,
    REL_OPS,
    Assign,
    Binary,
    Expr,
    ExprStmt,
    If,
    MiniSyntaxError,
    Num,
    Stmt,
    While,
    children,
    iter_exprs,
    parse,
)
from flkit.model import ProgramElement

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

COLLATZ = """\
func collatz(x) { var res = 0;
    if ((x % 2) == 0)
        res = x / 2;
    else
        res = x * 3 + 1;
    return res;
}
"""

# Every kind of statement and expression node.
EVERY_NODE = (
    "func g(x) { return; }\n"
    "func f(a) { var s; var t = [1, -a[0]]; t[0] = 2; if (!true) { g(s); } else { s = 1; }"
    " while (s < 0) { s = s + 1; } assert(s == 1); return t[0]; }"
)
RECURSIVE = "func f(n) { if (n == 0) { return 0; } return 1 + f(n - 1); }"
SPIN = "func f() { while (true) { var x = 1; } return 0; }"


def lines(elements):
    return sorted(e.line for e in elements)


def at_python_depth(frames, fn):
    """Call fn() from `frames` extra Python stack frames."""
    if frames == 0:
        return fn()
    return at_python_depth(frames - 1, fn)


def _nested_array(levels):
    value = 7
    for _ in range(levels):
        value = [value]
    return value


# Each shape nested k levels deep reaches nesting level k + 2: the return
# statement is level 1 and the innermost operand is level k + 2.
NESTED_SHAPES = {
    "unary": (lambda k: "func f(x) { return " + "- " * k + "x; }", lambda k: (3,)),
    "index": (lambda k: "func f(a) { return a" + "[0]" * k + "; }", lambda k: (_nested_array(k),)),
    "if": (
        lambda k: "func f(x) { " + "if (x > 0) { " * k + "return 1; " + "} " * k + "return 0; }",
        lambda k: (1,),
    ),
    "binary": (lambda k: "func f(x) { return x" + " + x" * k + "; }", lambda k: (1,)),
    "parens": (lambda k: "func f(x) { return " + "(" * k + "x" + ")" * k + "; }", lambda k: (3,)),
}


class TestParsing:
    def test_elements_in_lexical_order(self):
        prog = parse(COLLATZ)
        assert lines(prog.elements()) == [1, 2, 3, 5, 6]

    def test_two_statements_on_one_line(self):
        prog = parse("func f() { var a = 1; var b = 2; return a + b; }")
        elems = prog.elements()
        assert [(e.line, e.stmt_index) for e in elems] == [(1, 0), (1, 1), (1, 2)]

    def test_child_fields_hold_every_child(self):
        # CHILD_FIELDS is read off the annotations; a child field it missed
        # would hide a subtree from mutation, tree checks and loop classification.
        nodes = all_nodes(parse(EVERY_NODE))
        assert set(CHILD_FIELDS) == set(map(type, nodes))
        for node in nodes:
            values = [getattr(node, f.name) for f in dataclasses.fields(node)]
            items = [item for value in values for item in (value if type(value) is list else [value])]
            expected = [item for item in items if isinstance(item, (Expr, Stmt))]
            assert list(map(id, children(node))) == list(map(id, expected))

    def test_method_map(self):
        prog = parse("func g() { return 1; }\nfunc h() { return g(); }")
        methods = set(prog.method_map().values())
        assert methods == {"g", "h"}

    def test_comments_ignored(self):
        prog = parse("func f() { # comment\n return 1; }")
        assert run(prog, MLTest("t", "f", (), 1)).outcome.status == PASS

    def test_undefined_call_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse("func f() { return g(); }")

    def test_syntax_error_position(self):
        with pytest.raises(MiniSyntaxError):
            parse("func f() { return 1 }")  # missing semicolon

    @pytest.mark.parametrize("literal, bad", [("²", "²"), ("١٢", "١"), ("1²", "²")])
    def test_integer_literals_are_ascii(self, literal, bad):
        # str.isdigit() accepts these, and int() rejects '²' and reads '١٢' as 12.
        with pytest.raises(MiniSyntaxError, match=f"unexpected character '{bad}'"):
            parse(f"func f() {{ return {literal}; }}")

    def test_duplicate_function_rejected(self):
        with pytest.raises(MiniSyntaxError):
            parse("func f() { return 1; } func f() { return 2; }")

    def test_deep_nesting_is_syntax_error(self):
        with pytest.raises(MiniSyntaxError, match="nesting too deep"):
            parse("func f() { return " + "(" * 400 + "1" + ")" * 400 + "; }")

    @pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
    def test_nesting_bound(self, shape):
        source, args = NESTED_SHAPES[shape]
        k = MAX_NESTING - 2
        # from a deeper caller stack too: the bound leaves Python room to spare
        prog = at_python_depth(200, lambda: parse(source(k)))
        mutants = at_python_depth(200, lambda: gen_mutants(prog))
        test = MLTest("t", "f", args(k), "pass")
        for program in [prog] + [m.program for m in mutants]:
            assert run(program, test).outcome.status in (PASS, ASSERT_FAIL, CRASH)
        with pytest.raises(MiniSyntaxError, match="nesting too deep"):
            parse(source(k + 1))


class TestInterpreter:
    def test_arithmetic_and_return(self):
        prog = parse("func f(a, b) { return a * b + a % b; }")
        tr = run(prog, MLTest("t", "f", (7, 3), 22))
        assert tr.outcome.status == PASS
        assert tr.value == 22

    def test_truncating_division_toward_zero(self):
        prog = parse("func f(a, b) { return a / b; }")
        assert run(prog, MLTest("t", "f", (-7, 2), "pass")).value == -3
        assert run(prog, MLTest("t", "f", (7, -2), "pass")).value == -3
        assert run(prog, MLTest("t", "f", (7, 2), "pass")).value == 3

    def test_modulo_matches_truncating_division(self):
        prog = parse("func f(a, b) { return a % b; }")
        assert run(prog, MLTest("t", "f", (-7, 2), "pass")).value == -1
        assert run(prog, MLTest("t", "f", (7, -2), "pass")).value == 1

    def test_runs_share_the_constant_outcomes(self):
        prog = parse("func f(x) { return x; }")
        passed = [run(prog, MLTest(f"t{i}", "f", (i,), i)).outcome for i in range(2)]
        failed = [run(prog, MLTest(f"t{i}", "f", (i,), -1)).outcome for i in range(2)]
        assert passed[0] is passed[1] and passed[0] == interp.Outcome(PASS)
        assert failed[0] is failed[1] and failed[0] == interp.Outcome(ASSERT_FAIL)

    def test_wrong_result_is_assertion_failure_not_crash(self):
        prog = parse("func f() { return 2; }")
        tr = run(prog, MLTest("t", "f", (), 3))
        assert tr.outcome.status == ASSERT_FAIL
        assert tr.criterion_event is not None
        assert tr.events[tr.criterion_event].element.line == 1

    @pytest.mark.parametrize(
        "src, expect, status",
        [
            ("true", 1, ASSERT_FAIL),
            ("0", False, ASSERT_FAIL),
            ("[1, true]", [1, 1], ASSERT_FAIL),
            ("[1]", (True,), ASSERT_FAIL),
            ("true", True, PASS),
            ("[1, true]", (1, True), PASS),
        ],
    )
    def test_result_matches_expect_in_type(self, src, expect, status):
        # 1 == True in Python, but not in the language.
        prog = parse(f"func f() {{ return {src}; }}")
        assert run(prog, MLTest("t", "f", (), expect)).outcome.status == status

    def test_assert_statement(self):
        prog = parse("func f(x) { assert(x > 0); return x; }")
        assert run(prog, MLTest("t", "f", (1,), "pass")).outcome.status == PASS
        tr = run(prog, MLTest("t", "f", (0,), "pass"))
        assert tr.outcome.status == ASSERT_FAIL

    @pytest.mark.parametrize(
        "src,args,kind",
        [
            ("func f(a) { return a / 0; }", (1,), "div0"),
            ("func f(a) { return a[5]; }", ([1, 2],), "bounds"),
            ("func f(a) { return a + 1; }", ([1],), "type"),
            ("func f() { return x; }", (), "undefined-var"),
            (SPIN, (), "budget"),
            ("func f(x) { return f(x); }", (1,), "stack-overflow"),
        ],
    )
    def test_crash_kinds(self, src, args, kind):
        tr = run(parse(src), MLTest("t", "f", args, "pass"), step_budget=2000)
        assert tr.outcome.status == CRASH
        assert tr.outcome.crash_kind == kind

    def test_deep_recursion_is_stack_overflow_crash(self):
        # Deeper than MAX_CALL_DEPTH: the call-depth guard trips.
        prog = parse(RECURSIVE)
        tr = run(prog, MLTest("t", "f", (199,), 199))
        assert tr.outcome.status == CRASH
        assert tr.outcome.crash_kind == "stack-overflow"
        assert tr.outcome.stack[0] == "f"

    def test_call_depth_guard_independent_of_caller_stack(self):
        prog = parse(RECURSIVE)
        test = MLTest("t", "f", (150,), 150)
        top = run(prog, test).outcome
        deep = at_python_depth(200, lambda: run(prog, test)).outcome
        assert top == deep
        assert (top.status, top.crash_kind) == (CRASH, "stack-overflow")
        assert len(top.stack) == MAX_CALL_DEPTH

    @pytest.mark.xfail(
        strict=True,
        reason="open defect (ROADMAP item 7): Python's RecursionError backstop trips"
        " before MAX_CALL_DEPTH, at a call depth that depends on the caller's stack",
    )
    def test_recursion_backstop_independent_of_caller_stack(self):
        # 55 additions around each call use up Python's stack long before MAX_CALL_DEPTH.
        prog = parse("func f(n) { if (n == 0) { return 0; } return f(n - 1)" + " + 1" * 55 + "; }")
        test = MLTest("t", "f", (90,), "pass")
        top = run(prog, test).outcome
        deep = at_python_depth(300, lambda: run(prog, test)).outcome
        assert (top.status, top.crash_kind) == (CRASH, "stack-overflow")
        assert top == deep

    def test_overflow_trap(self):
        prog = parse(
            "func f(n) { var b = 2; var i = 0;"
            " while (i < n) { b = b * b; i = i + 1; } return b; }"
        )
        tr = run(prog, MLTest("t", "f", (100,), "pass"))
        assert tr.outcome.status == CRASH
        assert tr.outcome.crash_kind == "overflow"

    def test_repeated_loop_state_stops_at_head(self):
        # run() defaults to STEP_BUDGET; the variables repeat on the third lap.
        tr = run(parse(SPIN), MLTest("t", "f", (), "pass"))
        assert (tr.outcome.status, tr.outcome.crash_kind, tr.outcome.stack) == (CRASH, "budget", ("f",))
        assert len(tr.events) < 10
        assert tr.criterion_event == len(tr.events) - 1
        assert tr.events[tr.criterion_event].element == tr.events[0].element  # the loop head

    def test_pending_flip_disables_repeat_stop(self):
        # The loop head's events are at positions 0, 2, 4, ...: flip the sixth.
        tr = run(parse(SPIN), MLTest("t", "f", (), "pass"), flip=10)
        assert tr.outcome.status == PASS
        assert tr.flip_applied and tr.value == 0

    def test_repeat_is_type_strict(self):
        # At the third head x is 1 where it was true at the second, so the two
        # states are equal only under Python's ==; the third lap then tests if (1).
        prog = parse(
            "func f() { var x = true; var k = 0; while (true) {"
            " if (k == 0) { k = 1; } else { if (x) { x = 1; } } } return 0; }"
        )
        tr = run(prog, MLTest("t", "f", (), "pass"))
        assert (tr.outcome.status, tr.outcome.crash_kind) == (CRASH, "type")

    def test_coverage_per_branch(self):
        prog = parse(COLLATZ)
        even = run(prog, MLTest("t", "collatz", (4,), 2))
        odd = run(prog, MLTest("t", "collatz", (3,), 10))
        assert lines(even.covered) == [1, 2, 3, 6]
        assert lines(odd.covered) == [1, 2, 5, 6]

    def test_crash_stack_depths(self):
        prog = parse(
            "func inner(a) { return a[9]; }\n"
            "func outer(a) { return inner(a); }"
        )
        tr = run(prog, MLTest("t", "outer", ([1],), "pass"))
        assert tr.outcome.stack == ("inner", "outer")  # innermost first

    def test_array_store_copies(self):
        prog = parse(
            "func f(a) { a[0] = 9; return a[0] + a[1]; }"
        )
        arg = [1, 2]
        tr = run(prog, MLTest("t", "f", (arg,), 11))
        assert tr.outcome.status == PASS
        assert arg == [1, 2]  # caller's list untouched

    def test_short_circuit_skips_rhs(self):
        prog = parse("func f(x) { if (x != 0 && 10 / x > 1) { return 1; } return 0; }")
        assert run(prog, MLTest("t", "f", (0,), 0)).outcome.status == PASS

    def test_deterministic_trace(self):
        prog = parse(COLLATZ)
        a = run(prog, MLTest("t", "collatz", (7,), "pass"))
        b = run(prog, MLTest("t", "collatz", (7,), "pass"))
        assert a.events == b.events
        assert a.predicate_instances == b.predicate_instances


ISEVEN = "func iseven(x) { return (x % 2) == 0; }\n"


class TestAccumulatorStop:
    """A loop whose state repeats except for its accumulators and drift variable
    (the interp module docstring defines them) stops at the repeat, under the
    default STEP_BUDGET, unless the stop could hide another outcome."""

    @pytest.mark.parametrize(
        "src,args",
        [
            # The sum grows while the counter is stuck.
            (
                "func f(a, n) { var s = 0; var i = 0;"
                " while (i < n) { s = s + a[0]; i = i * 1; } return s; }",
                ([1, 2], 2),
            ),
            # The count grows inside an if whose condition calls a function.
            (
                ISEVEN + "func f(a, n) { var c = 0; var i = 0;"
                " while (i < n) { if (iseven(a[i])) { c = c + 1; } i = i / 1; } return c; }",
                ([2, 4], 2),
            ),
            # The counter falls under <, away from its bound.
            ("func f(n) { var i = 0; while (i < n) { i = i - 1; } return i; }", (3,)),
            # The counter rises under !(<).
            ("func f(n) { var i = 0; while (!(i < n)) { i = i + 1; } return i; }", (-1,)),
            # Both at once: the sum grows and the counter rises under >=.
            (
                "func f(a, n) { var s = 0; var i = 0;"
                " while (i >= n) { s = s - a[1]; i = i + 1; } return s; }",
                ([1, 2], 0),
            ),
            # A period of two laps that falls by one under <=, rising on every other lap.
            (
                "func f(n) { var i = 0; var k = 0; while (i <= n) {"
                " if (k == 0) { i = i - 2; k = 1; } else { i = i + 1; k = 0; } } return i; }",
                (5,),
            ),
            # The accumulator is undefined, and its statement never runs.
            ("func f(c) { while (true) { if (c) { s = s + 1; } } return 0; }", (False,)),
            # An earlier loop added 10**17 in a step, but this accumulator repeats its value.
            (
                "func f(a) { var s = 0; var k = 0; while (k < 1) { s = s + a[0];"
                " k = k + 1; } var t = 0; while (true) { t = t + 0; } return 0; }",
                ([100000000000000000],),
            ),
            # 10**12 a step cannot pass INT_LIMIT in the 10**6 steps of STEP_BUDGET.
            ("func f() { var s = 0; while (true) { s = s + 1000000000000; } return s; }", ()),
        ],
    )
    def test_stops_at_repeat(self, src, args):
        prog = parse(src)
        tr = run(prog, MLTest("t", "f", args, "pass"))
        assert (tr.outcome.status, tr.outcome.crash_kind, tr.outcome.stack) == (CRASH, "budget", ("f",))
        assert len(tr.events) <= 30
        loop = [s.elem for s in prog.statements() if isinstance(s, While)][-1]
        assert tr.events[tr.criterion_event].element == loop  # the loop head

    @pytest.mark.parametrize(
        "src,args,outcome",
        [
            # The if reads the sum, so the sum is not an accumulator.
            (
                "func f(n) { var s = 0; var i = 0;"
                " while (i < n) { s = s + 1; if (s > 40) { return s; } i = i * 1; } return 0; }",
                (1,),
                (PASS, None, 41),
            ),
            # The sum is an index.
            (
                "func f(a) { var s = 0; var x = 0;"
                " while (x < 1) { s = s + 1; x = a[s]; } return x; }",
                ([0, 0, 0, 0, 0],),
                (CRASH, "bounds", None),
            ),
            # The sum is a call argument.
            (
                "func g(x) { return 1 / (x - 20); }"
                " func f() { var s = 0; while (true) { s = s + 1; g(s); } return 0; }",
                (),
                (CRASH, "div0", None),
            ),
            # != is not a drift shape: the counter falls onto its bound.
            ("func f(n) { var i = 0; while (i != n) { i = i - 1; } return i; }", (-20,), (PASS, None, -20)),
            # The bound reads s, so s is not an accumulator, and it falls faster than i.
            (
                "func f(n) { var i = 0; var s = n; while (i < s) { i = i - 1; s = s - 2; } return i; }",
                (10,),
                (PASS, None, -10),
            ),
            # The counter heads for the exit, one down and two up per two laps.
            (
                "func f(n) { var i = 0; var k = 0; while (i <= n) {"
                " if (k == 0) { i = i - 1; k = 1; } else { i = i + 2; k = 0; } } return i; }",
                (5,),
                (PASS, None, 6),
            ),
            # 2**60 a lap passes INT_LIMIT on the ninth lap, long before the budget.
            (
                "func f() { var s = 0; while (true) { s = s + 1152921504606846976; } return s; }",
                (),
                (CRASH, "overflow", None),
            ),
            # The same, with the step read from an array.
            (
                "func f(a) { var s = 0; while (true) { s = s + a[0]; } return s; }",
                ([1152921504606846976],),
                (CRASH, "overflow", None),
            ),
            # The same, added by an inner loop: its steps count toward the outer loop's stop.
            (
                "func f(a) { var s = 0; while (true) { var j = 0;"
                " while (j < 1) { s = s + a[0]; j = j + 1; } } return s; }",
                ([1152921504606846976],),
                (CRASH, "overflow", None),
            ),
            # The same, with a call to a loop that returns from inside: the caller's
            # loop keeps its step.
            (
                "func g() { while (true) { return 0; } return 1; }"
                " func f(a) { var s = 0; while (true) { s = s + a[0]; g(); } return s; }",
                ([1152921504606846976],),
                (CRASH, "overflow", None),
            ),
            # Every other lap t falls by 2**61 and then rises by 2**62; at the fourth
            # head it is back at its value at the first snapshot, but not the latest.
            (
                "func f(a) { var t = 0; var k = 0; while (true) {"
                " if (k == 0) { t = t - a[0]; k = 1; } else { t = t + a[1]; k = 0; } } return t; }",
                ([2305843009213693952, 4611686018427387904],),
                (CRASH, "overflow", None),
            ),
        ],
    )
    def test_keeps_real_outcome(self, src, args, outcome):
        tr = run(parse(src), MLTest("t", "f", args, "pass"))
        assert (tr.outcome.status, tr.outcome.crash_kind, tr.value) == outcome

    def test_pending_flip_disables_accumulator_stop(self):
        src = "func f(a, n) { var s = 0; var i = 0; while (i < n) { s = s + a[0]; i = i * 1; } return s; }"
        # The loop head's events are at positions 2, 5, 8, ...: flip the fifth.
        tr = run(parse(src), MLTest("t", "f", ([3, 2], 2), "pass"), flip=14)
        assert tr.outcome.status == PASS
        assert tr.flip_applied and tr.value == 12

    def test_original_runs_alike_after_its_mutant(self):
        # Deleting `t = x;` makes x an accumulator in the mutant's copy of the
        # loop, which shares `x = x + a[0]` with the original. The step that site
        # adds once bounds the stop of s's loop, so it must count the same in both runs.
        src = (
            "func f(a) {\n var x = 0; var t = 0; var k = 0; var s = 0;\n"
            " while (true) {\n if (k < 1) { x = x + a[0];\n t = x;\n k = k + 1; }\n"
            " s = s + 1; } return 0; }"
        )
        test = MLTest("t", "f", ([10**16],), "pass")
        fresh = run(parse(src), test, step_budget=10**4)
        prog = parse(src)
        (mutant,) = [m for m in gen_mutants(prog) if m.operator == "sdl" and m.element.line == 5]
        run(mutant.program, test, step_budget=10**4)
        again = run(prog, test, step_budget=10**4)
        assert (again.outcome, again.events) == (fresh.outcome, fresh.events)
        assert fresh.outcome.crash_kind == "budget"
        assert len(fresh.events) > 9000  # without the step, s's loop stops on its third lap

    def test_earlier_loop_step_does_not_bound_a_later_stop(self):
        # The first loop adds 10**17 once. The second repeats, but for t, at its
        # third head (event 9); t adds 1 a lap and cannot overflow in the budget.
        src = (
            "func f(a) { var s = 0; var k = 0; while (k < 1) { s = s + a[0]; k = k + 1; }"
            " var t = 0; while (true) { t = t + 1; } return 0; }"
        )
        tr = run(parse(src), MLTest("t", "f", ([10**17],), "pass"), step_budget=5000)
        assert (tr.outcome.status, tr.outcome.crash_kind, tr.outcome.stack) == (CRASH, "budget", ("f",))
        assert len(tr.events) == 10

    def test_each_loop_is_classified_once(self, monkeypatch):
        prog = parse("func f(n) { var s = 0; var i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }")
        calls = []
        scan = interp._scan
        monkeypatch.setattr(interp, "_scan", lambda node, *sets: (calls.append(node), scan(node, *sets)))
        assert run(prog, MLTest("t", "f", (4,), 6)).outcome.status == PASS
        first = len(calls)
        assert first > 0
        assert run(prog, MLTest("t", "f", (5,), 10)).outcome.status == PASS
        assert len(calls) == first


def stop_free(prog, test, **options):
    """run() with every loop stop turned off: no repeat ends the run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp._Interp, "repeat_crash", lambda *args: None)
        return run(prog, test, **options)


def assert_same_outcome(src, args, step_budget, flip=None) -> interp.ExecutionTrace:
    """Run src at the budget, check it against its stop-free run, and return its trace."""
    test = MLTest("t", "f", args, "pass")
    stopped = run(parse(src), test, flip=flip, step_budget=step_budget)
    full = stop_free(parse(src), test, flip=flip, step_budget=step_budget)
    assert (stopped.outcome, stopped.signature(), stopped.flip_applied) == (
        full.outcome, full.signature(), full.flip_applied,
    )
    assert stopped.events == full.events[: len(stopped.events)]
    return stopped


def scaled_variables(src) -> tuple:
    """The scaled variables of src's first loop."""
    loop = next(s for s in parse(src).statements() if isinstance(s, While))
    return interp._classify(loop)[1]


class TestScaledStop:
    """A loop whose state repeats except for its accumulators and scaled
    variables (the interp module docstring defines them) ends at the repeat
    with the outcome it would reach: "overflow" when a scaled variable must
    pass INT_LIMIT within the budget, in a re-execution only, and "budget"
    when none can."""

    @pytest.mark.parametrize(
        "src,scaled",
        [
            ("func f(b) { var r = 1; var i = 0; while (i < 5) { r = r * b; i = i + 1; } return r; }", ("r",)),
            # Inside an if and an inner loop, beside a second scaled variable.
            (
                "func f(b) { var r = 1; var q = 1; var k = 0; while (k < 5) { if (k > 2) { r = r * b; }"
                " var j = 0; while (j < 2) { q = q * k; j = j + 1; } k = k + 1; } return r; }",
                ("q", "r"),
            ),
            # r also has a + site; e reads r; r is read by an if; r is declared in
            # the loop; r is stored at an index; r drifts in the predicate.
            ("func f(b) { var r = 1; while (b < 5) { r = r * b; r = r + 1; } return r; }", ()),
            ("func f(b) { var r = 1; while (b < 5) { r = r * (r - b); } return r; }", ()),
            ("func f(b) { var r = 1; while (b < 5) { r = r * b; if (r > 9) { b = 9; } } return r; }", ()),
            ("func f(b) { while (b < 5) { var r = 1; r = r * b; } return b; }", ()),
            ("func f(b) { var r = [1]; while (b < 5) { r[0] = r * b; } return b; }", ()),
            ("func f(b) { var r = 1; while (r < 5) { r = r * b; } return r; }", ()),
        ],
    )
    def test_classified(self, src, scaled):
        assert scaled_variables(src) == scaled

    @pytest.mark.parametrize(
        "src,args,kind",
        [
            # f06_powit's mutant: the counter is stuck while r doubles.
            (
                "func f(b) { var r = 1; var i = 0; while (i < 3) { r = r * b; i = i + 0; } return r; }",
                (2,),
                "overflow",
            ),
            # |P| = 1: the sign flips each lap and the magnitude stays.
            ("func f(b) { var r = 5; while (true) { r = r * b; } return r; }", (-1,), "budget"),
            # P = 0: r is 0 from the first lap on.
            ("func f(b) { var r = 5; while (true) { r = r * b; } return r; }", (0,), "budget"),
            # A negative factor.
            ("func f(b) { var r = 1; while (true) { r = r * b; } return r; }", (-3,), "overflow"),
            # Two scaled variables: one fixed, one growing.
            (
                "func f(b) { var r = 1; var q = 7; while (true) { r = r * b; q = q * 1; } return r; }",
                (2,),
                "overflow",
            ),
            # Beside an accumulator and a counter drifting away from its bound.
            (
                "func f(b) { var r = 1; var s = 0; var i = 0; while (i < 3) {"
                " s = s + 1; r = r * b; i = i - 1; } return r; }",
                (2,),
                "overflow",
            ),
            # The site in an if, over a period of two laps.
            (
                "func f(b) { var r = 1; var k = 0; while (true) {"
                " if (k == 0) { r = r * b; k = 1; } else { k = 0; } } return r; }",
                (3,),
                "overflow",
            ),
            # The site in an inner loop: each outer lap multiplies r by b twice.
            (
                "func f(b) { var r = 1; while (true) { var j = 0;"
                " while (j < 2) { r = r * b; j = j + 1; } } return r; }",
                (2,),
                "overflow",
            ),
        ],
    )
    def test_stops_at_repeat(self, src, args, kind):
        tr = assert_same_outcome(src, args, step_budget=10**4)
        assert (tr.outcome.status, tr.outcome.crash_kind, tr.outcome.stack) == (CRASH, kind, ("f",))
        assert len(tr.events) <= 40
        loop = [s.elem for s in parse(src).statements() if isinstance(s, While)][0]
        assert tr.events[tr.criterion_event].element == loop  # the outer loop's head

    # After `var r = 1`, a lap is the head and `r = r * 2`, so the 64th
    # assignment, at event 128, passes INT_LIMIT. The first repeat is at the
    # second head (event 3).
    DOUBLING = "func f() { var r = 1; while (true) { r = r * 2; } return r; }"

    @pytest.mark.parametrize(
        "budget,kind,steps",
        [
            (130, "overflow", 4),  # certain: the stop ends the run at its first repeat
            (129, "overflow", 129),  # the overflow straddles the budget: run on to it
            (128, "budget", 4),  # event 128 is never begun: certain budget
        ],
    )
    def test_overflow_against_budget(self, budget, kind, steps):
        tr = assert_same_outcome(self.DOUBLING, (), step_budget=budget)
        assert (tr.outcome.crash_kind, len(tr.events)) == (kind, steps)

    def test_pending_flip_disables_scaled_stop(self):
        # The loop head's events are at positions 1, 3, 5, ...: flip the eleventh.
        tr = assert_same_outcome(self.DOUBLING, (), step_budget=10**4, flip=21)
        assert tr.outcome.status == PASS
        assert tr.flip_applied and tr.value == 2**10

    @pytest.mark.parametrize("b,e", [(2, 3), (3, 1), (5, 2)])
    def test_original_runs_on_to_the_overflow(self, b, e):
        # f06_powit with its counter stuck. The original run keeps every event
        # up to the overflow at `r = r * b`: its slice criterion, its predicate
        # instances and the re-execution budget all come from them. A
        # re-execution at that budget still ends at the first repeat.
        src = (CORPUS / "f06_powit" / "program.ml").read_text().replace("i = i + 2", "i = i + 0")
        prog, test = parse(src), MLTest("t", "powit", (b, e), b**e)
        original = run(prog, test)
        assert original == stop_free(prog, test)
        (site,) = [s.elem for s in prog.statements() if isinstance(s, Assign) and s.target == "r"]
        assert original.outcome.crash_kind == "overflow"
        assert original.events[original.criterion_event].element == site
        again = run(prog, test, step_budget=interp.reexec_step_budget([original]))
        assert (again.outcome, again.signature()) == (original.outcome, original.signature())
        assert len(again.events) < 10

    @pytest.mark.parametrize("longest", [99_974, 99_975, 10**5])
    def test_longest_original_still_gives_a_reexecution(self, longest):
        # Stand-in originals: only their event counts matter. From 99,975
        # events on, 10 × longest + 250 steps would reach STEP_BUDGET, the
        # budget of an original run.
        budget = interp.reexec_step_budget([SimpleNamespace(events=range(longest))])
        assert budget == min(10 * longest + 250, interp.STEP_BUDGET - 1)
        tr = run(parse(self.DOUBLING), MLTest("t", "f", (), "pass"), step_budget=budget)
        assert (tr.outcome.crash_kind, len(tr.events)) == ("overflow", 4)
        assert [e.deps for e in tr.events] == [frozenset()] * 4

    def test_factor_reading_the_variable_stays_compared(self):
        # r = r * (r - r + 2) doubles r like DOUBLING, but e reads r, so r
        # is compared, never repeats, and the run goes on to the overflow.
        src = "func f() { var r = 1; while (true) { r = r * (r - r + 2); } return r; }"
        tr = assert_same_outcome(src, (), step_budget=10**4)
        assert (tr.outcome.crash_kind, len(tr.events)) == ("overflow", 129)


# Building blocks of the generated loops: r and q are scaled while only
# multiplied, s is an accumulator, i may drift and k toggles.
_FACTORS = ("2", "-2", "3", "-1", "0", "a", "(k + 2)", "(0 - a)")
_FLAT = (
    *(f"r = r * {e};" for e in _FACTORS),
    "q = q * 2;", "s = s + a;", "s = s - 1;", "s = s + 4611686018427387904;",
    "i = i + 1;", "i = i - 1;", "k = 1 - k;", "r = r * r;", "r = r + 1;",
)
_CONDS = ("true", "k < 2", "i < b", "!(i < b)", "i != b")
_flat = st.sampled_from(_FLAT)
_statement = st.one_of(
    _flat,
    st.tuples(_flat, _flat).map(lambda pair: "if (k == 0) { %s } else { %s }" % pair),
    _flat.map(lambda stmt: "var j = 0; while (j < 2) { %s j = j + 1; }" % stmt),
)


@st.composite
def scaled_loops(draw) -> str:
    body = draw(st.lists(_statement, max_size=3))
    body.insert(draw(st.integers(0, len(body))), f"r = r * {draw(st.sampled_from(_FACTORS))};")
    body = " ".join(body)
    return (
        f"func f(a, b) {{ var r = {draw(st.integers(-2, 3))}; var q = 1; var s = 0; var i = 0;"
        f" var k = 0; while ({draw(st.sampled_from(_CONDS))}) {{ {body} }} return r + s; }}"
    )


@settings(max_examples=300, deadline=None)
@given(
    scaled_loops(),
    st.integers(-3, 3),
    st.integers(-2, 4),
    st.sampled_from([60, 129, 130, 1000, 3000]),
    st.one_of(st.none(), st.integers(0, 60)),
)
def test_loop_stops_keep_the_outcome(src, a, b, step_budget, flip):
    """Every loop stop ends a run with the outcome the run reaches without it."""
    assert_same_outcome(src, (a, b), step_budget=step_budget, flip=flip)


def all_nodes(prog) -> list:
    """Every function, statement and expression node of a program."""
    statements = prog.statements()
    exprs = [node for stmt in statements for node in iter_exprs(stmt)]
    return list(prog.functions.values()) + statements + exprs


def record_compiles(monkeypatch) -> list:
    """The nodes compiled from now on, in order."""
    compiled = []
    compile_node = interp._compile
    monkeypatch.setattr(interp, "_compile", lambda node: (compiled.append(node), compile_node(node))[1])
    return compiled


class TestCompiledCode:
    """Each node is compiled once, when it first runs, and the code is cached on it."""

    SOURCE = (
        "func g(x) { return x * 2; }\n"
        "func f(a, n) { var s = 0; var i = 0;"
        " while (i < n) { if (a[i] > 0) { s = s + g(a[i]); } else { s = s - 1; } i = i + 1; }"
        " return s; }"
    )
    TEST = MLTest("t", "f", ([3, -1], 2), 5)

    def test_each_node_is_compiled_once(self, monkeypatch):
        compiled = record_compiles(monkeypatch)
        prog = parse(self.SOURCE)
        first = run(prog, self.TEST)
        assert first.outcome.status == PASS
        assert sorted(map(id, compiled)) == sorted(map(id, all_nodes(prog)))
        count = len(compiled)
        again = run(prog, self.TEST)
        assert len(compiled) == count
        assert (again.events, again.predicate_instances) == (first.events, first.predicate_instances)

    def test_mutant_compiles_only_its_path(self, monkeypatch):
        prog = parse(self.SOURCE)
        run(prog, self.TEST)
        original = set(map(id, all_nodes(prog)))
        compiled = record_compiles(monkeypatch)
        for mutant in gen_mutants(prog):
            compiled.clear()
            run(mutant.program, self.TEST)
            copied = [node for node in all_nodes(mutant.program) if id(node) not in original]
            assert copied
            if mutant.element.method_id == "f":  # the entry, which always runs
                assert sorted(map(id, compiled)) == sorted(map(id, copied))
            else:  # a mutant that never calls g compiles none of its copies
                assert set(map(id, compiled)) <= set(map(id, copied))
                assert len(set(map(id, compiled))) == len(compiled)


class TestDependences:
    def test_data_dependence_chain(self):
        prog = parse("func f() {\n var a = 1;\n var b = a + 1;\n return b;\n}")
        tr = run(prog, MLTest("t", "f", (), 2))
        pos = {e.element.line: i for i, e in enumerate(tr.events)}
        assert tr.events[pos[3]].deps == {pos[2]}
        assert tr.events[pos[4]].deps == {pos[3]}

    def test_control_parent(self):
        prog = parse("func f(x) {\n if (x > 0) {\n  x = 1;\n }\n return x;\n}")
        tr = run(prog, MLTest("t", "f", (5,), 1))
        pos = {e.element.line: i for i, e in enumerate(tr.events)}
        assert tr.events[pos[3]].control == pos[2]
        assert tr.events[pos[5]].control is None

    def test_call_return_dependence(self):
        prog = parse("func g() {\n return 7;\n}\nfunc f() {\n var x = g();\n return x;\n}")
        tr = run(prog, MLTest("t", "f", (), 7))
        pos = {e.element.line: i for i, e in enumerate(tr.events)}
        assert pos[2] in tr.events[pos[5]].deps  # var x depends on g's return event

    def test_second_call_in_statement_has_statement_as_call_site(self):
        prog = parse("func g(a) {\n return a;\n}\nfunc f() {\n var x = g(1) + g(2);\n return x;\n}")
        tr = run(prog, MLTest("t", "f", (), 3))
        returns = [e for e in tr.events if e.element.line == 2]
        assert tr.events[0].element.line == 5
        assert [(e.control, e.deps) for e in returns] == [(0, {0}), (0, {0})]
        assert tr.events[0].deps == {1, 2}

    def test_call_in_index_and_loop_condition(self):
        """A statement's deps are its own reads and the callee's return event,
        not the reads of the callee's statements."""
        prog = parse(
            "func g(x) {\n var y = x + 1;\n return y - 1;\n}\n"
            "func f(a) {\n var i = 0;\n var b = a;\n b[g(i)] = i;\n"
            " while (g(i) < 2) {\n  i = i + 1;\n }\n return b[0];\n}"
        )
        tr = run(prog, MLTest("t", "f", ([5],), 0))
        at = {line: [i for i, e in enumerate(tr.events) if e.element.line == line] for line in range(1, 14)}
        [decl_i], [decl_b], [store] = at[6], at[7], at[8]
        decl_y, returns, heads, steps = at[2], at[3], at[9], at[10]
        assert (len(returns), len(heads), len(steps)) == (4, 3, 2)
        assert [tr.events[r].deps for r in returns] == [{y} for y in decl_y]
        assert tr.events[store].deps == {decl_i, decl_b, returns[0]}
        assert [tr.events[h].deps for h in heads] == [
            {decl_i, returns[1]}, {steps[0], returns[2]}, {steps[1], returns[3]},
        ]


class TestReturnByValue:
    """A return ends its call through the statement closures' results, not a
    Python exception, and unwinds the control stacks as it goes."""

    # Lines 5 and 16 return from inside an if inside a while, in a callee and
    # in the entry function.
    NESTED = (
        "func g(n) {\n var i = 0;\n while (i < n) {\n  if (i == 2) {\n   return i * 10;\n  }\n"
        "  i = i + 1;\n }\n return 0;\n}\n"
        "func f(n) {\n var k = 0;\n while (true) {\n  var x = g(n);\n  if (x > 5) {\n   return x + k;\n  }\n"
        "  k = k + 1;\n }\n return 0;\n}"
    )

    @staticmethod
    def traced_exceptions(fn) -> tuple:
        """fn()'s result and the exception types raised in Python frames during it."""
        raised = []

        def trace(frame, event, arg):
            if event == "exception":
                raised.append(arg[0])
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            return fn(), raised
        finally:
            sys.settrace(previous)

    @pytest.mark.parametrize("step_budget", [interp.STEP_BUDGET, interp.STEP_BUDGET - 1], ids=["original", "reexec"])
    def test_return_inside_if_inside_while(self, step_budget):
        tr = run(parse(self.NESTED), MLTest("t", "f", (5,), 20), step_budget=step_budget)
        lines_run = [e.element.line for e in tr.events]
        assert lines_run == [12, 13, 14, 2, 3, 4, 7, 3, 4, 7, 3, 4, 5, 15, 16]
        assert (tr.outcome.status, tr.value, tr.criterion_event) == (PASS, 20, 14)
        # Each return's control parent is its if; after g returns, f's if runs
        # under f's loop head again.
        assert [e.control for e in tr.events] == [None, None, 1, 2, 2, 4, 4, 2, 7, 7, 2, 10, 11, 1, 13]
        call, returned = lines_run.index(14), lines_run.index(5)
        if step_budget == interp.STEP_BUDGET:
            assert tr.events[call].deps == {returned}
            assert tr.events[14].deps == {call, 0}
        else:
            assert all(e.deps == frozenset() for e in tr.events)

    def test_falling_off_the_end_returns_zero_with_no_dependence(self):
        prog = parse("func g(n) {\n if (n > 0) {\n  return n;\n }\n}\nfunc f(n) {\n var x = g(n);\n return x;\n}")
        tr = run(prog, MLTest("t", "f", (0,), 0))
        assert [e.element.line for e in tr.events] == [7, 2, 8]
        assert (tr.outcome.status, tr.value, tr.criterion_event) == (PASS, 0, 2)
        assert tr.events[0].deps == frozenset()
        assert tr.events[2].deps == {0}

    def test_return_raises_no_python_exception(self):
        prog, test = parse(self.NESTED), MLTest("t", "f", (5,), 20)
        for step_budget in (interp.STEP_BUDGET, interp.STEP_BUDGET - 1):
            tr, raised = self.traced_exceptions(lambda: run(prog, test, step_budget=step_budget))
            assert tr.outcome.status == PASS
            assert raised == []

    @pytest.mark.parametrize(
        "source, outcome",
        [
            ("func g(n) {\n while (n > 0) {\n  if (n == 1) {\n   return 1 / (n - 1);\n  }\n  n = n - 1;\n }\n"
             " return 0;\n}\nfunc f() {\n return g(3);\n}",
             interp.Outcome(CRASH, "div0", ("g", "f"))),
            ("func g(n) {\n if (n > 0) {\n  assert(n < 2);\n  return n;\n }\n return 0;\n}\n"
             "func f() {\n return g(3);\n}",
             interp.Outcome(ASSERT_FAIL)),
            ("func g(n) {\n if (n > 0) {\n  return n;\n }\n return 0;\n}\nfunc f() {\n return g(3);\n}",
             interp.Outcome(ASSERT_FAIL)),
        ],
        ids=["crash-in-return", "failed-assert", "wrong-result"],
    )
    def test_crash_and_failure_outcomes(self, source, outcome):
        tr = run(parse(source), MLTest("t", "f", (), 0))
        assert tr.outcome == outcome

    def test_stores_into_an_array_argument_leave_the_test_unchanged(self):
        prog, test = parse("func f(a) { a[0] = 9; return a[0]; }"), MLTest("t", "f", ([1, 2],), 9)
        assert (test.args, test.values) == (([1, 2],), ([1, 2],))
        first, second = run(prog, test), run(prog, test)
        assert first == second
        assert (first.outcome.status, first.value) == (PASS, 9)
        assert (test.args, test.values) == (([1, 2],), ([1, 2],))


class TestPendingEvents:
    """A statement whose evaluation raises keeps its event, with the deps of
    the reads it made before the raise."""

    @staticmethod
    def at(tr, line):
        return [i for i, e in enumerate(tr.events) if e.element.line == line]

    def test_crash_mid_expression(self):
        prog = parse("func f(y) {\n if (y > 0) {\n  var x = 1 / 0;\n }\n return 0;\n}")
        tr = run(prog, MLTest("t", "f", (1,), 0))
        assert (tr.outcome.crash_kind, tr.outcome.stack) == ("div0", ("f",))
        [branch], [crashed] = self.at(tr, 2), self.at(tr, 3)
        assert tr.criterion_event == crashed == len(tr.events) - 1
        assert tr.events[crashed].deps == frozenset()
        assert tr.events[crashed].control == branch
        assert tr.signature() == (CRASH, "div0")

    def test_crash_inside_callee_leaves_call_statement_pending(self):
        prog = parse(
            "func g(a) {\n return a[3];\n}\n"
            "func f(y) {\n var a = [y];\n if (y > 0) {\n  var x = g(a) + y;\n }\n return 0;\n}"
        )
        tr = run(prog, MLTest("t", "f", (1,), 0))
        assert (tr.outcome.crash_kind, tr.outcome.stack) == ("bounds", ("g", "f"))
        [decl], [branch], [call], [inner] = self.at(tr, 5), self.at(tr, 6), self.at(tr, 7), self.at(tr, 2)
        assert tr.criterion_event == inner == len(tr.events) - 1
        assert tr.events[call].deps == {decl}  # a was read; y, after the call, was not
        assert tr.events[call].control == branch
        assert tr.events[inner].deps == {call}  # g's a is defined by the call
        assert tr.events[inner].control == call

    def test_budget_crash_at_while_head(self):
        # i never moves, so the repeat stop ends g's loop as "budget" at its
        # second head. The heads and the body finish with their deps; the
        # crash cuts f's call statement short.
        prog = parse(
            "func g(n) {\n var i = 0;\n while (i < n) {\n  i = i + 0;\n }\n return i;\n}\n"
            "func f() {\n var x = g(100);\n return x;\n}"
        )
        tr = run(prog, MLTest("t", "f", (), 100))
        assert (tr.outcome.crash_kind, tr.outcome.stack) == ("budget", ("g", "f"))
        [call], [decl], heads, body = self.at(tr, 9), self.at(tr, 2), self.at(tr, 3), self.at(tr, 4)
        assert (call, decl, heads, body) == (0, 1, [2, 4], [3])
        assert tr.criterion_event == 4 == len(tr.events) - 1
        assert tr.events[call].deps == frozenset()
        assert tr.events[call].control is None
        assert tr.events[2].deps == {call, decl}  # n is defined by the call
        assert tr.events[3].deps == {decl}
        assert tr.events[3].control == 2
        assert tr.events[4].deps == {call, 3}
        assert tr.events[4].control == call

    def test_short_budget_run_records_no_deps(self):
        # A run with fewer steps than STEP_BUDGET is a re-execution: it keeps
        # the full run's elements and control parents, but no deps. Events:
        # f's call, g's declaration, then head and body in turn; the seventh
        # event would be a loop head.
        prog = parse(
            "func g(n) {\n var i = 0;\n while (i < n) {\n  i = i + 1;\n }\n return i;\n}\n"
            "func f() {\n var x = g(100);\n return x;\n}"
        )
        test = MLTest("t", "f", (), 100)
        tr, full = run(prog, test, step_budget=6), run(prog, test)
        assert (tr.outcome.crash_kind, tr.outcome.stack) == ("budget", ("g", "f"))
        assert tr.criterion_event == 5 == len(tr.events) - 1
        assert [(e.element, e.control) for e in tr.events] == [(e.element, e.control) for e in full.events[:6]]
        assert [e.deps for e in tr.events] == [frozenset()] * 6
        assert full.outcome.status == PASS
        assert [e.deps for e in full.events[1:6]] == [frozenset(), {0, 1}, {1}, {0, 3}, {3}]


class TestPredicateFlips:
    def test_flip_inverts_one_instance(self):
        prog = parse(COLLATZ)
        base = run(prog, MLTest("t", "collatz", (4,), "pass"))
        assert base.predicate_instances == (1,)  # the if's event follows the declaration's
        flipped = run(prog, MLTest("t", "collatz", (4,), "pass"), flip=1)
        assert flipped.predicate_instances == (1,)
        assert flipped.value == 13  # else branch: 4*3+1

    def test_flip_targets_specific_occurrence(self):
        prog = parse(
            "func f(n) { var i = 0; while (i < n) { i = i + 1; } return i; }"
        )
        # The loop head's events are at positions 1, 3, 5, ...: flipping the
        # third evaluation exits the loop after 2 iterations.
        tr = run(prog, MLTest("t", "f", (5,), "pass"), flip=5)
        assert tr.value == 2
        assert tr.flip_applied

    def test_unreached_flip_reported(self):
        prog = parse(COLLATZ)
        test = MLTest("t", "collatz", (4,), "pass")
        base = run(prog, test)
        assert len(base.events) == 4 and base.predicate_instances == (1,)
        # Positions of a declaration, an assignment and a return, then past the end.
        for position in (0, 2, 3, 4, 50):
            tr = run(prog, test, flip=position)
            assert not tr.flip_applied
            assert (tr.events, tr.value) == (base.events, base.value)


class TestMutants:
    def test_operator_coverage(self):
        prog = parse(
            "func f(a, b) { var c = a + b; if (a < b && a > 0) { c = 1; } return c; }"
        )
        ops = {m.operator for m in gen_mutants(prog)}
        assert ops == {"aor", "ror", "lor", "cpm", "sdl", "ncd"}

    def test_aor_produces_four_alternates(self):
        prog = parse("func f(a, b) { return a + b; }")
        aor = [m for m in gen_mutants(prog) if m.operator == "aor"]
        assert len(aor) == 4

    def test_ror_produces_five_alternates(self):
        prog = parse("func f(a, b) { return a < b; }")
        ror = [m for m in gen_mutants(prog) if m.operator == "ror"]
        assert len(ror) == 5

    def test_sdl_excludes_declarations_and_returns(self):
        prog = parse("func f() { var a = 1; a = 2; return a; }")
        sdl = [m for m in gen_mutants(prog) if m.operator == "sdl"]
        assert len(sdl) == 1
        assert sdl[0].element.stmt_index == 1  # the assignment

    def test_sdl_leaving_zero_for_false_changes_the_signature(self):
        prog = parse("func f() { var r = 0; r = false; return r; }")
        test = MLTest("t", "f", (), "pass")
        [sdl] = [m for m in gen_mutants(prog) if m.operator == "sdl"]
        original, mutant = run(prog, test), run(sdl.program, test)
        assert (original.value, mutant.value) == (False, 0)
        assert original.signature() != mutant.signature()

    def test_mutants_do_not_share_ast_with_original(self):
        prog = parse("func f(a) { return a + 1; }")
        for m in gen_mutants(prog):
            assert m.program is not prog
        # original still behaves as written
        assert run(prog, MLTest("t", "f", (1,), 2)).outcome.status == PASS

    def test_input_program_unchanged(self):
        prog = parse(
            "func g(x) { return x * 2; }\n"
            "func f(a, n) { var s = 0; var i = 0;"
            " while (i < n) { if (a[i] > 0) { s = s + g(a[i]); } else { s = s - 1; } i = i + 1; }"
            " return s; }"
        )
        before = repr(prog)
        muts = gen_mutants(prog)
        assert {m.operator for m in muts} == {"aor", "ror", "cpm", "sdl", "ncd"}
        assert repr(prog) == before
        # statements off the mutated path are shared, not copied
        for m in muts:
            if m.element.method_id == "f":
                assert m.program.functions["g"] is prog.functions["g"]

    def test_mutant_changes_behavior(self):
        prog = parse("func f(a, b) { return a + b; }")
        sub = next(
            m for m in gen_mutants(prog) if m.operator == "aor" and "-" in m.description
        )
        assert run(sub.program, MLTest("t", "f", (5, 3), "pass")).value == 2

    def test_mutant_ids_unique_and_ordered(self):
        def expected_count(stmt):
            """Every operator at every site of ``stmt``, none dropped as a duplicate."""
            count = isinstance(stmt, (Assign, ExprStmt)) + isinstance(stmt, (If, While))
            for node in iter_exprs(stmt):
                if isinstance(node, Binary):
                    count += next(len(g) for g in (ARITH_OPS, REL_OPS, LOGIC_OPS) if node.op in g) - 1
                elif isinstance(node, Num):
                    count += 2
            return count

        programs = [parse("func f() { return 1 + 1; }")] + [
            parse(path.read_text(), file_id="program.ml") for path in sorted(CORPUS.glob("*/program.ml"))
        ]
        assert len(programs) == 11
        for prog in programs:
            muts = gen_mutants(prog)
            assert [m.mutant_id for m in muts] == [f"m{i:03d}" for i in range(len(muts))]
            order = {s.elem: i for i, s in enumerate(prog.statements())}
            assert [order[m.element] for m in muts] == sorted(order[m.element] for m in muts)
            for stmt in prog.statements():
                own = [m for m in muts if m.element == stmt.elem]
                assert len(own) == expected_count(stmt), stmt.elem
                mutated = []
                for m in own:
                    found = [s for s in m.program.statements() if s.elem == stmt.elem]
                    if m.operator == "sdl":
                        assert found == []
                        continue
                    (changed,) = found
                    # no mutant repeats the original or another mutant of the statement
                    assert changed != stmt
                    assert all(changed != other for other in mutated)
                    mutated.append(changed)

    def test_ncd_negates_condition(self):
        prog = parse("func f(x) { if (x > 0) { return 1; } return 0; }")
        ncd = next(m for m in gen_mutants(prog) if m.operator == "ncd")
        assert run(ncd.program, MLTest("t", "f", (5,), "pass")).value == 0
        assert run(ncd.program, MLTest("t", "f", (-5,), "pass")).value == 1
