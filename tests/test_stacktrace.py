from flkit.minilang.interp import TestCase as MLTest, run
from flkit.minilang.parse import parse
from flkit.stacktrace import (
    method_scores_from_frames,
    score_stack_traces,
)

NESTED = """\
func leaf(a, i) {
    return a[i];
}
func mid(a, i) {
    return leaf(a, i);
}
func top(a) {
    return mid(a, 3);
}
"""


class TestMethodScores:
    def test_depth_reciprocal(self):
        prog = parse(NESTED)
        tr = run(prog, MLTest("t", "top", ([1, 2],), "pass"))
        assert tr.outcome.crash_kind == "bounds"
        scores = method_scores_from_frames([tr.outcome.stack])
        assert scores == {"leaf": 1.0, "mid": 0.5, "top": 1.0 / 3.0}

    def test_max_over_tests(self):
        prog = parse(NESTED)
        deep = run(prog, MLTest("t1", "top", ([1],), "pass"))
        shallow = run(prog, MLTest("t2", "mid", ([1], 9), "pass"))
        scores = method_scores_from_frames([deep.outcome.stack, shallow.outcome.stack])
        # mid is at depth 2 in the deep trace but depth 2->1... leaf crashes in
        # both; mid's best depth is 2 either way, leaf's is 1
        assert scores["leaf"] == 1.0
        assert scores["mid"] == 0.5

    def test_empty_input(self):
        assert method_scores_from_frames([]) == {}


class TestScoreStackTraces:
    def test_assert_failures_contribute_nothing(self):
        prog = parse("func f(x) { assert(x > 0); return x; }")
        tr = run(prog, MLTest("t", "f", (0,), "pass"))
        assert tr.failed and tr.outcome.status != "crash"
        stmts = score_stack_traces([tr], prog.elements())
        assert len(stmts) == 0

    def test_statement_propagation(self):
        prog = parse(NESTED)
        tr = run(prog, MLTest("t", "top", ([1],), "pass"))
        stmts = score_stack_traces([tr], prog.elements())
        by_line = {e.line: s for e, s in stmts.items()}
        assert by_line[2] == 1.0      # leaf's statement
        assert by_line[5] == 0.5      # mid's statement
        assert by_line[8] == 1.0 / 3  # top's statement

    def test_mixed_crash_and_assert(self):
        prog = parse(NESTED + "func g(x) { assert(x > 0); return x; }")
        crash = run(prog, MLTest("t1", "top", ([1],), "pass"))
        af = run(prog, MLTest("t2", "g", (0,), "pass"))
        stmts = score_stack_traces([crash, af], prog.elements())
        by_method = {e.method_id: s for e, s in stmts.items()}
        assert by_method == {"leaf": 1.0, "mid": 0.5, "top": 1.0 / 3}
