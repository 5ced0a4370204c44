import pytest

from flkit.minilang.interp import TestCase as MLTest, run
from flkit.minilang.parse import parse
from flkit.slicing import Strategy, backward_slice, combine_slices

COLLATZ = """\
func collatz(x) { var res = 0;
    if ((x % 2) == 0)
        res = x / 2;
    else
        res = x * 3 + 1;
    return res;
}
"""


def slice_lines(sl):
    return sorted(e.line for e in sl.members)


class TestBackwardSlice:
    def test_even_input_slice(self):
        # x=4 takes the then branch: the return depends on line 3's assignment
        # and its controlling predicate; line 1's dead initializer is excluded.
        prog = parse(COLLATZ)
        tr = run(prog, MLTest("t", "collatz", (4,), "pass"))
        sl = backward_slice(tr)
        assert slice_lines(sl) == [2, 3, 6]

    def test_odd_input_slice(self):
        prog = parse(COLLATZ)
        tr = run(prog, MLTest("t", "collatz", (3,), "pass"))
        sl = backward_slice(tr)
        assert slice_lines(sl) == [2, 5, 6]

    def test_dead_assignment_excluded(self):
        prog = parse("func f() {\n var a = 1;\n var b = 2;\n return b;\n}")
        tr = run(prog, MLTest("t", "f", (), "pass"))
        sl = backward_slice(tr)
        assert slice_lines(sl) == [3, 4]

    def test_loop_carried_dependences(self):
        prog = parse(
            "func f(n) {\n var s = 0;\n var i = 0;\n"
            " while (i < n) {\n  s = s + i;\n  i = i + 1;\n }\n return s;\n}"
        )
        tr = run(prog, MLTest("t", "f", (3,), "pass"))
        sl = backward_slice(tr)
        assert slice_lines(sl) == [2, 3, 4, 5, 6, 8]

    def test_slice_through_call_return(self):
        prog = parse(
            "func double(v) {\n return v + v;\n}\n"
            "func f(x) {\n var y = double(x);\n var dead = 1;\n return y;\n}"
        )
        tr = run(prog, MLTest("t", "f", (2,), "pass"))
        sl = backward_slice(tr)
        assert 2 in slice_lines(sl)  # callee return reached
        assert 6 not in slice_lines(sl)  # dead statement excluded

    def test_defaults_to_failure_criterion(self):
        prog = parse("func f(x) {\n var y = x + 1;\n assert(y > 10);\n return y;\n}")
        tr = run(prog, MLTest("t", "f", (1,), "pass"))
        assert tr.failed
        sl = backward_slice(tr)
        assert sl.criterion_element.line == 3
        assert slice_lines(sl) == [2, 3]

    @pytest.mark.parametrize(
        "src, args, lines",
        [
            # The bounds crash cuts x's statement short after it read i.
            (
                "func f(a, n) {\n var i = n + 1;\n var j = 0;\n var x = a[i];\n return x;\n}",
                ([1, 2], 1),
                [2, 4],
            ),
            # g's bounds crash cuts the call statement short after it read a.
            (
                "func g(a) {\n return a[3];\n}\n"
                "func f(y) {\n var a = [y];\n if (y > 0) {\n  var x = g(a) + y;\n }\n return 0;\n}",
                (1,),
                [2, 5, 6, 7],
            ),
        ],
    )
    def test_crash_slice_keeps_reads_made_before_the_crash(self, src, args, lines):
        tr = run(parse(src), MLTest("t", "f", args, 0))
        assert tr.outcome.crash_kind == "bounds"
        assert slice_lines(backward_slice(tr)) == lines

    def test_explicit_criterion(self):
        prog = parse("func f() {\n var a = 1;\n var b = a;\n return b;\n}")
        tr = run(prog, MLTest("t", "f", (), "pass"))
        ev_b = next(i for i, e in enumerate(tr.events) if e.element.line == 3)
        sl = backward_slice(tr, ev_b)
        assert slice_lines(sl) == [2, 3]

    def test_invalid_criterion_rejected(self):
        prog = parse("func f() { return 1; }")
        tr = run(prog, MLTest("t", "f", (), "pass"))
        with pytest.raises(ValueError):
            backward_slice(tr, 99)


class TestCombineSlices:
    def make_slices(self):
        prog = parse(COLLATZ)
        out = []
        for x in (3, 4):
            tr = run(prog, MLTest(f"t{x}", "collatz", (x,), "pass"))
            out.append(backward_slice(tr))
        return out

    def test_union(self):
        combined = combine_slices(self.make_slices(), Strategy.UNION)
        assert sorted(e.line for e in combined) == [2, 3, 5, 6]
        assert set(combined.values()) == {1.0}

    def test_intersection(self):
        combined = combine_slices(self.make_slices(), Strategy.INTERSECTION)
        assert sorted(e.line for e in combined) == [2, 6]

    def test_frequency(self):
        combined = combine_slices(self.make_slices(), Strategy.FREQUENCY)
        scores = {e.line: s for e, s in combined.items()}
        assert scores[2] == 1.0 and scores[6] == 1.0
        assert scores[3] == 0.5 and scores[5] == 0.5

    def test_single_slice_strategies_agree(self):
        (sl, _) = self.make_slices()
        for strategy in Strategy:
            combined = combine_slices([sl], strategy)
            assert combined.keys() == set(sl.members)
            assert set(combined.values()) == {1.0}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            combine_slices([], Strategy.UNION)
