import pytest

from flkit.minilang.interp import TestCase as MLTest, run
from flkit.minilang.parse import parse
from flkit.slicing import backward_slice, combine_slices

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
    return sorted(e.line for e in sl)


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
        assert tr.events[tr.criterion_event].element.line == 3
        assert backward_slice(tr) == backward_slice(tr, tr.criterion_event)
        assert slice_lines(backward_slice(tr)) == [2, 3]

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
        combined = combine_slices(self.make_slices())["slice-union"]
        assert sorted(e.line for e in combined) == [2, 3, 5, 6]
        assert set(combined.values()) == {1.0}

    def test_intersection(self):
        combined = combine_slices(self.make_slices())["slice-intersection"]
        assert sorted(e.line for e in combined) == [2, 6]
        assert set(combined.values()) == {1.0}

    def test_frequency(self):
        combined = combine_slices(self.make_slices())["slice-frequency"]
        scores = {e.line: s for e, s in combined.items()}
        assert scores == {2: 1.0, 3: 0.5, 5: 0.5, 6: 1.0}

    def test_single_slice_strategies_agree(self):
        (sl, _) = self.make_slices()
        combined = combine_slices([sl])
        assert list(combined) == ["slice-union", "slice-intersection", "slice-frequency"]
        for scores in combined.values():
            assert scores == dict.fromkeys(sl, 1.0)

    def test_no_slices_give_three_empty_techniques(self):
        assert combine_slices([]) == {
            "slice-union": {},
            "slice-intersection": {},
            "slice-frequency": {},
        }

    def test_repeated_slice_counts_each_time(self):
        (a, b) = self.make_slices()
        combined = combine_slices([a, a, b])
        scores = {e.line: s for e, s in combined["slice-frequency"].items()}
        assert scores == {2: 1.0, 3: 1 / 3, 5: 2 / 3, 6: 1.0}
        assert combined["slice-intersection"].keys() == a & b
        assert combined["slice-union"].keys() == a | b
