import math

import pytest

from flkit.mbfl import (
    CHANGED,
    F2P,
    P2F,
    SAME,
    MatrixError,
    aggregate_to_statement,
    build_outcome_matrix,
    classify,
    metallaxis_mutant_score,
    muse_mutant_score,
    mutant_scores,
)
from flkit.model import ProgramElement

S1 = ProgramElement("f", 1)
S2 = ProgramElement("f", 2)


def small_matrix():
    """Two mutants on two statements, 2 failing + 2 passing tests.

    m1 (on S1) fixes both failing tests and breaks nothing.
    m2 (on S2) fixes nothing, breaks one passing test, perturbs one failing test.
    """
    original = {
        "tf1": (False, ("assertfail", "x")),
        "tf2": (False, ("assertfail", "y")),
        "tp1": (True, ("pass", 1)),
        "tp2": (True, ("pass", 2)),
    }
    mutants = {
        "m1": {
            "tf1": (True, ("pass", 3)),
            "tf2": (True, ("pass", 4)),
            "tp1": (True, ("pass", 1)),
            "tp2": (True, ("pass", 2)),
        },
        "m2": {
            "tf1": (False, ("assertfail", "z")),
            "tf2": (False, ("assertfail", "y")),
            "tp1": (False, ("crash", "div0")),
            "tp2": (True, ("pass", 2)),
        },
    }
    return build_outcome_matrix(original, mutants, {"m1": S1, "m2": S2})


class TestFormulas:
    def test_muse_pinned_value(self):
        assert muse_mutant_score(2, 1, 4, 8) == pytest.approx(1.5, abs=1e-12)

    def test_muse_no_p2f_uses_raw_f2p_weight(self):
        assert muse_mutant_score(3, 2, 5, 0) == pytest.approx(3 - 5 * 2, abs=1e-12)

    def test_metallaxis_pinned_value(self):
        assert metallaxis_mutant_score(1, 3, 2) == pytest.approx(
            1 / math.sqrt(8), abs=1e-12
        )

    def test_metallaxis_zero_failed(self):
        assert metallaxis_mutant_score(0, 5, 3) == 0.0

    def test_metallaxis_requires_failing_tests(self):
        with pytest.raises(ValueError):
            metallaxis_mutant_score(1, 1, 0)


class TestClassify:
    def test_transitions(self):
        assert classify(True, False, True) == P2F
        assert classify(False, True, True) == F2P
        assert classify(False, False, True) == CHANGED
        assert classify(True, True, False) == SAME

    def test_changed_requires_output_difference(self):
        assert classify(False, False, False) == SAME


class TestMatrix:
    def test_counts_per_kill_notion(self):
        m = small_matrix()
        assert m.muse_counts("m1") == (2, 0)
        assert m.muse_counts("m2") == (0, 1)
        # Metallaxis also counts tf1's changed assertion site on m2
        assert m.metallaxis_counts("m1") == (2, 0)
        assert m.metallaxis_counts("m2") == (1, 1)
        assert (m.f2p, m.p2f) == (2, 1)

    def test_missing_execution_rejected(self):
        original = {"t1": (False, "s")}
        with pytest.raises(MatrixError):
            build_outcome_matrix(original, {"m1": {}}, {"m1": S1})

    def test_mutant_scores(self):
        m = small_matrix()
        muse = mutant_scores(m, "muse")
        assert muse["m1"] == pytest.approx(2.0, abs=1e-12)
        assert muse["m2"] == pytest.approx(0 - 2.0 * 1, abs=1e-12)
        met = mutant_scores(m, "metallaxis")
        assert met["m1"] == pytest.approx(2 / math.sqrt(2 * 2), abs=1e-12)
        assert met["m2"] == pytest.approx(1 / math.sqrt(2 * 2), abs=1e-12)

    def test_unknown_technique(self):
        with pytest.raises(ValueError):
            mutant_scores(small_matrix(), "nope")


class TestAggregation:
    def test_muse_averages_metallaxis_maxes(self):
        original = {"tf": (False, "s"), "tp": (True, "p")}
        mutants = {
            "a": {"tf": (True, "p2"), "tp": (True, "p")},   # f2p
            "b": {"tf": (False, "s"), "tp": (True, "p")},   # no effect
        }
        m = build_outcome_matrix(original, mutants, {"a": S1, "b": S1})
        muse = aggregate_to_statement("muse", m, [S1, S2]).as_dict()
        met = aggregate_to_statement("metallaxis", m, [S1, S2]).as_dict()
        # muse scores: a=1, b=0 -> average 0.5; metallaxis: max(1, 0) = 1
        assert muse[S1] == pytest.approx(0.5, abs=1e-12)
        assert met[S1] == pytest.approx(1.0, abs=1e-12)

    def test_statement_without_mutants_scores_zero(self):
        m = small_matrix()
        s3 = ProgramElement("f", 3)
        scored = aggregate_to_statement("metallaxis", m, [S1, S2, s3]).as_dict()
        assert scored[s3] == 0.0
