import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flkit.mbfl import (
    MutantKills,
    aggregate_to_statement,
    build_outcome_matrix,
    metallaxis_mutant_score,
    muse_mutant_score,
)
from flkit.model import ProgramElement

S1 = ProgramElement("f", 1)
S2 = ProgramElement("f", 2)
S3 = ProgramElement("f", 3)
S4 = ProgramElement("f", 4)

# Oracle: classify every (mutant, test) pair, then count and score the classes.
SAME, CHANGED, F2P, P2F = "same-result", "output-changed", "fail-to-pass", "pass-to-fail"


def classify(original, mutant) -> str:
    (orig_passed, orig_sig), (passed, sig) = original, mutant
    if orig_passed and not passed:
        return P2F
    if passed and not orig_passed:
        return F2P
    return CHANGED if sig != orig_sig else SAME


def oracle(original, mutants, mutant_stmt, universe):
    """(total failed, mutant_id -> MutantKills, technique -> statement -> score)."""
    classes = {
        (mid, t): classify(original[t], runs[t]) for mid, runs in mutants.items() for t in original
    }
    failed = [t for t, (passed, _) in original.items() if not passed]
    passed = [t for t in original if t not in failed]

    def count(mid, tests, kinds):
        return sum(1 for t in tests if classes[(mid, t)] in kinds)

    kills = {
        mid: MutantKills(
            mutant_stmt[mid],
            count(mid, failed, {F2P}),
            count(mid, passed, {P2F}),
            count(mid, failed, {F2P, CHANGED}),
            count(mid, passed, {P2F, CHANGED}),
        )
        for mid in mutants
    }
    f2p = sum(1 for c in classes.values() if c == F2P)
    p2f = sum(1 for c in classes.values() if c == P2F)
    muse = {mid: muse_mutant_score(k.f2p, k.p2f, f2p, p2f) for mid, k in kills.items()}
    metallaxis = {
        mid: metallaxis_mutant_score(k.failed_changed, k.passed_changed, len(failed))
        for mid, k in kills.items()
    }
    scores = {}
    for tech, per_mutant in (("muse", muse), ("metallaxis", metallaxis)):
        scores[tech] = {}
        for elem in universe:
            mine = [per_mutant[mid] for mid in mutants if mutant_stmt[mid] == elem]
            if not mine:
                scores[tech][elem] = 0.0
            elif tech == "muse":
                total = 0.0  # left to right, the order every Python version keeps
                for score in mine:
                    total += score
                scores[tech][elem] = total / len(mine)
            else:
                scores[tech][elem] = max(mine)
    return len(failed), kills, scores


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


def pair_kills(original, mutant) -> tuple:
    """(f2p, p2f, failed_changed, passed_changed) of one mutant run of one test."""
    _, kills = build_outcome_matrix({"t": original}, {"m": {"t": mutant}}, {"m": S1})
    return tuple(kills["m"])[1:]


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
        assert pair_kills((True, "a"), (False, "b")) == (0, 1, 0, 1)
        assert pair_kills((False, "a"), (True, "b")) == (1, 0, 1, 0)
        assert pair_kills((False, "a"), (False, "b")) == (0, 0, 1, 0)
        assert pair_kills((True, "a"), (True, "a")) == (0, 0, 0, 0)
        # A flip is a change even where the signatures agree.
        assert pair_kills((True, "a"), (False, "a")) == (0, 1, 0, 1)

    def test_changed_requires_output_difference(self):
        assert pair_kills((False, "a"), (False, "a")) == (0, 0, 0, 0)
        assert pair_kills((True, 1), (True, 2)) == (0, 0, 0, 1)


class TestMatrix:
    def test_counts_per_kill_notion(self):
        total_failed, kills = small_matrix()
        assert total_failed == 2
        # MUSE reads the flips; Metallaxis also counts tf1's changed
        # assertion site on m2.
        assert kills["m1"] == MutantKills(S1, f2p=2, p2f=0, failed_changed=2, passed_changed=0)
        assert kills["m2"] == MutantKills(S2, f2p=0, p2f=1, failed_changed=1, passed_changed=1)

    def test_missing_execution_rejected(self):
        original = {"t1": (False, "s")}
        with pytest.raises(KeyError):
            build_outcome_matrix(original, {"m1": {}}, {"m1": S1})

    def test_mutant_scores(self):
        # One mutant per statement, so each statement scores as its mutant.
        scored = aggregate_to_statement(small_matrix(), [S1, S2])
        assert list(scored) == ["metallaxis", "muse"]
        muse, met = scored["muse"], scored["metallaxis"]
        assert muse[S1] == pytest.approx(2.0, abs=1e-12)
        assert muse[S2] == pytest.approx(0 - 2.0 * 1, abs=1e-12)
        assert met[S1] == pytest.approx(2 / math.sqrt(2 * 2), abs=1e-12)
        assert met[S2] == pytest.approx(1 / math.sqrt(2 * 2), abs=1e-12)


class TestAggregation:
    def test_muse_averages_metallaxis_maxes(self):
        original = {"tf": (False, "s"), "tp": (True, "p")}
        mutants = {
            "a": {"tf": (True, "p2"), "tp": (True, "p")},   # f2p
            "b": {"tf": (False, "s"), "tp": (True, "p")},   # no effect
        }
        m = build_outcome_matrix(original, mutants, {"a": S1, "b": S1})
        scored = aggregate_to_statement(m, [S1, S2])
        muse, met = scored["muse"], scored["metallaxis"]
        # muse scores: a=1, b=0 -> average 0.5; metallaxis: max(1, 0) = 1
        assert muse[S1] == pytest.approx(0.5, abs=1e-12)
        assert met[S1] == pytest.approx(1.0, abs=1e-12)

    def test_muse_mean_sums_left_to_right(self):
        # One fail->pass against ten pass->fail (seven of them S2's) makes the
        # weight 1/10, so S1's mutants score -0.1, 0.9 and -0.1. Left to right they
        # sum to 0.7000000000000001; a compensated sum (sum() from Python
        # 3.12) gives 0.7. The mean keeps the left-to-right bits everywhere.
        kills = {
            "m0": MutantKills(S1, 0, 1, 0, 1),
            "m1": MutantKills(S1, 1, 1, 1, 1),
            "m2": MutantKills(S1, 0, 1, 0, 1),
            "m3": MutantKills(S2, 0, 7, 0, 7),
        }
        scores = [muse_mutant_score(k.f2p, k.p2f, 1, 10) for k in kills.values()]
        assert scores[:3] == [-0.1, 0.9, -0.1]
        assert math.fsum(scores[:3]) == 0.7
        muse = aggregate_to_statement((2, kills), [S1, S2])["muse"]
        assert muse[S1] == 0.7000000000000001 / 3

    def test_statement_without_mutants_scores_zero(self):
        scored = aggregate_to_statement(small_matrix(), [S1, S2, S3])
        assert scored["metallaxis"][S3] == 0.0
        assert scored["muse"][S3] == 0.0


RUN = st.tuples(st.booleans(), st.integers(0, 2))


@st.composite
def outcomes(draw):
    """Random original runs (at least one failing) and mutant runs."""
    n_tests = draw(st.integers(1, 6))
    tests = [f"t{i}" for i in range(n_tests)]
    runs = draw(st.lists(RUN, min_size=n_tests, max_size=n_tests))
    failing = draw(st.integers(0, n_tests - 1))
    runs[failing] = (False, runs[failing][1])
    original = dict(zip(tests, runs))
    mutants, mutant_stmt = {}, {}
    for i in range(draw(st.integers(0, 6))):
        mid = f"m{i}"
        mutants[mid] = dict(zip(tests, draw(st.lists(RUN, min_size=n_tests, max_size=n_tests))))
        mutant_stmt[mid] = draw(st.sampled_from([S1, S2, S3]))
    return original, mutants, mutant_stmt


@settings(max_examples=300, deadline=None)
@given(outcomes())
def test_counts_and_scores_match_pair_oracle(case):
    original, mutants, mutant_stmt = case
    universe = [S1, S2, S3, S4]
    total_failed, kills, scores = oracle(original, mutants, mutant_stmt, universe)
    matrix = build_outcome_matrix(original, mutants, mutant_stmt)
    assert matrix == (total_failed, kills)
    assert list(matrix[1]) == list(mutants)
    scored = aggregate_to_statement(matrix, universe)
    assert list(scored) == ["metallaxis", "muse"]
    for tech in ("muse", "metallaxis"):
        assert list(scored[tech].items()) == list(scores[tech].items())
