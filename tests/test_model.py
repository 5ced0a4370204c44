import json
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flkit.corpus import load_corpus
from flkit.metrics import NotLocalizedError, expected_first_faulty_rank
from flkit.model import (
    ModelError,
    ProgramElement,
    adjust_ground_truth_for_insertions,
    full_universe_ranking,
    lift_to_method_granularity,
    parse_element_key,
    ranked,
)
from flkit.pipeline import analyze_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def elems(*lines):
    return [ProgramElement("f", line) for line in lines]


class TestProgramElement:
    def test_key_round_trip(self):
        e = ProgramElement("src/a.ml", 12, 1)
        assert parse_element_key(e.key) == e

    def test_invalid_line(self):
        with pytest.raises(ModelError):
            ProgramElement("f", 0)

    def test_method_id_excluded_from_equality(self):
        a = ProgramElement("f", 1, 0, method_id="m1")
        b = ProgramElement("f", 1, 0, method_id=None)
        assert a == b
        assert hash(a) == hash(b)

    def test_hash_is_that_of_the_compared_fields(self):
        """The hash equals that of (file_id, line, stmt_index), so set orders
        do not change; an element at another place gets its own."""
        e = ProgramElement("src/a.ml", 12, 1, method_id="m1")
        assert hash(e) == hash(("src/a.ml", 12, 1))
        other = ProgramElement("src/a.ml", 12, 1, method_id="m2")
        assert other == e and hash(other) == hash(e)
        moved = ProgramElement("src/a.ml", 13, 1, method_id="m1")
        assert moved != e and hash(moved) == hash(("src/a.ml", 13, 1))

    def test_is_the_plain_tuple(self):
        e = ProgramElement("src/a.ml", 12, 1, method_id="m1")
        assert e == ("src/a.ml", 12, 1) and tuple(e) == ("src/a.ml", 12, 1)
        assert (e.file_id, e.line, e.stmt_index, e.method_id) == ("src/a.ml", 12, 1, "m1")
        assert sorted([e, ProgramElement("src/a.ml", 3, 0)]) == [("src/a.ml", 3, 0), e]
        assert json.loads(json.dumps(e)) == ["src/a.ml", 12, 1]
        assert repr(e) == "ProgramElement(file_id='src/a.ml', line=12, stmt_index=1, method_id='m1')"
        copied = pickle.loads(pickle.dumps(e))
        assert type(copied) is ProgramElement and copied.method_id == "m1"

    @pytest.mark.parametrize("name", ["file_id", "line", "stmt_index", "method_id", "other"])
    def test_immutable(self, name):
        e = ProgramElement("f", 1, 0, method_id="m")
        with pytest.raises(AttributeError):
            setattr(e, name, 2)
        with pytest.raises(AttributeError):
            delattr(e, name)
        assert (e.key, e.method_id) == ("f:1:0", "m")

    def test_invalid_stmt_index(self):
        with pytest.raises(ModelError):
            ProgramElement("f", 1, -1)


class TestRankElements:
    """`ranked`, the display order: (start, score, element) by decreasing score."""

    def test_direct_grouping(self):
        a, b, c = elems(1, 2, 3)
        assert list(ranked({c: 0.5, a: 1.0, b: 0.5})) == [(1, 1.0, a), (2, 0.5, b), (2, 0.5, c)]

    def test_all_tied(self):
        a, b, c = elems(1, 2, 10)
        # listed by element text, in which "f:10:0" comes first
        assert [(start, e) for start, _, e in ranked({b: 1.0, a: 1.0, c: 1.0})] == [
            (1, c), (1, a), (1, b)
        ]

    def test_infinity_sorts_first(self):
        a, b, c = elems(1, 2, 3)
        assert list(ranked({b: 3.0, c: -math.inf, a: math.inf})) == [
            (1, math.inf, a), (2, 3.0, b), (3, -math.inf, c)
        ]

    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(0, 5)),
            min_size=1,
            max_size=30,
            unique=True,
        ).flatmap(
            lambda keys: st.tuples(
                st.just(keys),
                st.lists(
                    st.floats(allow_nan=False, width=32), min_size=len(keys), max_size=len(keys)
                ),
            )
        )
    )
    def test_ranking_invariants(self, data):
        keys, scores = data
        entries = dict((ProgramElement("f", l, i), s) for (l, i), s in zip(keys, scores))
        rows = list(ranked(entries))
        assert sorted(e for _, _, e in rows) == sorted(entries)
        assert all(entries[e] == score for _, score, e in rows)
        for (start, score, e), (next_start, next_score, f) in zip(rows, rows[1:]):
            assert score >= next_score
            if score == next_score:
                assert next_start == start and str(e) < str(f)
            else:
                assert next_start == sum(1 for other in entries.values() if other > next_score) + 1


class TestFullUniverseRanking:
    def test_unscored_get_zero_tail_group(self):
        a, b, c = elems(1, 2, 3)
        r = full_universe_ranking({a: 2.0}, [c, a, b])
        assert list(r.items()) == [(c, 0.0), (a, 2.0), (b, 0.0)]
        assert list(ranked(r)) == [(1, 2.0, a), (2, 0.0, b), (2, 0.0, c)]

    def test_scored_outside_universe_rejected(self):
        a, b = elems(1, 2)
        with pytest.raises(ModelError):
            full_universe_ranking({a: 1.0}, [b])


def two_step_rank(scores, faulty):
    """Reference expected rank in two steps, as a ranking of tie-groups gave it:
    group the elements by exact score, then walk the groups in decreasing
    score order to the first that holds a faulty element."""
    by_score: dict = {}
    for elem, score in scores.items():
        if math.isnan(score):
            raise ModelError(f"NaN score for {elem}")
        by_score.setdefault(score, set()).add(elem)
    start = 1
    for score in sorted(by_score, reverse=True):
        group = by_score[score]
        t_f = len(group & faulty)
        if t_f:
            return Fraction(start * (t_f + 1) + len(group) - t_f, t_f + 1)
        start += len(group)
    raise NotLocalizedError("no faulty element appears in the ranking")


def two_step_universe_rank(scores, universe, faulty):
    """two_step_rank of a second, validated, score dict over the universe."""
    universe = set(universe)
    outside = set(scores) - universe
    if outside:
        raise ModelError(f"scored elements outside universe: {sorted(map(str, outside))}")
    if not universe:
        raise ModelError("cannot rank an empty scored list")
    return two_step_rank({e: scores.get(e, 0.0) for e in universe}, faulty)


def counted_universe_rank(scores, universe, faulty):
    return expected_first_faulty_rank(full_universe_ranking(scores, universe), faulty)


def outcome(fn, *args):
    """The expected rank, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ModelError, NotLocalizedError) as exc:
        return type(exc).__name__, str(exc)


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5])
# A score, or None for an element left unscored but in the universe.
MAYBE_SCORE = st.none() | SPECIAL | st.floats(allow_nan=False, width=16)
KEYS = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2)), max_size=3, unique=True)


class TestOneGroupingPass:
    """Counting the elements above and tied at the best faulty score gives the
    two-step reference's exact value and errors."""

    @given(
        st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2), MAYBE_SCORE), max_size=25),
        KEYS,
        KEYS,
    )
    def test_equals_two_step_reference(self, rows, extra, faulty):
        rows = {ProgramElement("f", l, i): s for l, i, s in rows}
        scored = {e: s for e, s in rows.items() if s is not None}
        universe = list(rows)
        outside = [e for e in (ProgramElement("f", *k) for k in extra) if e not in rows]
        wider = {**scored, **dict.fromkeys(outside, 1.0)}
        faulty = {ProgramElement("f", *k) for k in faulty}
        for fault_set in (faulty, faulty | set(universe[::3]), set(universe)):
            for s, u in (
                (scored, universe),
                (scored, universe + universe[:2]),
                (scored, universe[1:] + elems(99)),
                (wider, universe),
            ):
                assert outcome(counted_universe_rank, s, u, fault_set) == outcome(
                    two_step_universe_rank, s, u, fault_set
                )
            assert outcome(expected_first_faulty_rank, scored, fault_set) == outcome(
                two_step_rank, scored, fault_set
            )

    def test_signed_zeros_tie_and_keep_their_own_scores(self):
        a, b, c = elems(1, 2, 3)
        scored = {b: -0.0}
        for faulty in ({a}, {b}, {a, b}):
            assert outcome(counted_universe_rank, scored, [a, b, c], faulty) == outcome(
                two_step_universe_rank, scored, [a, b, c], faulty
            )
        assert counted_universe_rank(scored, [a, b, c], {b}) == 2
        rows = ranked(full_universe_ranking(scored, [c, b, a]))
        assert [(start, repr(score), e) for start, score, e in rows] == [
            (1, "0.0", a), (1, "-0.0", b), (1, "0.0", c)
        ]

    def test_errors(self):
        a, b = elems(1, 2)
        for universe in ([], [b]):
            with pytest.raises(ModelError, match="outside universe"):
                full_universe_ranking({a: 1.0}, universe)
        with pytest.raises(ModelError, match="empty scored list"):
            full_universe_ranking({}, [])
        with pytest.raises(ModelError, match="NaN score for f:2:0"):
            expected_first_faulty_rank({a: 1.0, b: math.nan}, {a})
        with pytest.raises(ModelError, match="NaN score for f:1:0"):
            counted_universe_rank({a: math.nan}, [a, b], {b})
        with pytest.raises(NotLocalizedError):
            expected_first_faulty_rank({a: 1.0}, {b})
        with pytest.raises(NotLocalizedError):
            expected_first_faulty_rank({}, {a})

    def test_corpus_scores(self):
        analyses = analyze_corpus(load_corpus(CORPUS), 4)
        checked = 0
        for analysis in analyses:
            bundle = analysis.bundle
            method_of = {e: e.method_id for e in bundle.elements}
            methods = set(method_of.values())
            faulty_methods = {method_of[e] for e in bundle.faulty}
            for scored in analysis.scores.values():
                lifted = lift_to_method_granularity(scored, method_of)
                for s, u, faulty in (
                    (scored, bundle.elements, bundle.faulty),
                    (lifted, methods, faulty_methods),
                ):
                    assert outcome(counted_universe_rank, s, u, faulty) == outcome(
                        two_step_universe_rank, s, u, faulty
                    )
                    assert outcome(expected_first_faulty_rank, s, faulty) == outcome(
                        two_step_rank, s, faulty
                    )
                    checked += 1
        assert checked == 2 * 11 * len(analyses)


class TestMethodLift:
    def test_max_of_statements(self):
        a, b = elems(1, 2)
        lifted = lift_to_method_granularity(
            {a: 0.2, b: 0.9}, {a: "m1", b: "m1"}
        )
        assert lifted == {"m1": 0.9}

    def test_singleton(self):
        (a,) = elems(1)
        lifted = lift_to_method_granularity({a: 0.4}, {a: "m"})
        assert lifted == {"m": 0.4}

    def test_tie_across_methods(self):
        a, b, c = elems(1, 2, 3)
        lifted = lift_to_method_granularity(
            {a: 0.2, b: 0.9, c: 0.9},
            {a: "m1", b: "m1", c: "m2"},
        )
        assert lifted == {"m1": 0.9, "m2": 0.9}

    def test_missing_mapping_rejected(self):
        a, b = elems(1, 2)
        with pytest.raises(ModelError):
            lift_to_method_granularity({a: 1.0, b: 1.0}, {a: "m"})

    def test_idempotent_on_method_level_input(self):
        lifted = {"m1": 0.9, "m2": 0.4}
        again = lift_to_method_granularity(lifted, {"m1": "m1", "m2": "m2"})
        assert again == lifted


class TestGroundTruthAdjustment:
    def test_modified_line(self):
        universe = elems(1, 2, 3)
        faulty = adjust_ground_truth_for_insertions([("f", 2)], [], universe)
        assert faulty == {ProgramElement("f", 2)}

    def test_insertion_maps_to_following_element(self):
        universe = elems(2, 4, 5, 7)
        faulty = adjust_ground_truth_for_insertions([], [("f", 4)], universe)
        assert faulty == {ProgramElement("f", 5)}

    def test_insertion_at_end_falls_back_to_preceding(self):
        universe = elems(1, 3)
        faulty = adjust_ground_truth_for_insertions([], [("f", 9)], universe)
        assert faulty == {ProgramElement("f", 3)}

    def test_empty_result_rejected(self):
        with pytest.raises(ModelError):
            adjust_ground_truth_for_insertions([("f", 99)], [], elems(1))
