import json
import math
import pickle
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flkit.corpus import load_corpus
from flkit.model import (
    ModelError,
    ProgramElement,
    Ranking,
    adjust_ground_truth_for_insertions,
    full_universe_ranking,
    lift_to_method_granularity,
    parse_element_key,
    rank_elements,
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
    def test_direct_grouping(self):
        a, b, c = elems(1, 2, 3)
        r = rank_elements({a: 1.0, b: 0.5, c: 0.5})
        assert r.groups == (frozenset({a}), frozenset({b, c}))
        assert r.start_positions == (1, 2)

    def test_all_tied(self):
        a, b, c = elems(1, 2, 3)
        r = rank_elements({a: 1.0, b: 1.0, c: 1.0})
        assert r.groups == (frozenset({a, b, c}),)
        assert r.start_positions == (1,)

    def test_infinity_sorts_first(self):
        a, b = elems(1, 2)
        r = rank_elements({a: math.inf, b: 3.0})
        assert r.groups == (frozenset({a}), frozenset({b}))
        assert r.scores[0] == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            rank_elements({})

    @pytest.mark.parametrize(
        "groups, starts, scores, message",
        [
            ("ab", (1,), (2.0, 1.0), "differ in length"),
            ("a", (1, 2), (2.0,), "differ in length"),
            ("a", (1,), (1.0, 0.5), "differ in length"),
            ("a-", (1, 2), (2.0, 1.0), "empty tie-group"),
        ],
        ids=["fewer-starts", "more-starts", "more-scores", "empty-group"],
    )
    def test_invalid_parts_rejected(self, groups, starts, scores, message):
        a, b = elems(1, 2)
        members = {"a": frozenset({a}), "b": frozenset({b}), "-": frozenset()}
        with pytest.raises(ModelError, match=message):
            Ranking(tuple(members[g] for g in groups), starts, scores)

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
        entries = [(ProgramElement("f", l, i), s) for (l, i), s in zip(keys, scores)]
        r = rank_elements(dict(entries))
        assert sum(len(g) for g in r.groups) == len(entries)
        assert list(r.start_positions) == sorted(set(r.start_positions))
        assert all(a > b for a, b in zip(r.scores, r.scores[1:]))
        ranked = set().union(*r.groups)
        assert ranked == {e for e, _ in entries}


class TestFullUniverseRanking:
    def test_unscored_get_zero_tail_group(self):
        a, b, c = elems(1, 2, 3)
        r = full_universe_ranking({a: 2.0}, [a, b, c])
        assert r.groups == (frozenset({a}), frozenset({b, c}))
        assert r.scores[1] == 0.0

    def test_scored_outside_universe_rejected(self):
        a, b = elems(1, 2)
        with pytest.raises(ModelError):
            full_universe_ranking({a: 1.0}, [b])


def two_step_rank(scores):
    """Ranking as built before one grouping pass: entries into sets per score."""
    if not scores:
        raise ModelError("cannot rank an empty scored list")
    by_score: dict = {}
    for elem, score in scores.items():
        by_score.setdefault(score, set()).add(elem)
    ordered = sorted(by_score.items(), key=lambda kv: kv[0], reverse=True)
    starts, pos = [], 1
    for _, members in ordered:
        starts.append(pos)
        pos += len(members)
    return Ranking(
        tuple(frozenset(m) for _, m in ordered), tuple(starts), tuple(s for s, _ in ordered)
    )


def two_step_universe_ranking(scores, universe):
    """A second, validated, score dict over the universe, then ranked."""
    universe = set(universe)
    outside = set(scores) - universe
    if outside:
        raise ModelError(f"scored elements outside universe: {sorted(map(str, outside))}")
    return two_step_rank({e: scores.get(e, 0.0) for e in universe})


def outcome(fn, *args):
    """A ranking as (groups, starts, score reprs), so that 0.0 is not -0.0,
    or the message of the ModelError it raised."""
    try:
        r = fn(*args)
    except ModelError as exc:
        return str(exc)
    return r.groups, r.start_positions, tuple(map(repr, r.scores))


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 0.5])
# A score, or None for an element left unscored but in the universe.
MAYBE_SCORE = st.none() | SPECIAL | st.floats(allow_nan=False, width=16)


class TestOneGroupingPass:
    @given(
        st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2), MAYBE_SCORE), max_size=25),
        st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2)), max_size=3, unique=True),
    )
    def test_equals_two_step_reference(self, rows, extra):
        rows = {ProgramElement("f", l, i): s for l, i, s in rows}
        scored = {e: s for e, s in rows.items() if s is not None}
        universe = list(rows)
        outside = [e for e in (ProgramElement("f", *k) for k in extra) if e not in rows]
        wider = {**scored, **dict.fromkeys(outside, 1.0)}
        for s, u in (
            (scored, universe),
            (scored, universe + universe[:2]),
            (scored, universe[1:] + elems(99)),
            (wider, universe),
        ):
            assert outcome(full_universe_ranking, s, u) == outcome(two_step_universe_ranking, s, u)
        assert outcome(rank_elements, scored) == outcome(two_step_rank, scored)

    def test_signed_zero_tie_keeps_its_first_score(self):
        a, b, c = elems(1, 2, 3)
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            r = rank_elements({a: 1.0, b: first, c: second})
            assert r.groups[1] == frozenset({b, c}) and repr(r.scores[1]) == repr(first)
        scored = {b: -0.0}
        assert outcome(full_universe_ranking, scored, [a, b, c]) == outcome(
            two_step_universe_ranking, scored, [a, b, c]
        )

    def test_errors(self):
        a, b = elems(1, 2)
        for universe in ([], [b]):
            with pytest.raises(ModelError, match="outside universe"):
                full_universe_ranking({a: 1.0}, universe)
        with pytest.raises(ModelError, match="empty scored list"):
            full_universe_ranking({}, [])
        with pytest.raises(ModelError, match="empty scored list"):
            rank_elements({})
        with pytest.raises(ModelError, match="NaN score for"):
            rank_elements({a: 1.0, b: math.nan})
        with pytest.raises(ModelError, match="NaN score for"):
            full_universe_ranking({a: math.nan}, [a, b])

    def test_corpus_scores(self):
        analyses = analyze_corpus(load_corpus(CORPUS), 4)
        checked = 0
        for analysis in analyses:
            method_of = analysis.bundle.program.method_map()
            for scored in analysis.scores.values():
                lifted = lift_to_method_granularity(scored, method_of)
                for s, u in ((scored, analysis.bundle.elements), (lifted, set(method_of.values()))):
                    assert outcome(full_universe_ranking, s, u) == outcome(
                        two_step_universe_ranking, s, u
                    )
                    assert outcome(rank_elements, s) == outcome(two_step_rank, s)
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
