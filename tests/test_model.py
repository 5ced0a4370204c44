import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flkit.model import (
    ModelError,
    ProgramElement,
    ScoredList,
    adjust_ground_truth_for_insertions,
    full_universe_ranking,
    lift_to_method_granularity,
    parse_element_key,
    rank_elements,
)


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
        """The hash is computed once, and equals the generated one, so set
        orders do not change; a replaced element gets its own."""
        e = ProgramElement("src/a.ml", 12, 1, method_id="m1")
        assert hash(e) == hash(("src/a.ml", 12, 1))
        other = dataclasses.replace(e, method_id="m2")
        assert other == e and hash(other) == hash(e)
        moved = dataclasses.replace(e, line=13)
        assert moved != e and hash(moved) == hash(("src/a.ml", 13, 1))


class TestRankElements:
    def test_direct_grouping(self):
        a, b, c = elems(1, 2, 3)
        r = rank_elements(ScoredList("t", [(a, 1.0), (b, 0.5), (c, 0.5)]))
        assert r.groups == (frozenset({a}), frozenset({b, c}))
        assert r.start_positions == (1, 2)

    def test_all_tied(self):
        a, b, c = elems(1, 2, 3)
        r = rank_elements(ScoredList("t", [(a, 1.0), (b, 1.0), (c, 1.0)]))
        assert r.groups == (frozenset({a, b, c}),)
        assert r.start_positions == (1,)

    def test_infinity_sorts_first(self):
        a, b = elems(1, 2)
        r = rank_elements(ScoredList("t", [(a, math.inf), (b, 3.0)]))
        assert r.groups == (frozenset({a}), frozenset({b}))
        assert r.scores[0] == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ModelError):
            rank_elements(ScoredList("t", []))

    def test_duplicate_element_rejected(self):
        a = ProgramElement("f", 1)
        with pytest.raises(ModelError):
            ScoredList("t", [(a, 1.0), (a, 2.0)])

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
        r = rank_elements(ScoredList("t", entries))
        assert sum(len(g) for g in r.groups) == len(entries)
        assert list(r.start_positions) == sorted(set(r.start_positions))
        assert all(a > b for a, b in zip(r.scores, r.scores[1:]))
        ranked = set().union(*r.groups)
        assert ranked == {e for e, _ in entries}


class TestFullUniverseRanking:
    def test_unscored_get_zero_tail_group(self):
        a, b, c = elems(1, 2, 3)
        r = full_universe_ranking(ScoredList("t", [(a, 2.0)]), [a, b, c])
        assert r.groups == (frozenset({a}), frozenset({b, c}))
        assert r.scores[1] == 0.0

    def test_scored_outside_universe_rejected(self):
        a, b = elems(1, 2)
        with pytest.raises(ModelError):
            full_universe_ranking(ScoredList("t", [(a, 1.0)]), [b])


class TestMethodLift:
    def test_max_of_statements(self):
        a, b = elems(1, 2)
        lifted = lift_to_method_granularity(
            ScoredList("t", [(a, 0.2), (b, 0.9)]), {a: "m1", b: "m1"}
        )
        assert lifted.as_dict() == {"m1": 0.9}

    def test_singleton(self):
        (a,) = elems(1)
        lifted = lift_to_method_granularity(ScoredList("t", [(a, 0.4)]), {a: "m"})
        assert lifted.as_dict() == {"m": 0.4}

    def test_tie_across_methods(self):
        a, b, c = elems(1, 2, 3)
        lifted = lift_to_method_granularity(
            ScoredList("t", [(a, 0.2), (b, 0.9), (c, 0.9)]),
            {a: "m1", b: "m1", c: "m2"},
        )
        assert lifted.as_dict() == {"m1": 0.9, "m2": 0.9}

    def test_missing_mapping_rejected(self):
        a, b = elems(1, 2)
        with pytest.raises(ModelError):
            lift_to_method_granularity(ScoredList("t", [(a, 1.0), (b, 1.0)]), {a: "m"})

    def test_idempotent_on_method_level_input(self):
        lifted = ScoredList("t", [("m1", 0.9), ("m2", 0.4)])
        again = lift_to_method_granularity(lifted, {"m1": "m1", "m2": "m2"})
        assert again.as_dict() == lifted.as_dict()


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
