import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

import flkit.combine as cmb
from flkit.combine import (
    CombineError,
    FaultFeatures,
    RankModel,
    build_features,
    build_pairwise_constraints,
    combined_e_inspect,
    cross_project_cv,
    kfold_cv,
    normalize,
    predict,
    preset_families,
    preset_techniques,
    train,
    violations,
)
from flkit.synthetic import TECHNIQUES, complementary_corpus


def reference_pairs(faults, seed=0, cap=cmb.PAIR_CAP):
    """build_pairwise_constraints as it was before each fault split its rows
    once: one generator made up front, rows split again on every call."""
    rng = random.Random(seed)
    pairs = []
    for fault in faults:
        faulty, correct = [], []
        for elem, row in zip(fault.elements, fault.matrix):
            (faulty if elem in fault.faulty else correct).append(row)
        for row in faulty:
            chosen = correct if len(correct) <= cap else rng.sample(correct, cap)
            pairs.extend((row, other) for other in chosen)
    return pairs


def random_fault(rng, fault_id, n_elements, n_faulty):
    """Three random feature columns, `n_faulty` of the elements faulty."""
    techniques = TECHNIQUES + ("gamma",)
    elements = tuple(f"{fault_id}.e{j}" for j in range(n_elements))
    matrix = tuple(tuple(rng.random() for _ in techniques) for _ in elements)
    faulty = frozenset(rng.sample(elements, n_faulty))
    return FaultFeatures(fault_id, techniques, elements, matrix, faulty)


class TestPresets:
    def test_levels_are_cumulative(self):
        for level in (1, 2, 3):
            assert set(preset_families(level)) < set(preset_families(level + 1))

    def test_level_contents(self):
        assert set(preset_families(1)) == {"history", "stacktrace", "ir"}
        assert "sbfl" in preset_families(2)
        assert "predswitch" in preset_families(3)
        assert "mbfl" in preset_families(4)

    def test_techniques_expand_families(self):
        techs = preset_techniques(4)
        assert "ochiai" in techs and "dstar" in techs
        assert "metallaxis" in techs and "muse" in techs
        assert len(techs) == len(set(techs))

    def test_unknown_level(self):
        with pytest.raises(CombineError):
            preset_families(5)

    def test_technique_order_is_fixed(self):
        # The order sets the feature columns, and training depends on it.
        assert preset_techniques(4) == (
            "history", "stacktrace", "ir",
            "slice-union", "slice-intersection", "slice-frequency",
            "ochiai", "dstar", "predswitch", "metallaxis", "muse",
        )


class TestNormalize:
    def test_min_max(self):
        scored = {"a": 2.0, "b": 6.0, "c": 4.0}
        out = normalize(scored, ["a", "b", "c"])
        assert out == {"a": 0.0, "b": 1.0, "c": 0.5}

    def test_unscored_counts_as_zero(self):
        scored = {"a": 5.0}
        out = normalize(scored, ["a", "b"])
        assert out == {"a": 1.0, "b": 0.0}

    def test_infinity_maps_to_one_and_is_excluded_from_max(self):
        scored = {"a": math.inf, "b": 3.0, "c": 1.0}
        out = normalize(scored, ["a", "b", "c"])
        assert out["a"] == 1.0
        assert out["b"] == 1.0  # finite max
        assert out["c"] == 0.0

    def test_negative_infinity_maps_to_zero(self):
        scored = {"a": -math.inf, "b": 1.0, "c": 0.5}
        assert normalize(scored, ["a", "b", "c"]) == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_constant_vector_all_zero(self):
        scored = {"a": 7.0, "b": 7.0}
        assert normalize(scored, ["a", "b"]) == {"a": 0.0, "b": 0.0}

    def test_empty_universe_rejected(self):
        with pytest.raises(CombineError):
            normalize({}, [])

    def test_nan_rejected(self):
        with pytest.raises(CombineError, match="NaN score for b"):
            normalize({"a": 1.0, "b": math.nan}, ["a", "b"])

    def test_overflowing_finite_range(self):
        scored = {"a": 1e308, "b": -1e308, "c": 0.0}
        assert normalize(scored, ["a", "b", "c"]) == {"a": 1.0, "b": 0.0, "c": 0.5}


class TestFeatures:
    def test_build_features_shape_and_range(self):
        scores = {
            "x": {"a": 1.0, "b": 3.0},
            "y": {"a": -2.0},
        }
        feats = build_features("f1", scores, ("a", "b"), {"a"}, ("x", "y"))
        assert len(feats.matrix) == 2 and all(len(row) == 2 for row in feats.matrix)
        assert feats.matrix[feats.elements.index("b")] == (1.0, 1.0)  # y: b unscored 0 > -2

    def test_overflowing_finite_range_accepted(self):
        scores = {"x": {"a": 1e308, "b": -1e308, "c": 0.0}}
        feats = build_features("f1", scores, ("a", "b", "c"), {"a"}, ("x",))
        assert feats.matrix == ((1.0,), (0.0,), (0.5,))

    def test_missing_technique_rejected(self):
        with pytest.raises(CombineError):
            build_features("f1", {}, ("a",), {"a"}, ("x",))

    def test_out_of_range_matrix_rejected(self):
        with pytest.raises(CombineError):
            FaultFeatures("f", ("x",), ("a",), ((2.0,),), frozenset({"a"}))

    def test_pair_construction_stays_within_fault(self):
        faults, _ = complementary_corpus(n_faults=4, n_elements=5, seed=1)
        pairs = build_pairwise_constraints(faults, seed=0)
        assert len(pairs) == 4 * 4  # one faulty vs 4 correct per fault

    def test_pair_cap_and_seed_determinism(self, monkeypatch):
        monkeypatch.setattr(cmb, "PAIR_CAP", 10)
        faults, _ = complementary_corpus(n_faults=2, n_elements=30, seed=2)
        a = build_pairwise_constraints(faults, seed=5)
        b = build_pairwise_constraints(faults, seed=5)
        assert len(a) == 2 * 10
        assert all(x[1] == y[1] for x, y in zip(a, b))
        c = build_pairwise_constraints(faults, seed=6)
        assert any(x[1] != y[1] for x, y in zip(a, c))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_pairs_equal_the_reference(self, seed, monkeypatch):
        """Faults above and below the cap, interleaved: the generator is made
        only once a fault samples, so the draws and the pairs do not change."""
        rng = random.Random(seed)
        faults = [
            random_fault(rng, f"f{i}", n, k)
            for i, (n, k) in enumerate([(5, 1), (14, 2), (3, 3), (30, 1), (9, 4), (12, 1), (8, 0)])
        ]
        for _ in range(5):
            rng.shuffle(faults)
            for cap in (4, 10, cmb.PAIR_CAP):
                monkeypatch.setattr(cmb, "PAIR_CAP", cap)
                got = build_pairwise_constraints(faults, seed=seed)
                assert got == reference_pairs(faults, seed=seed, cap=cap)

    def test_replaced_features_split_their_own_matrix(self):
        """The ablation path drops columns with dataclasses.replace; the copy
        must not reuse the original's cached split."""
        fault = random_fault(random.Random(3), "f", 6, 2)
        faulty, correct = fault.split_rows
        assert len(faulty) == 2 and len(correct) == 4
        kept = dataclasses.replace(
            fault, techniques=fault.techniques[:1], matrix=tuple(r[:1] for r in fault.matrix)
        )
        assert kept.split_rows == (tuple(r[:1] for r in faulty), tuple(r[:1] for r in correct))
        assert fault.split_rows == (faulty, correct)
        assert build_pairwise_constraints([kept]) == reference_pairs([kept])


class TestTraining:
    def test_separable_pairs_get_separated(self):
        # faulty rows dominate in coordinate 0; correct rows in coordinate 1
        pairs = [
            ((1.0, 0.1), (0.2, 0.9)),
            ((0.9, 0.0), (0.1, 1.0)),
        ]
        model = train(pairs, ("x", "y"), seed=0)
        assert violations(model, pairs) == 0
        assert model.weights[0] > model.weights[1]

    def test_training_is_deterministic(self):
        faults, _ = complementary_corpus(n_faults=10, n_elements=8, seed=3)
        pairs = build_pairwise_constraints(faults, seed=1)
        m1 = train(pairs, TECHNIQUES, seed=1)
        m2 = train(pairs, TECHNIQUES, seed=1)
        assert m1.weights == m2.weights

    def test_no_pairs_rejected(self):
        with pytest.raises(CombineError):
            train([], ("x",), seed=0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(CombineError):
            train([((1.0,), (0.0,))], ("x", "y"), seed=0)

    def test_model_json_round_trip(self):
        model = RankModel(("x", "y"), (0.3, -0.1), seed=4)
        again = RankModel.from_json(model.to_json())
        assert again.techniques == model.techniques
        assert again.weights == model.weights
        assert again.seed == 4

    def test_weight_count_must_match_techniques(self):
        with pytest.raises(CombineError, match="2 weights for 3 techniques"):
            RankModel(("x", "y", "z"), (1.0, 2.0), seed=0)

    @pytest.mark.parametrize(
        "techniques,weights,seed,message",
        [
            (("x", "y", "x"), (1.0, 2.0, 3.0), 0, "repeats a technique"),
            ((), (), 0, "no techniques"),
            (("x",), (1.0,), "0", "seed must be an int"),
            (("x",), (1.0,), 1.5, "seed must be an int"),
            (("x",), (1.0,), True, "seed must be an int"),
        ],
        ids=["repeated", "empty", "string-seed", "float-seed", "bool-seed"],
    )
    def test_model_fields_checked(self, techniques, weights, seed, message):
        with pytest.raises(CombineError, match=message):
            RankModel(techniques, weights, seed)
        text = json.dumps({"techniques": list(techniques), "weights": list(weights), "seed": seed})
        with pytest.raises(CombineError, match=message):
            RankModel.from_json(text)

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", '{"techniques": ["x"], "weights": ["w"], "seed": 0}'],
    )
    def test_malformed_model_text_rejected(self, text):
        with pytest.raises(CombineError):
            RankModel.from_json(text)

    def test_predict_requires_matching_techniques(self):
        model = RankModel(("x",), (1.0,), seed=0)
        faults, _ = complementary_corpus(n_faults=1, n_elements=4, seed=0)
        with pytest.raises(CombineError):
            predict(model, faults[0])

    def test_predict_scores_are_linear(self):
        faults, _ = complementary_corpus(n_faults=1, n_elements=4, seed=0)
        model = RankModel(TECHNIQUES, (2.0, 1.0), seed=0)
        scored = predict(model, faults[0])
        f = faults[0]
        for row, e in zip(f.matrix, f.elements):
            assert scored[e] == pytest.approx(2.0 * row[0] + 1.0 * row[1])

    # Rows r, 0, r: both copies of r must score alike, or the tie between
    # them splits. A matrix-vector product may round trailing rows differently.
    TIE_ROW = (0.25, 0.82, 0.15, 0.06, 0.86, 0.58, 0.78, 0.64)
    TIE_WEIGHTS = (1.029, 1.055, 0.729, 1.123, -0.852, 1.024, -0.893, 0.073)

    @pytest.mark.parametrize("faulty", ["a", "c"])
    def test_identical_rows_tie(self, faulty):
        techniques = tuple(f"t{i}" for i in range(len(self.TIE_ROW)))
        zeros = (0.0,) * len(self.TIE_ROW)
        fault = FaultFeatures(
            "tie", techniques, ("a", "b", "c"), (self.TIE_ROW, zeros, self.TIE_ROW),
            frozenset({faulty}),
        )
        model = RankModel(techniques, self.TIE_WEIGHTS, seed=0)
        scored = predict(model, fault)
        assert scored["a"] == scored["c"]
        assert combined_e_inspect(model, fault) == Fraction(3, 2)


class TestCrossValidation:
    def test_kfold_covers_every_fault_once(self):
        faults, _ = complementary_corpus(n_faults=20, n_elements=6, seed=0)
        results = kfold_cv(faults, k=10, seed=0)
        assert set(results) == {f.fault_id for f in faults}

    def test_kfold_deterministic(self):
        faults, _ = complementary_corpus(n_faults=12, n_elements=6, seed=1)
        assert kfold_cv(faults, k=4, seed=3) == kfold_cv(faults, k=4, seed=3)

    def test_kfold_needs_enough_faults(self):
        faults, _ = complementary_corpus(n_faults=5, n_elements=4, seed=0)
        with pytest.raises(CombineError):
            kfold_cv(faults, k=10)

    def test_combination_beats_either_half_specialist(self):
        faults, _ = complementary_corpus(n_faults=20, n_elements=10, seed=7)
        results = kfold_cv(faults, k=10, seed=7)
        # each single technique is random noise on half the corpus; the
        # combination should place most faults near the top
        good = sum(1 for v in results.values() if v <= 2)
        assert good >= 15

    def test_cross_project_leaves_project_out(self):
        faults, _ = complementary_corpus(n_faults=12, n_elements=6, seed=2)
        relabeled = [
            FaultFeatures(
                f.fault_id, f.techniques, f.elements, f.matrix, f.faulty,
                project=("p1" if i % 2 else "p2"),
            )
            for i, f in enumerate(faults)
        ]
        results = cross_project_cv(relabeled, seed=0)
        assert set(results) == {f.fault_id for f in relabeled}

    def test_cross_project_needs_two_projects(self):
        faults, _ = complementary_corpus(n_faults=4, n_elements=4, seed=0)
        with pytest.raises(CombineError):
            cross_project_cv(faults)

    @pytest.mark.parametrize("cv", ["kfold", "cross-project"])
    def test_each_fold_builds_pairs_and_trains_once(self, cv, monkeypatch):
        """perfbench/tracer.py wraps these two module names and recounts hinge
        violations from the pairs `train` gets as its first argument, so every
        fold must call both through the module, with a list of row pairs."""
        faults, _ = complementary_corpus(n_faults=12, n_elements=6, seed=2)
        faults = [dataclasses.replace(f, project=f"p{i % 3}") for i, f in enumerate(faults)]
        built, trained = [], []
        real_build, real_train = cmb.build_pairwise_constraints, cmb.train

        def build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        def fit(*args, **kwargs):
            trained.append(args[0])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cmb, "build_pairwise_constraints", build)
        monkeypatch.setattr(cmb, "train", fit)
        if cv == "kfold":
            results, folds = kfold_cv(faults, k=4, seed=1), 4
        else:
            results, folds = cross_project_cv(faults, seed=1), 3
        assert len(results) == len(faults)
        assert len(built) == len(trained) == folds
        for made, given in zip(built, trained):
            assert given is made and type(given) is list and given
            assert all(type(p) is tuple and len(p) == 2 for p in given)
            assert all(len(row) == len(TECHNIQUES) for p in given for row in p)

    def test_combined_e_inspect_exact(self):
        faults, _ = complementary_corpus(n_faults=1, n_elements=6, seed=0)
        model = RankModel(TECHNIQUES, (1.0, 1.0), seed=0)
        v = combined_e_inspect(model, faults[0])
        assert 1 <= v <= len(faults[0].elements)
