"""The combiner's solver: optimality against an independent QP solve,
convergence of every corpus fit, and degenerate and capped inputs.

scipy is a test-only oracle here, as in test_metrics.
"""

import dataclasses
import random
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import flkit.combine as cmb
import flkit.pipeline as pipeline
from flkit.combine import L2_LAMBDA, MARGIN, build_pairwise_constraints, train
from flkit.corpus import load_corpus
from flkit.synthetic import TECHNIQUES, complementary_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# The level-4 objective of the fixed 100-epoch SGD trainer this solver replaced.
SGD_LEVEL4_OBJECTIVE = 0.20529
# A gap the exact finish reaches and coordinate descent, stopping at TOLERANCE, does not.
EXACT_GAP = 1e-9


@lru_cache(maxsize=None)
def corpus_analyses(level: int) -> tuple:
    return tuple(pipeline.analyze_corpus(load_corpus(CORPUS), level))


def objective(weights, pairs) -> float:
    """Mean hinge + L2_LAMBDA ||w||^2, the objective `train` documents."""
    w = np.asarray(weights, dtype=float)
    diffs = np.array([np.subtract(f, c) for f, c in pairs], dtype=float)
    return float(np.mean(np.maximum(0.0, MARGIN - diffs @ w)) + L2_LAMBDA * (w @ w))


def slsqp_optimum(pairs, dim: int) -> float:
    """The same objective in slack form, minimized by SLSQP over (w, xi):
    L2_LAMBDA ||w||^2 + mean(xi), xi >= 0, xi_i >= MARGIN - w.d_i."""
    diffs = np.array([np.subtract(f, c) for f, c in pairs], dtype=float)
    n = len(diffs)
    constraint_jac = np.hstack([diffs, np.eye(n)])

    def fun(z):
        w, xi = z[:dim], z[dim:]
        return L2_LAMBDA * (w @ w) + xi.sum() / n

    def jac(z):
        return np.concatenate([2 * L2_LAMBDA * z[:dim], np.full(n, 1.0 / n)])

    result = minimize(
        fun,
        np.concatenate([np.zeros(dim), np.full(n, MARGIN)]),
        jac=jac,
        method="SLSQP",
        bounds=[(None, None)] * dim + [(0.0, None)] * n,
        constraints=[{
            "type": "ineq",
            "fun": lambda z: diffs @ z[:dim] + z[dim:] - MARGIN,
            "jac": lambda z: constraint_jac,
        }],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    assert result.success, result.message
    return objective(result.x[:dim], pairs)


def random_pairs(rng: random.Random, dim: int, n: int, coarse: bool) -> list:
    """Rows in [0, 1]^dim; coarse values repeat, so some differences coincide
    and some are all zero."""
    def value():
        return rng.choice((0.0, 0.5, 1.0)) if coarse else rng.random()

    return [
        (tuple(value() for _ in range(dim)), tuple(value() for _ in range(dim)))
        for _ in range(n)
    ]


def recorded_gaps(monkeypatch) -> list:
    """Make every `train` call append its solver's final gap to the list."""
    gaps = []
    solve = cmb._solve

    def recording(rows, bounds, dim):
        w, gap = solve(rows, bounds, dim)
        gaps.append(gap)
        return w, gap

    monkeypatch.setattr(cmb, "_solve", recording)
    return gaps


class TestOptimality:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_slsqp_on_small_problems(self, seed):
        rng = random.Random(seed)
        dim = rng.randint(1, 5)
        pairs = random_pairs(rng, dim, rng.randint(1, 15), coarse=seed % 2 == 1)
        techniques = tuple(f"t{i}" for i in range(dim))
        if all(f == c for f, c in pairs):
            pairs.append(((1.0,) * dim, (0.0,) * dim))
        found = objective(train(pairs, techniques).weights, pairs)
        assert abs(found - slsqp_optimum(pairs, dim)) <= 1e-6

    def test_level4_corpus_pairs(self):
        techniques = cmb.preset_techniques(4)
        features = pipeline.corpus_features(corpus_analyses(4), techniques, "statement")
        pairs = build_pairwise_constraints(features, seed=0)
        found = objective(train(pairs, techniques).weights, pairs)
        assert found <= SGD_LEVEL4_OBJECTIVE
        assert abs(found - slsqp_optimum(pairs, len(techniques))) <= 1e-6


# Cross-validated models per `evaluate` at (statement, method) granularity: the
# combined one and one per left-out family, less those of history and ir (and
# of sbfl at method granularity from level 2), whose columns are constant
# within every corpus fault, so they reuse the combined model's fits.
CORPUS_MODELS = {1: (2, 2), 2: (4, 3), 3: (5, 4), 4: (6, 5)}


def use_analyses(monkeypatch, level: int) -> list:
    """Make `evaluate_corpus` reuse the cached level analyses; returns the bundles."""
    analyses = corpus_analyses(level)
    monkeypatch.setattr(pipeline, "analyze_corpus", lambda bundles, lvl: list(analyses))
    return [a.bundle for a in analyses]


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_every_corpus_fit_converges(level, monkeypatch):
    """Every fit of `evaluate` (combined and ablation, both CV modes, both
    granularities, seeds 0-4) ends on the stopping rule, not on the cap."""
    bundles = use_analyses(monkeypatch, level)
    gaps = recorded_gaps(monkeypatch)
    for granularity in ("statement", "method"):
        for cv in ("kfold", "cross-project"):
            for seed in range(5):
                pipeline.evaluate_corpus(
                    bundles, level=level, granularity=granularity, seed=seed, cv=cv
                )
    assert len(gaps) == 2 * 5 * 10 * sum(CORPUS_MODELS[level])
    assert max(gaps) <= cmb.TOLERANCE


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_every_corpus_fit_is_finished_exactly(level, monkeypatch):
    """The fits of `test_every_corpus_fit_converges` end far inside TOLERANCE,
    where coordinate descent stops: the exact finish certified each of them."""
    bundles = use_analyses(monkeypatch, level)
    gaps = recorded_gaps(monkeypatch)
    for granularity in ("statement", "method"):
        for cv in ("kfold", "cross-project"):
            for seed in range(5):
                pipeline.evaluate_corpus(
                    bundles, level=level, granularity=granularity, seed=seed, cv=cv
                )
    assert len(gaps) == 2 * 5 * 10 * sum(CORPUS_MODELS[level])
    assert max(gaps) <= EXACT_GAP


def test_ill_conditioned_corpus_fit_matches_slsqp():
    """Level 3, seed 1, without predswitch, the first k-fold fold: one of the
    fits that coordinate descent alone takes about 2,300 epochs to certify."""
    techniques = cmb.preset_techniques(3)
    features = pipeline.corpus_features(corpus_analyses(3), techniques, "statement")
    order = list(range(len(features)))
    random.Random(1).shuffle(order)
    kept = [i for i, t in enumerate(techniques) if t != "predswitch"]
    pairs = [
        (tuple(f[i] for i in kept), tuple(c[i] for i in kept))
        for f, c in build_pairwise_constraints(
            [f for i, f in enumerate(features) if i != order[0]], seed=1
        )
    ]
    found = objective(train(pairs, [techniques[i] for i in kept]).weights, pairs)
    assert abs(found - slsqp_optimum(pairs, len(kept))) <= 1e-6


def test_constant_families_reuse_the_combined_fits(monkeypatch):
    """Leaving out history or ir fits nothing at level 4: their rows are the
    combined row, which is also what fitting without their columns gives."""
    bundles = use_analyses(monkeypatch, 4)
    fits = []
    train_once = cmb.train
    monkeypatch.setattr(cmb, "train", lambda *a, **kw: fits.append(a) or train_once(*a, **kw))
    results = pipeline.evaluate_corpus(bundles, level=4)
    assert len(fits) == 60
    features = pipeline.corpus_features(corpus_analyses(4), cmb.preset_techniques(4), "statement")
    sizes = {f.fault_id: len(f.elements) for f in features}
    for family in ("history", "ir"):
        kept = [i for i, t in enumerate(features[0].techniques) if t != family]
        reduced = [
            dataclasses.replace(
                f,
                techniques=tuple(f.techniques[i] for i in kept),
                matrix=tuple(tuple(row[i] for i in kept) for row in f.matrix),
            )
            for f in features
        ]
        refit = pipeline._summary(cmb.kfold_cv(reduced, k=10, seed=0), sizes)
        assert results["ablation"][family] == results["combined"] == refit


class TestDegenerateAndBounded:
    def test_identical_rows_give_zero_weights(self):
        row = (0.3, 0.7, 0.0)
        model = train([(row, row)] * 4, ("a", "b", "c"))
        assert model.weights == (0.0, 0.0, 0.0)

    def test_duplicated_pairs_give_the_same_weights(self):
        faults, _ = complementary_corpus(n_faults=10, n_elements=8, seed=3)
        pairs = build_pairwise_constraints(faults, seed=1)
        once = train(pairs, TECHNIQUES).weights
        twice = train(pairs + pairs, TECHNIQUES).weights
        assert twice == pytest.approx(once, abs=1e-9)

    def test_seed_does_not_change_the_weights(self):
        faults, _ = complementary_corpus(n_faults=10, n_elements=8, seed=3)
        pairs = build_pairwise_constraints(faults, seed=1)
        assert train(pairs, TECHNIQUES, seed=1).weights == train(pairs, TECHNIQUES, seed=2).weights

    # Differences x1 = (1, 0) and x2 = (0.5, 1), each bounded by C = 25. From
    # w = 0, alpha1 becomes 1 (w = (1, 0)) and then alpha2 becomes 0.4
    # (w = (1.2, 0.4)). The optimum solves w.x1 = w.x2 = 1: w = (1, 0.5).
    CAP_PAIRS = [((1.0, 0.0), (0.0, 0.0)), ((0.5, 1.0), (0.0, 0.0))]

    def test_converged_weights(self, monkeypatch):
        gaps = recorded_gaps(monkeypatch)
        assert train(self.CAP_PAIRS, ("x", "y")).weights == pytest.approx((1.0, 0.5), abs=1e-5)
        assert gaps[0] <= cmb.TOLERANCE

    def test_epoch_cap_returns_the_last_iterate(self, monkeypatch):
        monkeypatch.setattr(cmb, "EPOCH_CAP", 1)
        gaps = recorded_gaps(monkeypatch)
        assert train(self.CAP_PAIRS, ("x", "y")).weights == pytest.approx((1.2, 0.4), abs=1e-12)
        assert gaps == [1.0]

    # Differences s x (1, 0.5) for s = 1, 0.5, 0.25, -0.5, -1, taken 1, 4, 1, 2
    # and 1 times: their Gram matrix has rank 1, so the finish has to move
    # free rows of one span to their bounds with w held fixed.
    PARALLEL_PAIRS = [
        (tuple(s * v for v in (1.0, 0.5)), (0.0, 0.0)) if s > 0 else
        ((0.0, 0.0), tuple(-s * v for v in (1.0, 0.5)))
        for s, count in ((1.0, 1), (0.5, 4), (0.25, 1), (-0.5, 2), (-1.0, 1))
        for _ in range(count)
    ]

    def test_rank_deficient_input_is_finished_exactly(self, monkeypatch):
        finish, finished = cmb._finish, []

        def recording(*args):
            finished.append(finish(*args))
            return finished[-1]

        monkeypatch.setattr(cmb, "_finish", recording)
        weights = train(self.PARALLEL_PAIRS, ("x", "y")).weights
        assert len(finished) == 1 and finished[0] is not None
        assert finished[0][1] <= EXACT_GAP and tuple(finished[0][0]) == weights
        found = objective(weights, self.PARALLEL_PAIRS)
        assert abs(found - slsqp_optimum(self.PARALLEL_PAIRS, 2)) <= 1e-6

    def test_failed_finish_falls_back_to_descent(self, monkeypatch):
        """Descent goes on from the iterate the finish started from, untouched."""
        exact = train(self.PARALLEL_PAIRS, ("x", "y")).weights
        finish = cmb._finish

        def failing(rows, bounds, dim, alpha):
            finish(rows, bounds, dim, alpha)
            return None

        monkeypatch.setattr(cmb, "_finish", lambda *args: None)
        skipped = train(self.PARALLEL_PAIRS, ("x", "y")).weights
        monkeypatch.setattr(cmb, "_finish", failing)
        gaps = recorded_gaps(monkeypatch)
        fallback = train(self.PARALLEL_PAIRS, ("x", "y")).weights
        assert gaps[0] <= cmb.TOLERANCE
        assert fallback == skipped
        assert fallback == pytest.approx(exact, abs=1e-5)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_pairs_rejected(self, bad):
        with pytest.raises(cmb.CombineError, match="finite"):
            train([((bad, 0.0), (0.0, 0.0))], ("x", "y"))
