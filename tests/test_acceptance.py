"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single PASS/FAIL line so
the gate can be read off a verbose run directly.
"""

import itertools
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flkit.combine import (
    RankModel,
    build_pairwise_constraints,
    kfold_cv,
    predict,
    preset_families,
    preset_techniques,
    train,
    violations,
)
from flkit.corpus import load_corpus
from flkit.metrics import expected_first_faulty_rank, r_squared
from flkit.minilang.interp import TestCase as MLTest, reexec_step_budget, run
from flkit.minilang.parse import parse
from flkit.model import full_universe_ranking, ranked
from flkit.pipeline import analyze_fault, emit_report, evaluate_corpus
from flkit.predswitch import critical_predicates_for_tests
from flkit.sbfl import dstar, ochiai
from flkit.mbfl import metallaxis_mutant_score, muse_mutant_score
from flkit.slicing import backward_slice
from flkit.synthetic import complementary_corpus, standalone_e_inspect

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {name}: FAIL", file=sys.stderr)
        raise
    print(f"[criterion {number:2d}] {name}: PASS", file=sys.stderr)


# --- 1: expected-rank closed form vs exhaustive enumeration -----------------


def _enumerated(t, t_f, start):
    placements = list(itertools.combinations(range(t), t_f))
    return Fraction(sum(start + min(p) for p in placements), len(placements))


def _tied_ranking(t, t_f, start):
    from flkit.model import ProgramElement

    scores = {ProgramElement("pre", i + 1): 100.0 - i for i in range(start - 1)}
    tied = [ProgramElement("g", i + 1) for i in range(t)]
    scores.update(dict.fromkeys(tied, 100.0 - start))
    return scores, set(tied[:t_f])


def test_01_expected_rank_oracle():
    with criterion(1, "expected-rank closed form matches enumeration"):
        for start in (1, 5):
            for t in range(1, 9):
                for t_f in range(1, t + 1):
                    scores, faulty = _tied_ranking(t, t_f, start)
                    got = expected_first_faulty_rank(scores, faulty)
                    assert got == _enumerated(t, t_f, start), (t, t_f, start)
                    if t_f == 1:
                        assert got == start + Fraction(t - 1, 2)  # average rank
                    if t_f == t:
                        assert got == start  # group start position


# --- 2: formula micro-cases -------------------------------------------------


def test_02_formula_micro_cases():
    with criterion(2, "suspiciousness formula micro-cases"):
        assert abs(ochiai(2, 1, 0, 5) - 2 / math.sqrt(6)) < 1e-12
        assert abs(dstar(3, 1, 1, 0) - 4.5) < 1e-12
        assert abs(muse_mutant_score(2, 1, 4, 8) - 1.5) < 1e-12
        assert abs(metallaxis_mutant_score(1, 3, 2) - 1 / math.sqrt(8)) < 1e-12


# --- 3: collatz slice fidelity ----------------------------------------------


COLLATZ = """\
func collatz(x) { var res = 0;
    if ((x % 2) == 0)
        res = x / 2;
    else
        res = x * 3 + 1;
    return res;
}
"""


def test_03_collatz_slice():
    with criterion(3, "backward slice on the collatz example"):
        prog = parse(COLLATZ)
        trace = run(prog, MLTest("t", "collatz", (3,), "pass"))
        ret_event = next(i for i, e in enumerate(trace.events) if e.element.line == 6)
        slice_lines = {e.line for e in backward_slice(trace, ret_event).members}
        assert 5 in slice_lines
        assert 3 not in slice_lines


# --- 4: predicate switching soundness ---------------------------------------


def test_04_predicate_switching():
    with criterion(4, "critical-predicate discovery on an inverted branch"):
        prog = parse(
            "func absval(x) {\n"
            "    if (x > 0) {\n"
            "        return -x;\n"
            "    }\n"
            "    return x;\n"
            "}\n"
        )
        test = MLTest("t", "absval", (-5,), 5)
        baseline = run(prog, test)
        scored, reexecutions = critical_predicates_for_tests(
            prog, [(test, baseline)], reexec_step_budget([baseline])
        )
        (position,) = baseline.predicate_instances
        assert scored.keys() == {baseline.events[position].element}
        assert baseline.events[position].element.line == 2  # the inverted `if`
        assert reexecutions == len(baseline.predicate_instances)


# --- 5: seeded-bug corpus end-to-end ----------------------------------------


def test_05_seeded_corpus_sbfl():
    with criterion(5, "Ochiai expected rank <= 3 on >= 8 of 10 seeded bugs"):
        bundles = load_corpus(CORPUS)
        assert len(bundles) == 10
        hits = 0
        for bundle in bundles:
            assert len(bundle.tests) >= 5
            analysis = analyze_fault(bundle, ("sbfl",))
            ranking = full_universe_ranking(analysis.scores["ochiai"], bundle.elements)
            value = expected_first_faulty_rank(ranking, set(bundle.faulty))
            if value <= 3:
                hits += 1
                # oracle: on qualifying programs the faulty statement executes
                # in every failing test (maximal e_f) and, among elements tied
                # on e_f, in the fewest passing tests
                import flkit.sbfl as sbfl

                traces = [run(bundle.program, t) for t in bundle.tests]
                spectrum = sbfl.build_spectrum(
                    [(tr.covered, tr.failed) for tr in traces], bundle.elements
                )
                faulty = next(iter(bundle.faulty))
                max_ef = max(c.ef for c in spectrum.counts.values())
                assert spectrum.counts[faulty].ef == max_ef
                min_ep = min(
                    c.ep for c in spectrum.counts.values() if c.ef == max_ef
                )
                assert spectrum.counts[faulty].ep <= min_ep + 1
        assert hits >= 8


# --- 6: combination beats standalone ----------------------------------------


def test_06_combination_improvement():
    with criterion(6, "combined @1 >= 1.5x best standalone over >= 95% of seeds"):
        faults, standalone = complementary_corpus(n_faults=30, n_elements=15, seed=0)
        best_standalone = max(
            sum(1 for v in standalone_e_inspect(standalone, t).values() if v <= 1)
            for t in ("alpha", "beta")
        )
        assert best_standalone >= 1
        good_seeds = 0
        for seed in range(20):
            results = kfold_cv(faults, k=10, seed=seed)
            combined_at1 = sum(1 for v in results.values() if v <= 1)
            if combined_at1 >= 1.5 * best_standalone:
                good_seeds += 1
        assert good_seeds >= 19


# --- 7: rank-learning sanity ------------------------------------------------


def test_07_rank_learning():
    with criterion(7, "separable pairs separated; ordering scale-invariant"):
        faults, _ = complementary_corpus(n_faults=10, n_elements=8, seed=4)
        # make the problem fully separable: use only the perfectly scored half
        separable = faults[: len(faults) // 2]
        pairs = build_pairwise_constraints(separable, seed=0)
        model = train(pairs, separable[0].techniques, seed=0)
        assert violations(model, pairs) == 0
        scaled = RankModel(model.techniques, tuple(w * 7.0 for w in model.weights), model.seed)
        for fault in faults:
            base_rank = [(start, e) for start, _, e in ranked(predict(model, fault))]
            scaled_rank = [(start, e) for start, _, e in ranked(predict(scaled, fault))]
            assert base_rank == scaled_rank


# --- 8: correlation ----------------------------------------------------------


def test_08_correlation():
    with criterion(8, "r^2 identities, oracle agreement, symmetry"):
        xs = [1.0, 4.0, 2.0, 9.0, 5.0, 7.0]
        r2_self, _ = r_squared(xs, xs)
        assert r2_self == 1.0
        ys_line = [2 * x + 1 for x in xs]
        r2_line, _ = r_squared(xs, ys_line)
        assert abs(r2_line - 1.0) < 1e-12

        import random

        rng = random.Random(11)
        rx = [rng.uniform(1, 90) for _ in range(50)]
        ry = [1.4 * x + rng.gauss(0, 8) for x in rx]
        r2, _ = r_squared(rx, ry)
        A = np.vstack([rx, np.ones(len(rx))]).T
        coef, *_ = np.linalg.lstsq(A, np.asarray(ry), rcond=None)
        resid = np.asarray(ry) - A @ coef
        oracle = 1.0 - float(resid @ resid) / float(
            np.sum((np.asarray(ry) - np.mean(ry)) ** 2)
        )
        assert abs(r2 - oracle) < 1e-9
        assert r_squared(rx, ry)[0] == r_squared(ry, rx)[0]


# --- 9: preset nesting and ablation isolation --------------------------------


@pytest.fixture(scope="module")
def corpus_results():
    bundles = load_corpus(CORPUS)
    level1 = evaluate_corpus(bundles, level=1, seed=0, with_ablation=False)
    level2 = evaluate_corpus(bundles, level=2, seed=0, with_ablation=True)
    return level1, level2


def test_09_presets_and_ablation(corpus_results):
    with criterion(9, "preset nesting and leave-one-family-out ablation"):
        for level in (1, 2, 3):
            assert set(preset_techniques(level)) < set(preset_techniques(level + 1))
        level1, level2 = corpus_results
        assert set(level2["ablation"]) == set(preset_families(2))
        # isolation: a technique's standalone summary is identical whether or
        # not additional families run alongside it
        for tech in preset_techniques(1):
            assert level1["techniques"][tech] == level2["techniques"][tech]


# --- 10: determinism ----------------------------------------------------------


def test_10_determinism():
    with criterion(10, "same-seed pipeline runs emit identical reports"):
        bundles = load_corpus(CORPUS)
        reports = []
        for _ in range(2):
            results = evaluate_corpus(bundles, level=2, seed=0, with_ablation=True)
            results.pop("timings")
            reports.append(emit_report(results, "json"))
        assert reports[0] == reports[1]
