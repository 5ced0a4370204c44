"""Pipeline orchestration: run FL families over a corpus, evaluate, and report.

Evaluation is staged: analyze every fault, rank each technique on its own,
then cross-validate the combination; correlation needs only the first two.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import combine as cmb
from . import mbfl, sbfl
from .corpus import PROGRAM_FILE, FaultBundle, ScoreRecord
from .irhist import history_rank_files, ir_rank_files, propagate_file_scores
from .metrics import (
    CorrelationUndefinedError,
    e_inspect_at_n,
    expected_first_faulty_rank,
    integer_r_squared,
    scale_to_integers,
)
from .minilang.interp import reexec_step_budget, run
from .minilang.mutate import gen_mutants
from .model import ModelError, full_universe_ranking, lift_to_method_granularity
from .predswitch import critical_predicates_for_tests
from .slicing import backward_slice, combine_slices
from .stacktrace import score_stack_traces

AT_N = (1, 3, 5, 10)


class PipelineError(Exception):
    pass


@dataclass
class FaultAnalysis:
    """Per-fault technique scores (statement granularity) plus family timings."""

    bundle: FaultBundle
    scores: dict = field(default_factory=dict)  # technique -> element -> score
    timings: dict = field(default_factory=dict)  # family -> seconds


def _score_history(bundle: FaultBundle, traces: dict) -> dict:
    now = max(c.timestamp for c in bundle.commits)
    file_scores = history_rank_files(bundle.commits, now)
    return {"history": propagate_file_scores(file_scores, {PROGRAM_FILE: bundle.elements})}


def _score_stacktrace(bundle: FaultBundle, traces: dict) -> dict:
    failed_traces = [tr for tr in traces.values() if tr.failed]
    return {"stacktrace": score_stack_traces(failed_traces, bundle.elements)}


def _score_ir(bundle: FaultBundle, traces: dict) -> dict:
    file_scores = ir_rank_files(bundle.bug_report, {PROGRAM_FILE: bundle.program.source})
    return {"ir": propagate_file_scores(file_scores, {PROGRAM_FILE: bundle.elements})}


def _score_slicing(bundle: FaultBundle, traces: dict) -> dict:
    failed = [tr for tr in traces.values() if tr.failed and tr.criterion_event is not None]
    return combine_slices([backward_slice(tr) for tr in failed])


def _score_sbfl(bundle: FaultBundle, traces: dict) -> dict:
    spectrum = sbfl.build_spectrum(
        [(tr.covered, tr.failed) for tr in traces.values()], bundle.elements
    )
    return {
        "ochiai": sbfl.spectrum_scores(spectrum, sbfl.ochiai),
        "dstar": sbfl.spectrum_scores(spectrum, sbfl.dstar),
    }


def _score_predswitch(bundle: FaultBundle, traces: dict) -> dict:
    failing_runs = [(t, traces[t.test_id]) for t in bundle.tests if traces[t.test_id].failed]
    budget = reexec_step_budget(traces.values())  # passing runs bound a repaired one
    return {"predswitch": critical_predicates_for_tests(bundle.program, failing_runs, budget)[0]}


def _score_mbfl(bundle: FaultBundle, traces: dict) -> dict:
    original = {tid: (not tr.failed, tr.signature()) for tid, tr in traces.items()}
    mutant_runs = {}
    mutant_stmt = {}
    budget = reexec_step_budget(traces.values())
    for mutant in gen_mutants(bundle.program):
        mutant_stmt[mutant.mutant_id] = mutant.element
        per_test = {}
        for test in bundle.tests:
            # A mutation stays inside its statement and the interpreter is
            # deterministic, so a test that never reaches it behaves as before.
            tid = test.test_id
            if mutant.element in traces[tid].covered:
                tr = run(mutant.program, test, step_budget=budget)
                per_test[tid] = (not tr.failed, tr.signature())
            else:
                per_test[tid] = original[tid]
        mutant_runs[mutant.mutant_id] = per_test
    matrix = mbfl.build_outcome_matrix(original, mutant_runs, mutant_stmt)
    return mbfl.aggregate_to_statement(matrix, bundle.elements)


# One scorer per row of combine.FAMILIES: (bundle, test_id -> original trace)
# -> technique -> element -> score.
SCORERS = {
    "history": _score_history,
    "stacktrace": _score_stacktrace,
    "ir": _score_ir,
    "slicing": _score_slicing,
    "sbfl": _score_sbfl,
    "predswitch": _score_predswitch,
    "mbfl": _score_mbfl,
}


def analyze_fault(bundle: FaultBundle, families: Sequence[str]) -> FaultAnalysis:
    """Run the requested FL families on one fault.

    Raises PipelineError listing families whose required inputs are absent.
    """
    missing = [
        f"{f.name} (no {f.source})"
        for name in families
        for f in cmb.FAMILIES
        if f.name == name and f.requires and getattr(bundle, f.requires) is None
    ]
    if missing:
        raise PipelineError(f"fault {bundle.fault_id}: missing family data: {missing}")

    analysis = FaultAnalysis(bundle)
    t0 = time.perf_counter()
    traces = {t.test_id: run(bundle.program, t) for t in bundle.tests}
    analysis.timings["testruns"] = time.perf_counter() - t0
    if not any(tr.failed for tr in traces.values()):
        raise PipelineError(f"fault {bundle.fault_id}: no failing test")

    for family in families:
        if family not in SCORERS:
            raise PipelineError(f"unknown family {family!r}")
        t0 = time.perf_counter()
        analysis.scores.update(SCORERS[family](bundle, traces))
        analysis.timings[family] = time.perf_counter() - t0
    return analysis


def _granular(analysis: FaultAnalysis, granularity: str):
    """(universe, faulty, technique -> scores) at the requested granularity."""
    bundle = analysis.bundle
    if granularity == "statement":
        return tuple(bundle.elements), set(bundle.faulty), analysis.scores
    if granularity != "method":
        raise PipelineError(f"unknown granularity {granularity!r}")
    method_of = {e: e.method_id for e in bundle.elements}
    universe = tuple(dict.fromkeys(method_of.values()))
    faulty = {method_of[e] for e in bundle.faulty}
    lifted = {
        tech: lift_to_method_granularity(scored, method_of)
        for tech, scored in analysis.scores.items()
    }
    return universe, faulty, lifted


def _summary(values: Mapping[str, Optional[Fraction]], sizes: Mapping[str, int]):
    """Aggregate per-fault expected ranks; unlocalized faults count against @n
    and are excluded from the EXAM mean (expected rank / universe size)."""
    parts = [(fid, v.numerator, v.denominator) for fid, v in values.items() if v is not None]
    exam_total = 0.0
    for fid, num, den in parts:
        exam_total += num / (den * sizes[fid])  # rounds once; sum() compensates from 3.12
    ceilings = [-(-num // den) for _, num, den in parts]  # v <= n iff ceil(v) <= n
    return {
        "e_inspect": {
            fid: (str(v) if v is not None else None) for fid, v in sorted(values.items())
        },
        "at": {str(n): e_inspect_at_n(ceilings, n) for n in AT_N},
        "exam_mean": exam_total / len(parts) if parts else None,
        "not_localized": len(values) - len(parts),
    }


def analyze_corpus(bundles: Sequence[FaultBundle], level: int) -> list:
    """Stage 1: every family of the preset on every fault."""
    families = cmb.preset_families(level)
    return [analyze_fault(b, families) for b in bundles]


def technique_ranks(
    analyses: Sequence[FaultAnalysis], techniques: Sequence[str], granularity: str
) -> tuple:
    """Stage 2: (technique -> fault_id -> exact expected rank, fault_id ->
    universe size). A fault with no scores for a technique is not localized
    by it (None)."""
    values: dict = {t: {} for t in techniques}
    sizes: dict = {}
    for analysis in analyses:
        fid = analysis.bundle.fault_id
        try:
            universe, faulty, scores = _granular(analysis, granularity)
            for tech in techniques:
                scored = scores.get(tech)
                values[tech][fid] = None if scored is None else expected_first_faulty_rank(
                    full_universe_ranking(scored, universe), faulty
                )
        except ModelError as exc:
            raise PipelineError(f"fault {fid}: {exc}") from None
        sizes[fid] = len(universe)
    return values, sizes


def corpus_features(
    analyses: Sequence[FaultAnalysis], techniques: Sequence[str], granularity: str
) -> list:
    """Stage 3 input: one normalized feature matrix per fault."""
    features = []
    for analysis in analyses:
        universe, faulty, scores = _granular(analysis, granularity)
        bundle = analysis.bundle
        features.append(
            cmb.build_features(
                bundle.fault_id, scores, universe, faulty, techniques, bundle.project
            )
        )
    return features


def _cross_validate(
    features, sizes, families, cv: str, k: int, seed: int, with_ablation: bool
):
    """Stage 3: summaries of the cross-validated combination and of each
    leave-one-family-out combination."""

    def summarize(feats):
        if cv == "kfold":
            values = cmb.kfold_cv(feats, k=k, seed=seed)
        elif cv == "cross-project":
            values = cmb.cross_project_cv(feats, seed=seed)
        else:
            raise PipelineError(f"unknown cv method {cv!r}")
        return _summary(values, sizes)

    combined = summarize(features)
    ablation = {}
    if with_ablation and len(families) > 1:
        techniques = features[0].techniques
        for family in (f for f in cmb.FAMILIES if f.name in families):
            dropped = [techniques.index(t) for t in family.techniques]
            if all(len({row[i] for row in f.matrix}) == 1 for f in features for i in dropped):
                # Columns constant within every fault give all-zero pair
                # differences, which `train` drops: the fits would be the
                # combined ones, with weight 0.0 on these columns.
                ablation[family.name] = combined
                continue
            kept = [t for t in techniques if t not in family.techniques]
            columns = [techniques.index(t) for t in kept]
            reduced = [
                replace(f, techniques=tuple(kept), matrix=tuple(tuple(r[i] for i in columns) for r in f.matrix))
                for f in features
            ]
            ablation[family.name] = summarize(reduced)
    return combined, ablation


def evaluate_corpus(
    bundles: Sequence[FaultBundle],
    level: int = 2,
    granularity: str = "statement",
    seed: int = 0,
    k: int = 10,
    cv: str = "kfold",
    with_ablation: bool = True,
) -> dict:
    """Run every family of the preset on every fault, combine, and summarize."""
    families = cmb.preset_families(level)
    techniques = cmb.preset_techniques(level)
    analyses = analyze_corpus(bundles, level)
    values, sizes = technique_ranks(analyses, techniques, granularity)
    features = corpus_features(analyses, techniques, granularity)
    combined, ablation = _cross_validate(features, sizes, families, cv, k, seed, with_ablation)

    timings: dict = {}
    for analysis in analyses:
        for family, seconds in analysis.timings.items():
            timings[family] = timings.get(family, 0.0) + seconds

    return {
        "preset": level,
        "granularity": granularity,
        "seed": seed,
        "cv": cv,
        "k": k,
        "faults": sorted(b.fault_id for b in bundles),
        "techniques": {t: _summary(values[t], sizes) for t in techniques},
        "combined": combined,
        "ablation": ablation,
        "correlation": correlation_matrix(values),
        "timings": timings,
    }


def correlation_matrix(per_tech_values: Mapping[str, Mapping], q: int = 100) -> dict:
    """Pairwise r^2 (and p-values) of per-fault expected ranks; undefined pairs are null.
    Each distinct rank column is scaled to integers once, over all its faults; techniques
    with equal columns share one row and column, as their pairs hold the same integers."""
    techniques = sorted(per_tech_values)
    column_of = {}  # rank column -> its index in ranks
    same = []  # per technique: the index of its column in ranks
    ranks = []  # per distinct column: (fault -> scaled rank, faults within q, unranked, all faults)
    for tech in techniques:
        values = per_tech_values[tech]
        column = frozenset(values.items())
        if column not in column_of:
            column_of[column] = len(ranks)
            ranked = {f: v for f, v in values.items() if v is not None}
            ints, den = scale_to_integers(list(ranked.values()))
            near = {f for f, x in zip(ranked, ints) if x <= q * den}
            ranks.append((dict(zip(ranked, ints)), near, values.keys() - ranked.keys(), values.keys()))
        same.append(column_of[column])
    r2 = [[None] * len(ranks) for _ in ranks]
    pv = [[None] * len(ranks) for _ in ranks]
    for i, (xa, near_a, none_a, keys_a) in enumerate(ranks):
        for j in range(i, len(ranks)):
            xb, near_b, none_b, keys_b = ranks[j]
            kept = [f for f in near_a | near_b if f in xa and f in xb]
            if len(kept) < 3 or not none_a.isdisjoint(keys_b) or not none_b.isdisjoint(keys_a):
                continue
            try:
                r2[i][j], pv[i][j] = r2[j][i], pv[j][i] = integer_r_squared(
                    [xa[f] for f in kept], [xb[f] for f in kept]
                )
            except CorrelationUndefinedError:
                pass
    r2, pv = ([[matrix[a][b] for b in same] for a in same] for matrix in (r2, pv))
    return {"techniques": techniques, "r2": r2, "p": pv}


def evaluate_score_records(
    records: Sequence[ScoreRecord],
    bundles: Sequence[FaultBundle],
    granularity: str = "statement",
) -> dict:
    """Metrics for externally supplied suspiciousness scores, ranked as
    `evaluate` ranks; a fault a technique never scores is not localized."""
    by_id = {b.fault_id: FaultAnalysis(b) for b in bundles}
    for record in records:
        if record.fault_id not in by_id:
            raise PipelineError(f"score record references unknown fault {record.fault_id!r}")
        by_id[record.fault_id].scores[record.technique_id] = record.scores
    techniques = sorted({r.technique_id for r in records})
    values, sizes = technique_ranks(list(by_id.values()), techniques, granularity)
    return {
        "granularity": granularity,
        "faults": sorted(by_id),
        "techniques": {t: _summary(values[t], sizes) for t in techniques},
    }


# --- report emission -------------------------------------------------------


def emit_report(results: dict, fmt: str = "text-table") -> str:
    if fmt == "json":
        return json.dumps(results, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        return _emit_csv(results)
    if fmt == "text-table":
        return _emit_text(results)
    raise PipelineError(f"unknown report format {fmt!r}")


def _metric_rows(results: dict):
    rows = list(results.get("techniques", {}).items())
    if results.get("combined"):
        rows.append(("combined", results["combined"]))
    return rows


def _emit_csv(results: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["technique"] + [f"at{n}" for n in AT_N] + ["exam_mean", "not_localized"])
    for tech, summary in _metric_rows(results):
        writer.writerow(
            [tech]
            + [summary["at"][str(n)] for n in AT_N]
            + [
                "" if summary["exam_mean"] is None else f"{summary['exam_mean']:.6f}",
                summary["not_localized"],
            ]
        )
    return buf.getvalue()


def _emit_text(results: dict) -> str:
    lines = []
    header = []
    for key in ("preset", "granularity", "cv", "seed"):
        if key in results:
            header.append(f"{key}={results[key]}")
    if header:
        lines.append("  ".join(header))
        lines.append("")

    def table(title, rows):
        if not rows:
            return
        lines.append(title)
        lines.append(
            f"{'technique':<22}" + "".join(f"{'@' + str(n):>6}" for n in AT_N) + f"{'EXAM':>10}{'miss':>6}"
        )
        for tech, summary in rows:
            exam = summary["exam_mean"]
            lines.append(
                f"{tech:<22}"
                + "".join(f"{summary['at'][str(n)]:>6}" for n in AT_N)
                + (f"{exam:>10.4f}" if exam is not None else f"{'-':>10}")
                + f"{summary['not_localized']:>6}"
            )
        lines.append("")

    table("Technique performance", _metric_rows(results))
    table(
        "Leave-one-family-out",
        [(f"w/o {family}", s) for family, s in results.get("ablation", {}).items()],
    )
    corr = results.get("correlation")
    if corr:
        lines.append("Correlation (r^2)")
        techs = corr["techniques"]
        lines.append(f"{'':<22}" + "".join(f"{t[:10]:>12}" for t in techs))
        for i, ta in enumerate(techs):
            cells = []
            for j in range(len(techs)):
                v = corr["r2"][i][j]
                cells.append(f"{v:>12.3f}" if v is not None else f"{'-':>12}")
            lines.append(f"{ta:<22}" + "".join(cells))
        lines.append("")
    if results.get("timings"):
        lines.append("Timings (s)")
        for family, seconds in sorted(results["timings"].items()):
            lines.append(f"{family:<22}{seconds:>10.3f}")
        lines.append("")
    return "\n".join(lines) + "\n"
