"""Layer spans for the flkit benchmark, recorded from outside the program.

The tracer replaces the names that ``flkit.pipeline``, ``flkit.predswitch``,
``flkit.combine``, ``flkit.corpus``, ``flkit.mbfl`` and ``flkit.sbfl`` look up
at call time with timing wrappers, and puts the originals back on exit.
Nothing inside ``src/`` changes. A span is one call into a layer; spans nest,
and the time of the outermost (root) spans is the time attributed to layers.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Per-layer metrics in the order they are reported: (name, unit, source).
# A source is ("span", span) for seconds per pass inside a span,
# ("calls", span) for its call count, ("count", counter) for a counter the
# wrappers keep, or "derived" for the ratios computed in ``pass_metrics``.
PER_LAYER = (
    ("mbfl.exec_s", "s", ("span", "mbfl.exec")),
    ("mbfl.exec_runs", "count", ("calls", "mbfl.exec")),
    ("mbfl.exec_steps", "count", ("count", "mbfl.exec_steps")),
    ("mbfl.budget_exhausted", "count", ("count", "mbfl.budget_exhausted")),
    ("mbfl.uncovered_runs", "count", ("count", "mbfl.uncovered_runs")),
    ("mbfl.kill_ratio", "ratio", "derived"),
    ("minilang.gen_mutants_s", "s", ("span", "minilang.gen_mutants")),
    ("minilang.mutants", "count", ("count", "minilang.mutants")),
    ("mbfl.matrix_s", "s", ("span", "mbfl.matrix")),
    ("combine.cv_s", "s", ("span", "combine.cv")),
    ("combine.train_s", "s", ("span", "combine.train")),
    ("combine.fits", "count", ("calls", "combine.train")),
    ("combine.pairs", "count", ("count", "combine.pairs")),
    ("combine.pairs_s", "s", ("span", "combine.pairs")),
    ("combine.features_s", "s", ("span", "combine.features")),
    ("combine.predict_s", "s", ("span", "combine.predict")),
    ("combine.hinge_violations", "count", ("count", "combine.hinge_violations")),
    ("predswitch.s", "s", ("span", "predswitch")),
    ("predswitch.reexecutions", "count", ("count", "predswitch.reexecutions")),
    ("predswitch.steps", "count", ("count", "predswitch.steps")),
    ("minilang.run_orig_s", "s", ("span", "minilang.run_orig")),
    ("minilang.run_orig_calls", "count", ("calls", "minilang.run_orig")),
    ("minilang.run_orig_steps", "count", ("count", "minilang.run_orig_steps")),
    ("slicing.s", "s", ("span", "slicing")),
    ("slicing.slices", "count", ("count", "slicing.slices")),
    ("sbfl.s", "s", ("span", "sbfl")),
    ("stacktrace.s", "s", ("span", "stacktrace")),
    ("irhist.ir_s", "s", ("span", "irhist.ir")),
    ("irhist.history_s", "s", ("span", "irhist.history")),
    ("metrics.rank_s", "s", ("span", "metrics.rank")),
    ("metrics.summary_s", "s", ("span", "metrics.summary")),
    ("metrics.correlation_s", "s", ("span", "metrics.correlation")),
    ("pipeline.emit_s", "s", ("span", "pipeline.emit")),
    ("corpus.load_s", "s", ("span", "corpus.load")),
    ("minilang.parse_s", "s", ("span", "minilang.parse")),
    ("pipeline.other_s", "s", "derived"),
    ("trace.self_s", "s", "derived"),
    ("trace.attributed_share", "ratio", "derived"),
    ("trace.overhead_ratio", "ratio", "derived"),
)

# Counts that must repeat exactly between passes and runs of one seed.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")

# Patched names: (module, attribute, span, hook). A span of None is chosen
# per call by ``_span_<hook>``; ``_after_<hook>`` keeps counters after the
# timed call. ``flkit.pipeline.run`` is mutant execution when it runs a
# mutant program, and ``propagate_file_scores`` belongs to whichever of ir
# and history called it.
_PATCHES = (
    ("flkit.corpus", "parse", "minilang.parse", None),
    ("flkit.corpus", "load_corpus", "corpus.load", None),
    ("flkit.pipeline", "run", None, "run"),
    ("flkit.pipeline", "gen_mutants", "minilang.gen_mutants", "gen_mutants"),
    ("flkit.mbfl", "build_outcome_matrix", "mbfl.matrix", None),
    ("flkit.mbfl", "aggregate_to_statement", "mbfl.matrix", None),
    ("flkit.sbfl", "build_spectrum", "sbfl", None),
    ("flkit.sbfl", "spectrum_scores", "sbfl", None),
    ("flkit.pipeline", "backward_slice", "slicing", "slice"),
    ("flkit.pipeline", "combine_slices", "slicing", None),
    ("flkit.pipeline", "score_stack_traces", "stacktrace", None),
    ("flkit.pipeline", "critical_predicates_for_tests", "predswitch", "predswitch"),
    ("flkit.predswitch", "run", "predswitch.run", "predswitch_run"),
    ("flkit.pipeline", "ir_rank_files", "irhist.ir", "irhist"),
    ("flkit.pipeline", "history_rank_files", "irhist.history", "irhist"),
    ("flkit.pipeline", "propagate_file_scores", None, "propagate"),
    ("flkit.pipeline", "full_universe_ranking", "metrics.rank", None),
    ("flkit.pipeline", "expected_first_faulty_rank", "metrics.rank", None),
    ("flkit.pipeline", "_summary", "metrics.summary", None),
    ("flkit.pipeline", "correlation_matrix", "metrics.correlation", None),
    ("flkit.pipeline", "emit_report", "pipeline.emit", None),
    ("flkit.combine", "build_features", "combine.features", None),
    ("flkit.combine", "kfold_cv", "combine.cv", None),
    ("flkit.combine", "cross_project_cv", "combine.cv", None),
    ("flkit.combine", "build_pairwise_constraints", "combine.pairs", "pairs"),
    ("flkit.combine", "train", "combine.train", "train"),
    ("flkit.combine", "combined_e_inspect", "combine.predict", None),
)


class Tracer:
    """Span totals and counters for one pass; install() patches flkit's names."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.seconds = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.root_seconds = 0.0
        self.self_seconds = 0.0  # the tracer's own time around root spans
        self._depth = 0
        self._mutants = {}  # id(mutant program) -> Mutant
        self._original = {}  # id(test) -> (covered, (passed, signature))
        self._irhist = "irhist.ir"

    # -- patching --

    def install(self):
        for module_name, attr, span, hook in _PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(span, hook, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @contextmanager
    def span(self, name):
        """A span around benchmark-side code, accounted like a wrapped call.

        Wrapped calls inside it that carry the same span name are part of
        its time, so their own additions are dropped rather than counted twice.
        """
        depth = self._depth
        self._depth = depth + 1
        before = self.seconds[name]
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self._depth = depth
            self.seconds[name] = before + dt
            self.calls[name] += 1
            if not depth:
                self.root_seconds += dt

    def _wrapper(self, span, hook, fn):
        after = getattr(self, f"_after_{hook}", None)
        choose = getattr(self, f"_span_{hook}", None)

        def traced(*args, **kwargs):
            t_in = perf_counter()
            name = span or choose(args)
            depth = self._depth
            self._depth = depth + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._depth = depth
                self.seconds[name] += dt
                self.calls[name] += 1
                if not depth:
                    self.root_seconds += dt
            if after is not None:
                after(name, args, kwargs, result)
            if not depth:
                self.self_seconds += perf_counter() - t_in - dt
            return result

        return traced

    # -- per-name bookkeeping, outside the timed call --

    def _span_run(self, args):
        return "mbfl.exec" if id(args[0]) in self._mutants else "minilang.run_orig"

    def _after_run(self, name, args, kwargs, trace):
        test = args[1]
        steps = len(trace.events)
        outcome = (not trace.failed, trace.signature())
        if name == "minilang.run_orig":
            self.counts["minilang.run_orig_steps"] += steps
            self._original[id(test)] = (trace.covered, outcome)
            return
        covered, original = self._original[id(test)]
        self.counts["mbfl.exec_steps"] += steps
        self.counts["mbfl.budget_exhausted"] += trace.outcome.crash_kind == "budget"
        self.counts["mbfl.uncovered_runs"] += (
            self._mutants[id(args[0])].element not in covered
        )
        self.counts["mbfl.killed"] += outcome != original

    def _after_gen_mutants(self, name, args, kwargs, mutants):
        self._mutants = {id(m.program): m for m in mutants}
        self.counts["minilang.mutants"] += len(mutants)

    def _after_slice(self, name, args, kwargs, result):
        self.counts["slicing.slices"] += 1

    def _after_predswitch(self, name, args, kwargs, result):
        self.counts["predswitch.reexecutions"] += result[1]

    def _after_predswitch_run(self, name, args, kwargs, trace):
        self.counts["predswitch.steps"] += len(trace.events)

    def _after_irhist(self, name, args, kwargs, result):
        self._irhist = name

    def _span_propagate(self, args):
        return self._irhist

    def _after_pairs(self, name, args, kwargs, pairs):
        self.counts["combine.pairs"] += len(pairs)

    def _after_train(self, name, args, kwargs, model):
        pairs = args[0]
        diffs = np.array([np.asarray(f) - np.asarray(c) for f, c in pairs])
        margins = diffs @ model.weights
        self.counts["combine.hinge_violations"] += int(np.sum(margins < model.margin))

    def snapshot(self, wall: float) -> dict:
        """This pass's spans, counts and wall time, as plain dicts."""
        return {
            "wall": wall,
            "root": self.root_seconds,
            "self": self.self_seconds,
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def pass_metrics(snap: dict) -> dict:
    """Per-layer metric values of one traced pass (without the overhead ratio)."""
    out = {}
    for name, _unit, source in PER_LAYER:
        if source == "derived":
            continue
        kind, key = source
        if kind == "span":
            out[name] = snap["seconds"].get(key, 0.0)
        elif kind == "calls":
            out[name] = snap["calls"].get(key, 0)
        else:
            out[name] = snap["counts"].get(key, 0)
    runs = snap["calls"].get("mbfl.exec", 0)
    out["mbfl.kill_ratio"] = snap["counts"].get("mbfl.killed", 0) / runs if runs else 0.0
    out["trace.self_s"] = snap["self"]
    traced = snap["wall"] - snap["self"]
    out["pipeline.other_s"] = traced - snap["root"]
    out["trace.attributed_share"] = snap["root"] / traced
    return out
