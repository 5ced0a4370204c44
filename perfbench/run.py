"""flkit benchmark: evaluate throughput and localize latency, with layer spans.

    python3 perfbench/run.py --workload eval-l4 --seed 1 --seconds 35 --trace 0

Run from the root of a flkit checkout; the program is imported from ``src/``
and the committed ``corpus/`` is the input. One process generates the load,
single-threaded, as a closed loop with one client: each operation starts when
the previous one has returned. A run measures for ``--seconds`` seconds in
whole passes, checks every output, and prints one JSON object as its last
line. ``--trace 0`` reports the end-to-end metrics, with times at the
reference CPU speed of ``probe.py`` and the raw times on ``# raw`` lines.
``--trace 1`` reports the per-layer metrics of ``tracer.PER_LAYER``, from
passes that alternate between untraced and traced.

Workloads (all on the ten-fault corpus):
  eval-l4      evaluate_corpus(level=4, cv="kfold") with ablation, emitted as
               JSON; the only workload that runs mutants.
  eval-l1to3   levels 1, 2 and 3, each under kfold and cross-project CV, with
               ablation and JSON emission; training dominates, no mutants.
  localize-l3  per fault: analyze_fault(level 3), then the full-universe
               ranking and expected rank of every technique, as
               ``flkit localize --preset level3`` computes them.

The seed is the evaluate_corpus CV seed and orders the faults localize-l3
visits in each pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from probe import Probe
from tracer import COUNTS, PER_LAYER, Tracer, pass_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"

SETUP_REPEATS = 3
# A fresh process imports flkit and loads the corpus under the speed probe,
# and prints its raw and its reference-speed seconds.
SETUP_CODE = """
import sys
from time import perf_counter
sys.path.insert(0, sys.argv[1])
from probe import Probe
with Probe() as probe:
    t0 = perf_counter()
    sys.path.insert(0, sys.argv[2])
    import flkit
    from flkit.corpus import load_corpus
    load_corpus(sys.argv[3])
    t1 = perf_counter()
print(t1 - t0, probe.corrected(t0, t1))
"""
SETUP_TIMEOUT_S = 60

AT_N = ("1", "3", "5", "10")

# Spans every traced run of a workload must record calls for.
_LOCALIZE_SPANS = (
    "corpus.load",
    "minilang.parse",
    "minilang.run_orig",
    "sbfl",
    "slicing",
    "stacktrace",
    "predswitch",
    "predswitch.run",
    "irhist.ir",
    "irhist.history",
    "metrics.rank",
)
_EVAL_SPANS = _LOCALIZE_SPANS + (
    "metrics.summary",
    "metrics.correlation",
    "combine.features",
    "combine.cv",
    "combine.pairs",
    "combine.train",
    "combine.predict",
    "pipeline.emit",
)
_MBFL_SPANS = ("minilang.gen_mutants", "mbfl.exec", "mbfl.matrix")

# name -> (evaluate calls per pass as (level, cv), or None for localize-l3;
#          spans expected to record calls)
WORKLOADS = {
    "eval-l4": (((4, "kfold"),), _EVAL_SPANS + _MBFL_SPANS),
    "eval-l1to3": (
        tuple((level, cv) for level in (1, 2, 3) for cv in ("kfold", "cross-project")),
        _EVAL_SPANS,
    ),
    "localize-l3": (None, _LOCALIZE_SPANS),
}


class BenchError(Exception):
    pass


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(raw, reference-speed) seconds a fresh interpreter takes to import
    flkit and load the corpus."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(HERE), str(SRC), str(CORPUS)]
    samples = []
    for _ in range(repeats):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"set-up process took over {SETUP_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
        raw, corrected = proc.stdout.split()
        samples.append((float(raw), float(corrected)))
    return samples


class EvalBench:
    """A pass is every evaluate call of the workload, each emitted as JSON.

    Every report must give each fault and technique an expected rank within
    the fault's universe or count it as not localized, keep @1 <= @3 <= @5 <=
    @10 <= faults, and equal the first pass's report apart from timings.
    """

    def __init__(self, pipeline, combine, bundles, calls, seed):
        self.pipeline = pipeline
        self.combine = combine
        self.bundles = bundles
        self.calls = calls
        self.seed = seed
        self.faults = sorted(b.fault_id for b in bundles)
        self.universe = {b.fault_id: len(b.elements) for b in bundles}
        self.first = {}  # (level, cv) -> canonical report minus timings
        self.latencies = []  # (fault id, start, end) per analyze_fault call
        self._time_analyze()

    def _time_analyze(self):
        """Record the latency of every per-fault analyze_fault call."""
        pipeline, inner, latencies = self.pipeline, self.pipeline.analyze_fault, self.latencies

        def analyze_fault(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append((args[0].fault_id, t0, perf_counter()))

        pipeline.analyze_fault = analyze_fault

    @property
    def faults_per_pass(self) -> int:
        return len(self.bundles) * len(self.calls)

    def warm_up(self):
        self.pipeline.evaluate_corpus(self.bundles, level=1, seed=self.seed, with_ablation=False)
        self.latencies.clear()

    def run_pass(self, tracer=None) -> list:
        outputs = []
        for level, cv in self.calls:
            try:
                results = self.pipeline.evaluate_corpus(
                    self.bundles, level=level, cv=cv, seed=self.seed
                )
                outputs.append(self.pipeline.emit_report(results, "json"))
            except Exception:
                traceback.print_exc()
                outputs.append(None)
        return outputs

    def check_pass(self, outputs) -> int:
        failed = 0
        for (level, cv), text in zip(self.calls, outputs):
            try:
                problems = ["raised"] if text is None else self._problems(level, cv, text)
            except (KeyError, TypeError, ValueError) as exc:
                problems = [f"malformed report: {exc!r}"]
            if problems:
                failed += 1
                print(f"# FAILED level={level} cv={cv}: {'; '.join(problems)}", file=sys.stderr)
        return failed

    def _problems(self, level, cv, text) -> list:
        report = json.loads(text)
        problems = []
        techniques = set(self.combine.preset_techniques(level))
        if set(report["techniques"]) != techniques:
            problems.append(f"techniques {sorted(report['techniques'])}")
        summaries = list(report["techniques"].items()) + [("combined", report["combined"])]
        summaries += [(f"w/o {fam}", s) for fam, s in report["ablation"].items()]
        for label, summary in summaries:
            e_inspect = summary["e_inspect"]
            if sorted(e_inspect) != self.faults:
                problems.append(f"{label}: faults {sorted(e_inspect)}")
                continue
            unlocalized = sum(v is None for v in e_inspect.values())
            if unlocalized != summary["not_localized"]:
                problems.append(f"{label}: not_localized {summary['not_localized']} != {unlocalized}")
            for fid, value in e_inspect.items():
                if value is not None and not 1 <= Fraction(value) <= self.universe[fid]:
                    problems.append(f"{label}: {fid} E_inspect {value} outside universe")
            at = [summary["at"][n] for n in AT_N]
            if at != sorted(at) or at[-1] > len(self.faults):
                problems.append(f"{label}: @n {at}")
        del report["timings"]
        canonical = json.dumps(report, indent=2, sort_keys=True) + "\n"
        first = self.first.setdefault((level, cv), canonical)
        if canonical != first:
            problems.append("report differs from the first pass")
        return problems

    def report_hashes(self) -> dict:
        return {
            f"level={level} cv={cv}": hashlib.sha256(text.encode()).hexdigest()
            for (level, cv), text in self.first.items()
        }

    def latency_samples(self, seconds) -> list:
        """Each fault's median analyze_fault latency over the run.

        Ten faults of fixed, widely spread cost make the percentiles of raw
        samples jump between faults; per-fault medians keep them steadier.
        `seconds` maps an interval (start, end) to its duration.
        """
        by_fault = {}
        for fid, t0, t1 in self.latencies:
            by_fault.setdefault(fid, []).append(seconds(t0, t1))
        return [statistics.median(v) for v in by_fault.values()]


class LocalizeBench:
    """A pass localizes every fault once, in an order drawn from the seed.

    Every technique's expected rank must equal the fault's value in
    evaluate_corpus(level=3) for the same technique.
    """

    LEVEL = 3

    def __init__(self, pipeline, combine, bundles, seed):
        self.pipeline = pipeline
        self.bundles = list(bundles)
        self.families = combine.preset_families(self.LEVEL)
        self.rng = random.Random(seed)
        techniques = pipeline.evaluate_corpus(
            bundles, level=self.LEVEL, seed=seed, with_ablation=False
        )["techniques"]
        self.reference = {
            b.fault_id: {t: s["e_inspect"][b.fault_id] for t, s in techniques.items()}
            for b in bundles
        }
        self.latencies = []  # (start, end) per localize operation

    @property
    def faults_per_pass(self) -> int:
        return len(self.bundles)

    def warm_up(self):
        self.run_pass()
        self.latencies.clear()

    def localize(self, bundle, tracer=None) -> dict:
        pipeline = self.pipeline
        analysis = pipeline.analyze_fault(bundle, self.families)
        with tracer.span("metrics.rank") if tracer else nullcontext():
            universe = bundle.elements
            faulty = set(bundle.faulty)
            return {
                tech: str(
                    pipeline.expected_first_faulty_rank(
                        pipeline.full_universe_ranking(scored, universe), faulty
                    )
                )
                for tech, scored in analysis.scores.items()
            }

    def run_pass(self, tracer=None) -> list:
        self.rng.shuffle(self.bundles)
        outputs = []
        for bundle in self.bundles:
            t0 = perf_counter()
            try:
                result = self.localize(bundle, tracer)
            except Exception:
                traceback.print_exc()
                result = None
            self.latencies.append((t0, perf_counter()))
            outputs.append((bundle.fault_id, result))
        return outputs

    def check_pass(self, outputs) -> int:
        failed = 0
        for fid, result in outputs:
            if result != self.reference[fid]:
                failed += 1
                print(f"# FAILED localize {fid}: {result} != {self.reference[fid]}", file=sys.stderr)
        return failed

    def report_hashes(self) -> dict:
        return {}

    def latency_samples(self, seconds) -> list:
        return [seconds(t0, t1) for t0, t1 in self.latencies]


def run_passes(bench, seconds: float, tracer=None):
    """Whole passes for about `seconds`; with a tracer, every other pass is traced.

    Returns (untraced passes as (start, end), traced pass snapshots,
    operations attempted, operations failed). Latencies of traced passes are
    dropped.
    """
    passes, snaps = [], []
    attempted = failed = 0
    min_passes = 2 if tracer else 1
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) > len(snaps)
        n_lat = len(bench.latencies)
        if traced:
            tracer.reset()
            tracer.install()
        t0 = perf_counter()
        try:
            outputs = bench.run_pass(tracer if traced else None)
        finally:
            t1 = perf_counter()
            if traced:
                tracer.uninstall()
        if traced:
            snaps.append(tracer.snapshot(t1 - t0))
            del bench.latencies[n_lat:]
        else:
            passes.append((t0, t1))
        attempted += len(outputs)
        failed += bench.check_pass(outputs)
        done = len(passes) + len(snaps)
        elapsed = perf_counter() - start
        # Stop at the pass boundary nearest to `seconds`.
        if done >= min_passes and elapsed + elapsed / done / 2 > seconds:
            return passes, snaps, attempted, failed


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench, seconds: float, setup: list):
    """End-to-end metrics at the reference CPU speed of probe.py.

    The raw figures are returned among the notes, for comparison.
    """
    with Probe() as probe:
        passes, _, attempted, failed = run_passes(bench, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def figures(seconds_of, setup_s):
        rates = [bench.faults_per_pass / seconds_of(t0, t1) for t0, t1 in passes]
        ms = [x * 1000 for x in bench.latency_samples(seconds_of)]
        return {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "faults_per_s": metric(statistics.median(rates), "1/s"),
            "localize_p50_ms": metric(statistics.median(ms), "ms"),
            "localize_p90_ms": metric(statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    metrics = figures(probe.corrected, [corrected for _, corrected in setup])
    raw = figures(lambda t0, t1: t1 - t0, [raw for raw, _ in setup])
    notes = {
        "passes": len(passes),
        "faults_per_pass": bench.faults_per_pass,
        "latency_samples": len(bench.latencies),
        "setup_samples": len(setup),
        "probe_samples": len(probe.seconds),
        "speed_scale_median": f"{statistics.median(probe.scale(*p) for p in passes):.4f}",
        "failed_ops": f"{failed}/{attempted} = {failed / attempted:.4f}",
    }
    notes.update({f"raw {name}": f"{m['value']:.6f} {m['unit']}" for name, m in raw.items()})
    return metrics, notes, attempted, failed


def per_layer(bench, seconds: float, corpus_module, expected: tuple, workload: str):
    tracer = Tracer()
    loads = []
    for _ in range(SETUP_REPEATS):
        tracer.reset()
        with tracer:
            t0 = perf_counter()
            corpus_module.load_corpus(CORPUS)
            loads.append(tracer.snapshot(perf_counter() - t0))
    passes, snaps, attempted, failed = run_passes(bench, seconds, tracer)

    calls = {}
    for snap in loads + snaps:
        for span, n in snap["calls"].items():
            calls[span] = calls.get(span, 0) + n
    silent = [span for span in expected if not calls.get(span)]
    if silent:
        raise BenchError(
            f"layer coverage guard: spans {silent} recorded no calls on {workload}; "
            "a name the tracer wraps is no longer called"
        )

    per_pass = [pass_metrics(s) for s in snaps]
    first = per_pass[0]
    counts_repeat = all(
        (s["calls"], s["counts"]) == (snaps[0]["calls"], snaps[0]["counts"]) for s in snaps
    )
    if not counts_repeat:
        print("# FAILED counts differ between traced passes", file=sys.stderr)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in COUNTS:
            value = first[name]
        elif name == "trace.overhead_ratio":
            untraced = statistics.median(t1 - t0 for t0, t1 in passes)
            value = statistics.median(s["wall"] for s in snaps) / untraced
        elif name in ("corpus.load_s", "minilang.parse_s"):
            value = statistics.median(pass_metrics(s)[name] for s in loads)
        else:
            value = statistics.median(p[name] for p in per_pass)
        metrics[name] = metric(value, unit)
    notes = {
        "traced_passes": len(snaps),
        "untraced_passes": len(passes),
        "attributed_share": f"{metrics['trace.attributed_share']['value']:.4f}",
        "failed_ops": f"{failed}/{attempted}",
    }
    return metrics, notes, attempted, failed, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flkit").is_dir() or not CORPUS.is_dir():
        print(f"error: no flkit checkout at {ROOT} (need src/flkit and corpus/)", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else measure_setup()
        sys.path.insert(0, str(SRC))
        from flkit import combine, corpus, pipeline

        calls, expected = WORKLOADS[args.workload]
        bundles = corpus.load_corpus(CORPUS)
        if calls is None:
            bench = LocalizeBench(pipeline, combine, bundles, args.seed)
        else:
            bench = EvalBench(pipeline, combine, bundles, calls, args.seed)
        bench.warm_up()
        correct = True
        if args.trace:
            metrics, notes, attempted, failed, correct = per_layer(
                bench, args.seconds, corpus, expected, args.workload
            )
        else:
            metrics, notes, attempted, failed = end_to_end(bench, args.seconds, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for label, digest in bench.report_hashes().items():
        print(f"# report_sha256 {label} (minus timings): {digest}")
    for name, m in metrics.items():
        print(f"# {name:<28} {m['value']:>14.6f} {m['unit']}")
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
