"""Golden regression files: refactors must leave results byte-identical.

Rewrite the files (only when a change is meant to alter results, and say so
in CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from flkit.cli import main as cli_main
from flkit.corpus import load_corpus
from flkit.minilang import gen_mutants, interp, run
from flkit.minilang.interp import reexec_step_budget
from flkit.minilang.parse import iter_exprs
from flkit.pipeline import emit_report, evaluate_corpus
from flkit.predswitch import INSTANCE_BUDGET

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
# Report file -> evaluate_corpus options (statement granularity unless named).
REPORT_FILES = {
    GOLDEN / "report_level3.json": {"level": 3},
    GOLDEN / "report_level4.json": {"level": 4},
    GOLDEN / "report_level4_method.json": {"level": 4, "granularity": "method"},
    GOLDEN / "report_level2_cross_project_seed1.json": {
        "level": 2, "cv": "cross-project", "seed": 1,
    },
}
MUTANTS_FILE = GOLDEN / "mutants.tsv"
TRACES_FILE = GOLDEN / "traces.tsv"
WEIGHTS_FILE = GOLDEN / "weights.json"
LOCALIZE_FILE = GOLDEN / "localize_level4.txt"
# Weights key -> `flkit combine --seed 0` arguments.
WEIGHT_RUNS = {
    "level4-statement": ["--preset", "level4"],
    "level2-method": ["--preset", "level2", "--granularity", "method"],
}


def report_text(bundles, **options) -> str:
    """Report as JSON, without the run-dependent timings."""
    results = evaluate_corpus(bundles, **options)
    del results["timings"]
    return emit_report(results, "json")


def combine_weights(key: str) -> dict:
    """Techniques and `float.hex` weights of the model `flkit combine` saves."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        argv = ["combine", "--corpus", str(CORPUS), "--seed", "0", "--save", str(path)]
        assert cli_main(argv + WEIGHT_RUNS[key]) == 0
        model = json.loads(path.read_text())
    return {
        "techniques": model["techniques"],
        "weights": [float(w).hex() for w in model["weights"]],
    }


def weights_text() -> str:
    """WEIGHTS_FILE's text: combine_weights for every key of WEIGHT_RUNS."""
    weights = {key: combine_weights(key) for key in sorted(WEIGHT_RUNS)}
    return json.dumps(weights, indent=2) + "\n"


def localize_text(bundles) -> str:
    """`flkit localize --preset level4` for every fault, each technique
    listing the fault's whole universe."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for bundle in bundles:
            print(f"### {bundle.fault_id}")
            argv = ["localize", "--corpus", str(CORPUS), "--fault", bundle.fault_id]
            top = str(len(bundle.elements))
            assert cli_main(argv + ["--preset", "level4", "--top", top]) == 0
    return out.getvalue()


def _render(node) -> str:
    if dataclasses.is_dataclass(node):
        inner = ", ".join(
            f"{f.name}={_render(getattr(node, f.name))}" for f in dataclasses.fields(node)
        )
        return f"{type(node).__name__}({inner})"
    if isinstance(node, list):
        return "[" + ", ".join(_render(n) for n in node) + "]"
    return repr(node)


def mutants_text(bundles) -> str:
    """One tab-separated line per mutant, with a digest of its statements."""
    lines = []
    for bundle in bundles:
        for m in gen_mutants(bundle.program):
            rendered = "\n".join(_render(s) for s in m.program.statements())
            digest = hashlib.sha256(rendered.encode()).hexdigest()[:16]
            lines.append(
                "\t".join(
                    (bundle.fault_id, m.mutant_id, str(m.element), m.operator, m.description, digest)
                )
            )
    return "\n".join(lines) + "\n"


def trace_text(trace) -> str:
    """Every field of an ExecutionTrace, in a canonical order."""
    outcome = trace.outcome
    lines = [
        repr((trace.test_id, outcome.status, outcome.crash_kind, outcome.stack)),
        " ".join(sorted(e.key for e in trace.covered)),
    ]
    lines += [f"{ev.element.key} {sorted(ev.deps)} {ev.control}" for ev in trace.events]
    lines.append(repr(trace.predicate_instances))
    lines.append(repr((trace.criterion_event, trace.value, trace.flip_applied, trace.signature())))
    return "\n".join(lines) + "\n"


def fault_runs(bundle) -> dict:
    """Run kind -> the traces the families take: each test's original run,
    each mutant on each test that covers its statement, and each predicate
    flip of each failing test, both at the fault's re-execution budget."""
    program, tests = bundle.program, bundle.tests
    originals = [run(program, t) for t in tests]
    budget = reexec_step_budget(originals)
    mutants = [
        run(m.program, t, step_budget=budget)
        for m in gen_mutants(program)
        for t, tr in zip(tests, originals)
        if m.element in tr.covered
    ]
    flips = [
        run(program, t, flip=position, step_budget=budget)
        for t, tr in zip(tests, originals)
        if tr.failed
        for position in tr.predicate_instances[:INSTANCE_BUDGET]
    ]
    return {"original": originals, "mutant": mutants, "flip": flips}


def traces_text(bundles) -> str:
    """One tab-separated line per (fault, run kind): run count and a SHA-256
    over the canonical text of its traces."""
    lines = []
    for bundle in bundles:
        for kind, traces in fault_runs(bundle).items():
            digest = hashlib.sha256()
            for trace in traces:
                digest.update(trace_text(trace).encode())
            lines.append("\t".join((bundle.fault_id, kind, str(len(traces)), digest.hexdigest())))
    return "\n".join(lines) + "\n"


def check_report(name: str):
    path = GOLDEN / name
    assert report_text(load_corpus(CORPUS), **REPORT_FILES[path]) == path.read_text()


def test_report_matches_golden():
    check_report("report_level3.json")


def test_level4_report_matches_golden():
    check_report("report_level4.json")


def test_level4_method_report_matches_golden():
    check_report("report_level4_method.json")


def test_cross_project_report_matches_golden():
    check_report("report_level2_cross_project_seed1.json")


@pytest.mark.parametrize("key", sorted(WEIGHT_RUNS))
def test_combine_weights_match_golden(key):
    assert combine_weights(key) == json.loads(WEIGHTS_FILE.read_text())[key]


def test_localize_matches_golden():
    assert localize_text(load_corpus(CORPUS)) == LOCALIZE_FILE.read_text()


def test_mutants_match_golden():
    bundles = load_corpus(CORPUS)
    text = mutants_text(bundles)
    assert len(text.splitlines()) == 203
    assert text == MUTANTS_FILE.read_text()


def test_mutants_copy_only_their_path():
    """gen_mutants leaves the original as it was, node for node, and a mutant
    shares with it every node except the mutated one and that node's ancestors:
    a node is shared exactly when it renders the same."""
    for bundle in load_corpus(CORPUS):
        program = bundle.program
        statements = program.statements()
        nodes = statements + [e for s in statements for e in iter_exprs(s)]
        before = [_render(node) for node in nodes]
        mutants = gen_mutants(program)
        after = program.statements()
        assert list(map(id, after + [e for s in after for e in iter_exprs(s)])) == list(map(id, nodes))
        assert [_render(node) for node in nodes] == before
        for m in mutants:
            copies = {s.elem: s for s in m.program.statements()}
            for stmt in statements:
                copy = copies.get(stmt.elem)
                if copy is None:
                    assert (m.operator, m.element) == ("sdl", stmt.elem)
                    continue
                assert (copy is stmt) == (_render(copy) == _render(stmt))
                exprs = list(iter_exprs(copy))
                if m.operator == "ncd" and stmt.elem == m.element:
                    exprs = exprs[1:]  # past the added negation
                for node, copied in zip(iter_exprs(stmt), exprs, strict=True):
                    assert (copied is node) == (_render(copied) == _render(node))


def test_original_runs_alike_after_its_mutants():
    """Programs share the code cached on their shared nodes: an original test
    run after every mutant has run on every test, and so compiled what they
    share, gives the same trace as a run on a fresh parse."""
    for fresh, bundle in zip(load_corpus(CORPUS), load_corpus(CORPUS)):
        originals = [run(fresh.program, t) for t in fresh.tests]
        budget = reexec_step_budget(originals)
        for mutant in gen_mutants(bundle.program):
            for t in bundle.tests:
                run(mutant.program, t, step_budget=budget)
        again = [run(bundle.program, t) for t in bundle.tests]
        assert list(map(trace_text, again)) == list(map(trace_text, originals))


def recording_runs(bundle) -> dict:
    """fault_runs with every run recording dependences as an original does.
    Only the recording changes: the overflow stop still ends re-executions."""
    init, stop = interp._Interp.__init__, interp._Interp.repeat_crash

    def records(self, *args, **options):
        init(self, *args, **options)
        self.reexec = False

    def stops(self, *args):
        self.reexec = self.step_budget < interp.STEP_BUDGET
        try:
            return stop(self, *args)
        finally:
            self.reexec = False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp._Interp, "__init__", records)
        patch.setattr(interp._Interp, "repeat_crash", stops)
        return fault_runs(bundle)


def without_deps(trace) -> tuple:
    """Every field of a trace but its events' deps."""
    return (
        trace.outcome, trace.signature(), trace.value, trace.criterion_event, trace.flip_applied,
        trace.covered, trace.predicate_instances, [(ev.element, ev.control) for ev in trace.events],
    )


def test_reexecutions_record_no_deps():
    """Every mutant and flip run at the re-execution budget is its recording
    run but for its events' deps, which are all empty; originals record."""
    counts, recorded = {"mutant": 0, "flip": 0}, 0
    for bundle in load_corpus(CORPUS):
        runs, reference = fault_runs(bundle), recording_runs(bundle)
        assert runs["original"] == reference["original"]
        for kind in counts:
            for tr, full in zip(runs[kind], reference[kind], strict=True):
                assert without_deps(tr) == without_deps(full)
                assert all(ev.deps == frozenset() for ev in tr.events)
                recorded += any(ev.deps for ev in full.events)
            counts[kind] += len(runs[kind])
    assert counts == {"mutant": 932, "flip": 82}
    assert recorded == 793  # runs whose recording holds a dependence


def traces_by_run(text: str) -> dict:
    """(fault, run kind) -> (run count, digest), from traces_text lines."""
    rows = (line.split("\t") for line in text.splitlines())
    return {(fault, kind): (count, digest) for fault, kind, count, digest in rows}


def test_traces_match_golden():
    text = traces_text(load_corpus(CORPUS))
    golden = TRACES_FILE.read_text()
    assert sum(int(line.split("\t")[2]) for line in text.splitlines()) == 1068
    # Keyed by (fault, kind) first, so a failure names the lines that differ.
    assert traces_by_run(text) == traces_by_run(golden)
    assert text == golden


SEEDED_FILES = (TRACES_FILE, GOLDEN / "report_level4.json", WEIGHTS_FILE, LOCALIZE_FILE)


def seeded_texts() -> list:
    """The contents SEEDED_FILES should have, computed in this process."""
    bundles = load_corpus(CORPUS)
    return [
        traces_text(bundles),
        report_text(bundles, **REPORT_FILES[GOLDEN / "report_level4.json"]),
        weights_text(),
        localize_text(bundles),
    ]


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_traces_do_not_depend_on_hash_seed(hash_seed):
    """String hashing, and so the order of any set of names or elements,
    changes with PYTHONHASHSEED; no trace, report or weight may."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
    code = "import json; from test_golden import seeded_texts; print(json.dumps(seeded_texts()))"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == [golden.read_text() for golden in SEEDED_FILES]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    bundles = load_corpus(CORPUS)
    for path, options in REPORT_FILES.items():
        path.write_text(report_text(bundles, **options))
    MUTANTS_FILE.write_text(mutants_text(bundles))
    TRACES_FILE.write_text(traces_text(bundles))
    WEIGHTS_FILE.write_text(weights_text())
    LOCALIZE_FILE.write_text(localize_text(bundles))
