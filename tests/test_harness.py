import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from collections import Counter

from flkit import combine as cmb
from flkit import cli, mbfl, pipeline
from flkit.cli import main as cli_main
from flkit.corpus import (
    CorpusError,
    FaultBundle,
    ScoreRecord,
    ingest_scores,
    load_corpus,
    load_fault,
)
from flkit.minilang.interp import run
from flkit.minilang.mutate import gen_mutants
from flkit.minilang.parse import TestCase as MLTest, parse
from flkit.model import ProgramElement
from flkit.pipeline import (
    SCORERS,
    PipelineError,
    analyze_fault,
    emit_report,
    evaluate_corpus,
    evaluate_score_records,
    technique_ranks,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="module")
def bundles():
    return load_corpus(CORPUS)


@pytest.fixture(scope="module")
def results(bundles):
    return evaluate_corpus(bundles, level=2, seed=0, k=10, with_ablation=True)


class TestCorpusLoading:
    def test_loads_all_faults(self, bundles):
        assert len(bundles) == 10
        assert [b.fault_id for b in bundles] == sorted(b.fault_id for b in bundles)

    def test_bundle_contents(self, bundles):
        b = bundles[0]
        assert b.faulty <= set(b.elements)
        assert b.bug_report
        assert b.commits
        assert b.project

    def test_elements_computed_once_per_bundle(self, bundles):
        from dataclasses import replace

        b = bundles[0]
        assert b.elements is b.elements
        assert b.elements == tuple(b.program.elements())
        other = replace(b, program=bundles[1].program)
        assert other.elements == tuple(bundles[1].program.elements())

    def test_committed_corpus_matches_its_generator(self, tmp_path):
        tool = CORPUS.parent / "tools" / "make_corpus.py"
        subprocess.run([sys.executable, str(tool), str(tmp_path)], check=True, capture_output=True, timeout=60)
        committed = sorted(p.relative_to(CORPUS) for p in CORPUS.rglob("*") if p.is_file())
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        assert written == committed
        for path in committed:
            assert (tmp_path / path).read_bytes() == (CORPUS / path).read_bytes(), path

    def test_missing_directory(self):
        with pytest.raises(CorpusError):
            load_corpus(CORPUS / "does-not-exist")

    def test_missing_inputs(self, tmp_path):
        (tmp_path / "f1").mkdir()
        with pytest.raises(CorpusError, match="missing inputs"):
            load_fault(tmp_path / "f1")

    def test_insertion_ground_truth(self, tmp_path):
        d = tmp_path / "f1"
        d.mkdir()
        (d / "program.ml").write_text(
            "func f(x) {\n var y = x;\n return y;\n}\n"
        )
        (d / "tests.json").write_text(
            json.dumps({"tests": [{"id": "t", "entry": "f", "args": [1], "expect": 2}]})
        )
        (d / "truth.json").write_text(
            json.dumps({"insertions": [{"file": "program.ml", "after_line": 2}]})
        )
        bundle = load_fault(d)
        assert {e.line for e in bundle.faulty} == {3}

    def test_entry_arity_checked(self, tmp_path):
        write_fault(tmp_path / "f1", args=(1, 2))
        with pytest.raises(CorpusError, match="f1: test t: no function 'f' of 2 args"):
            load_fault(tmp_path / "f1")


def write_scores(records, path):
    """Write score records as the JSON lines `ingest_scores` reads."""
    with open(path, "w") as fh:
        for rec in records:
            scores = [[str(e), str(v) if math.isinf(v) else v] for e, v in rec.scores.items()]
            fh.write(json.dumps({"fault": rec.fault_id, "technique": rec.technique_id, "scores": scores}) + "\n")


def edited_corpus(tmp_path, fault, name, old, new):
    """A copy of the corpus with the one occurrence of `old` in a fault file replaced."""
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    path = corpus / fault / name
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return corpus


def write_fault(fault_dir, program="func f(x) { return x; }", entry="f", args=(1,)):
    fault_dir.mkdir()
    (fault_dir / "program.ml").write_text(program)
    (fault_dir / "tests.json").write_text(
        json.dumps({"tests": [{"id": "t", "entry": entry, "args": list(args), "expect": 2}]})
    )
    (fault_dir / "truth.json").write_text(json.dumps({"faulty": ["program.ml:1:0"]}))


class TestScoreRecords:
    def rec(self, fault="f1", tech="ochiai"):
        scored = {
            ProgramElement("program.ml", 1): 0.5,
            ProgramElement("program.ml", 2): math.inf,
            ProgramElement("program.ml", 3): -math.inf,
        }
        return ScoreRecord(fault, tech, scored)

    def test_round_trip_including_infinity(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores([self.rec()], path)
        (record,) = ingest_scores(path)
        assert record.fault_id == "f1"
        assert record.scores == self.rec().scores

    def test_duplicate_last_wins(self, tmp_path, caplog):
        path = tmp_path / "scores.jsonl"
        first = self.rec()
        second = ScoreRecord(
            "f1", "ochiai", {ProgramElement("program.ml", 9): 1.0}
        )
        write_scores([first, second], path)
        with caplog.at_level("WARNING"):
            records = ingest_scores(path)
        assert len(records) == 1
        assert records[0].scores == second.scores
        assert any("duplicate" in m for m in caplog.messages)

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"fault": "f01_absval", "technique": ["x"], "scores": []}',
            '{"fault": "f1", "technique": 5, "scores": [["a:1:0", 1.0]]}',
            '{"fault": "f1", "technique": "t", "scores": [[5, 1.0]]}',
            '{"fault": "f1", "technique": "t", "scores": [["a:1:0", 1.0], ["a:1:0", 2.0]]}',
            '{"fault": "f1", "technique": "t", "scores": [["a:1:0", NaN]]}',
            '{"fault": "f1", "technique": "t", "scores": [["a:1:0", true]]}',
            '{"fault": "f1", "technique": "t", "scores": [["a:1:0", "0.5"]]}',
            '{"fault": "f1", "technique": "t", "scores": [["a:1:0", 1%s]]}' % ("0" * 400),
        ],
        ids=[
            "not-json", "list-technique", "int-technique", "int-element", "repeated-element",
            "nan-score", "bool-score", "string-score", "huge-int-score",
        ],
    )
    def test_malformed_line_reports_line_number(self, tmp_path, line):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"fault": "f1", "technique": "a", "scores": [["a:1:0", 1.0]]}\n' + line + "\n")
        with pytest.raises(CorpusError, match=":2:"):
            ingest_scores(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores([self.rec()], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(ingest_scores(path)) == 1

    def test_any_line_ending(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores([self.rec("f1"), self.rec("f2"), self.rec("f3")], path)
        first, second, third = path.read_bytes().splitlines()
        path.write_bytes(first + b"\r" + second + b"\r\n" + third)
        assert [r.fault_id for r in ingest_scores(path)] == ["f1", "f2", "f3"]


class TestAnalyzeFault:
    def test_families_produce_expected_techniques(self, bundles):
        analysis = analyze_fault(bundles[0], ("sbfl", "slicing", "stacktrace"))
        assert set(analysis.scores) == {
            "ochiai", "dstar", "slice-union", "slice-intersection", "slice-frequency",
            "stacktrace",
        }
        assert set(analysis.timings) == {"testruns", "sbfl", "slicing", "stacktrace"}

    def test_one_scorer_per_family(self):
        assert set(SCORERS) == {f.name for f in cmb.FAMILIES}

    def test_level4_produces_exactly_the_preset(self, bundles):
        assert len(bundles) == 10
        for bundle in bundles:
            analysis = analyze_fault(bundle, cmb.preset_families(4))
            assert sorted(analysis.scores) == sorted(cmb.preset_techniques(4)), bundle.fault_id
            assert set(analysis.timings) == {"testruns", *cmb.preset_families(4)}

    def test_missing_aux_inputs_rejected(self, bundles):
        from dataclasses import replace

        stripped = replace(bundles[0], bug_report=None, commits=None)
        with pytest.raises(PipelineError, match="ir.*history"):
            analyze_fault(stripped, ("ir", "history"))

    def test_unknown_family_rejected(self, bundles):
        with pytest.raises(PipelineError):
            analyze_fault(bundles[0], ("nope",))

    def test_ochiai_places_fault_high_on_corpus(self, bundles):
        from flkit.metrics import expected_first_faulty_rank
        from flkit.model import full_universe_ranking

        hits = 0
        for b in bundles:
            analysis = analyze_fault(b, ("sbfl",))
            ranking = full_universe_ranking(analysis.scores["ochiai"], b.elements)
            if expected_first_faulty_rank(ranking, set(b.faulty)) <= 3:
                hits += 1
        assert hits >= 8


# A passing test of 9,006 steps; line 5 is a covered no-op.
COUNT = """\
func count(n) {
    var s = 0;
    var i = 0;
    while (i < n) {
        s = s + 0;
        i = i + 1;
    }
    return s;
}
"""

# Fault: the early return on line 2 fails total(200) after 2 steps,
# while the run that a flip or a mutant of it repairs takes 605 steps.
EARLY_EXIT = """\
func total(n) {
    if (n > 100) {
        return 0;
    }
    var s = 0;
    var i = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
"""


def early_exit_fault():
    program = parse(EARLY_EXIT)
    tests = (MLTest("long", "total", (200,), 19900), MLTest("mid", "total", (100,), 4950))
    traces = {t.test_id: run(program, t) for t in tests}
    assert len(traces["long"].events) == 2 and not traces["mid"].failed
    return FaultBundle("total", program, tests, frozenset()), traces


def record(monkeypatch, module, name):
    """Patch module.<name> to record each call as (args, result)."""
    real, calls = getattr(module, name), []

    def recording(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, name, recording)
    return calls


class TestMutantExecution:
    @staticmethod
    def fault(bundles, fault_id):
        """A corpus fault and its tests' original runs."""
        (bundle,) = [b for b in bundles if b.fault_id == fault_id]
        return bundle, {t.test_id: run(bundle.program, t) for t in bundle.tests}

    def test_long_test_keeps_equivalent_mutant_alive(self, monkeypatch):
        program = parse(COUNT)
        tests = (MLTest("long", "count", (3000,), 0), MLTest("bad", "count", (1,), 5))
        traces = {t.test_id: run(program, t) for t in tests}
        assert len(traces["long"].events) > 5_000
        (noop,) = [m for m in gen_mutants(program) if m.operator == "sdl" and m.element.line == 5]
        monkeypatch.setattr(pipeline, "gen_mutants", lambda _program: [noop])
        runs = record(monkeypatch, pipeline, "run")
        matrices = record(monkeypatch, mbfl, "build_outcome_matrix")
        pipeline._score_mbfl(FaultBundle("count", program, tests, frozenset()), traces)
        (args, long_run), _ = runs
        assert args[1] == tests[0]
        assert long_run.outcome == run(noop.program, tests[0]).outcome
        # "long" is the only passing test, so it is the one that did not change.
        ((_, (_, kills)),) = matrices
        assert not traces["long"].failed and traces["bad"].failed
        assert (kills[noop.mutant_id].p2f, kills[noop.mutant_id].passed_changed) == (0, 0)

    def test_changed_wrong_output_is_a_kill(self, bundles, monkeypatch):
        # f02_maxof3 m007 turns `c > m` into `c == m`: the failing t1 and t2
        # still fail, but return 1 where the original returned 2 and 3.
        bundle, traces = self.fault(bundles, "f02_maxof3")
        matrices = record(monkeypatch, mbfl, "build_outcome_matrix")
        pipeline._score_mbfl(bundle, traces)
        ((_, (total_failed, kills)),) = matrices
        m007 = kills["m007"]
        assert (traces["t1"].value, traces["t2"].value, m007.stmt.line) == (2, 3, 6)
        assert (total_failed, m007.f2p, m007.failed_changed) == (2, 0, 2)

    def test_repairing_mutant_of_early_exit_passes(self, monkeypatch):
        # The negated condition repairs the failing test, whose own 2-step run
        # would size a budget of 270 steps; the passing test's 305 steps do not.
        bundle, traces = early_exit_fault()
        (ncd,) = [m for m in gen_mutants(bundle.program) if m.operator == "ncd" and m.element.line == 2]
        monkeypatch.setattr(pipeline, "gen_mutants", lambda _program: [ncd])
        matrices = record(monkeypatch, mbfl, "build_outcome_matrix")
        pipeline._score_mbfl(bundle, traces)
        # "long" is the only failing test.
        ((_, (total_failed, kills)),) = matrices
        assert (total_failed, kills[ncd.mutant_id].f2p) == (1, 1)

    def test_flip_of_early_exit_is_critical(self):
        bundle, traces = early_exit_fault()
        scored = pipeline._score_predswitch(bundle, traces)["predswitch"]
        assert {e.line for e in scored} == {2}

    def test_uncovered_pairs_are_not_run(self, bundles, monkeypatch):
        bundle, traces = self.fault(bundles, "f04_gcd")
        generated = record(monkeypatch, pipeline, "gen_mutants")
        runs = record(monkeypatch, pipeline, "run")
        pipeline._score_mbfl(bundle, traces)
        ((_, mutants),) = generated
        covered = Counter(
            (id(m.program), tid)
            for m in mutants
            for tid, tr in traces.items()
            if m.element in tr.covered
        )
        assert Counter((id(args[0]), args[1].test_id) for args, _ in runs) == covered

    def test_outcome_matrix_equals_flat_budget_matrix(self, bundles, monkeypatch):
        bundle, traces = self.fault(bundles, "f04_gcd")
        matrices = record(monkeypatch, mbfl, "build_outcome_matrix")
        pipeline._score_mbfl(bundle, traces)
        mutants = gen_mutants(bundle.program)
        flat = {
            m.mutant_id: {
                t.test_id: (not tr.failed, tr.signature())
                for t in bundle.tests
                for tr in [run(m.program, t, step_budget=5_000)]
            }
            for m in mutants
        }
        original = {tid: (not tr.failed, tr.signature()) for tid, tr in traces.items()}
        stmts = {m.mutant_id: m.element for m in mutants}
        ((_, matrix),) = matrices
        assert matrix == mbfl.build_outcome_matrix(original, flat, stmts)


class TestEvaluateCorpus:
    def test_structure(self, results):
        assert set(results["techniques"]) == {
            "history", "stacktrace", "ir", "slice-union", "slice-intersection",
            "slice-frequency", "ochiai", "dstar",
        }
        assert results["combined"]["at"]["1"] >= 0
        assert set(results["ablation"]) == {
            "history", "stacktrace", "ir", "slicing", "sbfl",
        }

    def test_correlation_matrix_symmetric(self, results):
        corr = results["correlation"]
        n = len(corr["techniques"])
        for i in range(n):
            for j in range(n):
                a, b = corr["r2"][i][j], corr["r2"][j][i]
                if a is None or b is None:
                    assert a == b
                else:
                    assert a == pytest.approx(b, abs=1e-12)
        # diagonal is exactly 1 where defined
        for i in range(n):
            if corr["r2"][i][i] is not None:
                assert corr["r2"][i][i] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, bundles, results):
        again = evaluate_corpus(bundles, level=2, seed=0, k=10, with_ablation=True)
        a = {k: v for k, v in results.items() if k != "timings"}
        b = {k: v for k, v in again.items() if k != "timings"}
        assert a == b

    def test_method_granularity(self, bundles):
        res = evaluate_corpus(
            bundles, level=1, granularity="method", with_ablation=False
        )
        assert res["granularity"] == "method"
        # every corpus program has at most 2 methods, so expected ranks are small
        for summary in res["techniques"].values():
            assert summary["not_localized"] == 0

    def test_report_formats(self, results):
        text = emit_report(results, "text-table")
        assert "Technique performance" in text and "combined" in text
        csv_text = emit_report(results, "csv")
        assert csv_text.splitlines()[0].startswith("technique,at1")
        parsed = json.loads(emit_report(results, "json"))
        assert parsed["combined"] == results["combined"]
        with pytest.raises(PipelineError):
            emit_report(results, "pdf")


class TestEvaluateScoreRecords:
    def test_external_scores(self, bundles):
        b = bundles[0]
        faulty_elem = next(iter(b.faulty))
        good = ScoreRecord(
            b.fault_id, "ext", {faulty_elem: 1.0}
        )
        results = evaluate_score_records([good], bundles)
        summary = results["techniques"]["ext"]
        assert summary["e_inspect"][b.fault_id] == "1"
        # the other nine faults were never scored by "ext"
        assert summary["not_localized"] == 9

    def test_unknown_fault_rejected(self, bundles):
        bad = ScoreRecord("ghost", "t", {ProgramElement("program.ml", 1): 1.0})
        with pytest.raises(PipelineError):
            evaluate_score_records([bad], bundles)

    def test_technique_without_scores_is_not_localized(self, bundles):
        analysis = analyze_fault(bundles[0], ("sbfl",))
        values, sizes = technique_ranks([analysis], ["ochiai", "absent"], "statement")
        assert values["absent"] == {bundles[0].fault_id: None}
        assert values["ochiai"][bundles[0].fault_id] is not None
        assert sizes == {bundles[0].fault_id: len(bundles[0].elements)}

    @pytest.mark.parametrize("granularity", ["statement", "method"])
    def test_written_scores_report_as_evaluate_ranks(self, tmp_path, capsys, bundles, granularity):
        techniques = ("ochiai", "dstar", "slice-intersection")
        records = [
            ScoreRecord(a.bundle.fault_id, t, a.scores[t])
            for a in pipeline.analyze_corpus(bundles, 2)
            for t in techniques
        ]
        path = tmp_path / "scores.jsonl"
        write_scores(records, path)
        assert '"inf"' in path.read_text()  # dstar's zero-pass elements
        rc = cli_main(
            ["report", "--corpus", str(CORPUS), "--scores", str(path),
             "--granularity", granularity, "--format", "json"]
        )
        assert rc == 0
        reported = json.loads(capsys.readouterr().out)["techniques"]
        evaluated = evaluate_corpus(bundles, level=2, granularity=granularity, with_ablation=False)
        assert reported == {t: evaluated["techniques"][t] for t in techniques}


class TestCli:
    def test_localize(self, capsys):
        rc = cli_main(
            ["localize", "--corpus", str(CORPUS), "--fault", "f01_absval",
             "--preset", "level2", "--technique", "ochiai", "--top", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "== ochiai" in out and "E_inspect" in out
        assert "*" in out  # ground-truth marker visible in the top 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["localize", "--corpus", str(CORPUS), "--fault", "f01_absval", "--top", "0"],
            ["correlate", "--corpus", str(CORPUS), "--q", "0"],
            ["correlate", "--corpus", str(CORPUS), "--q", "-5"],
            ["correlate", "--corpus", str(CORPUS), "--q", "ten"],
        ],
        ids=["top-0", "q-0", "q-negative", "q-not-int"],
    )
    def test_count_below_one_is_a_usage_error(self, capsys, argv):
        # --top 0 used to print one element per technique, because the limit
        # was checked after printing, and --q 0 an all-null matrix.
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = argv[-2]
        [message] = [line for line in captured.err.splitlines() if not line.startswith(("usage:", " "))]
        assert message.startswith(f"flkit {argv[0]}: error: argument {flag}: ")

    @pytest.mark.parametrize(
        "preset,message",
        [
            ("level", "bad preset 'level'; expected level1..level4"),
            ("levelx", "bad preset 'levelx'; expected level1..level4"),
            ("level5", "preset level 5 out of range 1..4"),
        ],
        ids=["bare-level", "not-a-number", "out-of-range"],
    )
    def test_bad_preset_is_a_usage_error(self, capsys, preset, message):
        with pytest.raises(SystemExit) as exc:
            cli_main(["evaluate", "--corpus", str(CORPUS), "--preset", preset])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        [line] = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
        assert line == f"flkit evaluate: error: argument --preset: {message}"

    @pytest.mark.parametrize("command", ["localize", "evaluate", "correlate", "combine"])
    def test_preset_help_follows_the_family_table(self, capsys, monkeypatch, command):
        monkeypatch.setattr(cmb, "FAMILIES", cmb.FAMILIES + (cmb.Family("extra", 5, ("extra",)),))
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "-h"])
        assert exc.value.code == 0
        [line] = [line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("--preset")]
        assert line.split() == ["--preset", "PRESET", "level1..level5"]

    def test_localize_shows_each_technique_once(self, capsys):
        rc = cli_main(
            ["localize", "--corpus", str(CORPUS), "--fault", "f01_absval", "--preset", "level2",
             "--technique", "ochiai", "--technique", "dstar", "--technique", "ochiai", "--top", "1"]
        )
        headers = [line.split()[1] for line in capsys.readouterr().out.splitlines() if line.startswith("==")]
        assert rc == 0
        assert headers == ["ochiai", "dstar"]

    def test_localize_unknown_technique(self, capsys):
        rc = cli_main(
            ["localize", "--corpus", str(CORPUS), "--fault", "f01_absval",
             "--technique", "muse"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_localize_technique_outside_preset_prints_no_ranking(self, capsys, monkeypatch):
        # stacktrace is in level1 and ochiai is not: the names are checked
        # before any analysis, so stacktrace's ranking is never printed.
        monkeypatch.setattr(
            "flkit.cli.analyze_fault", lambda *a: pytest.fail("analyzed before the check")
        )
        rc = cli_main(
            ["localize", "--corpus", str(CORPUS), "--fault", "f01_absval", "--preset", "level1",
             "--technique", "stacktrace", "--technique", "ochiai"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: technique 'ochiai' not produced by preset level1\n"

    def test_evaluate_json(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(
            ["evaluate", "--corpus", str(CORPUS), "--preset", "1",
             "--format", "json", "--no-ablation", "--out", str(out)]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["preset"] == 1
        assert "combined" in data

    def test_correlate(self, capsys):
        rc = cli_main(
            ["correlate", "--corpus", str(CORPUS), "--preset", "2", "--q", "100"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Correlation" in out

    def test_correlate_takes_no_seed(self, capsys):
        # correlate trains nothing, so a seed could never change its output.
        with pytest.raises(SystemExit) as exc:
            cli_main(["correlate", "--corpus", str(CORPUS), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_correlate_trains_nothing(self, capsys, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("correlate must not train a model")

        monkeypatch.setattr(cmb, "train", no_training)
        rc = cli_main(["correlate", "--corpus", str(CORPUS), "--preset", "2"])
        assert rc == 0
        assert "Correlation" in capsys.readouterr().out

    def test_correlate_text_prints_no_empty_table(self, capsys):
        rc = cli_main(["correlate", "--corpus", str(CORPUS), "--preset", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("Correlation (r^2)\n")
        assert "Technique performance" not in out and "EXAM" not in out

    def test_report_of_empty_score_file_prints_no_table(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text("")
        rc = cli_main(["report", "--corpus", str(CORPUS), "--scores", str(scores)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Technique performance" not in out and "EXAM" not in out

    def test_combine_honours_granularity(self, tmp_path):
        weights = {}
        for granularity in ("statement", "method"):
            path = tmp_path / f"{granularity}.json"
            rc = cli_main(
                ["combine", "--corpus", str(CORPUS), "--preset", "2",
                 "--granularity", granularity, "--save", str(path)]
            )
            assert rc == 0
            weights[granularity] = json.loads(path.read_text())["weights"]
        assert weights["statement"] != weights["method"]

    def test_combine_save_and_load(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        rc = cli_main(
            ["combine", "--corpus", str(CORPUS), "--preset", "1",
             "--save", str(model_path)]
        )
        assert rc == 0
        saved = json.loads(model_path.read_text())
        assert saved["techniques"] == ["history", "stacktrace", "ir"]
        rc = cli_main(
            ["combine", "--corpus", str(CORPUS), "--preset", "1",
             "--load", str(model_path), "--fault", "f01_absval"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "f01_absval: combined E_inspect" in out

    def test_report_command(self, tmp_path, capsys, bundles):
        b = bundles[0]
        scores = tmp_path / "scores.jsonl"
        write_scores(
            [ScoreRecord(b.fault_id, "ext", {next(iter(b.faulty)): 2.0})],
            scores,
        )
        rc = cli_main(
            ["report", "--corpus", str(CORPUS), "--scores", str(scores), "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("technique,at1")

    def test_bad_corpus_is_an_error_exit(self, capsys):
        rc = cli_main(["evaluate", "--corpus", "/nonexistent"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def assert_one_error_line(capsys, *words):
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        for word in words:
            assert word in err

    @pytest.mark.parametrize(
        "granularity, words",
        [("statement", ("outside universe",)), ("method", ("no method mapping",))],
        ids=["statement", "method"],
    )
    def test_report_element_outside_program(self, tmp_path, capsys, bundles, granularity, words):
        b = bundles[0]
        scores = tmp_path / "scores.jsonl"
        outside = ProgramElement("program.ml", 999)
        write_scores([ScoreRecord(b.fault_id, "ext", {outside: 1.0})], scores)
        rc = cli_main(
            ["report", "--corpus", str(CORPUS), "--scores", str(scores), "--granularity", granularity]
        )
        assert rc == 1
        self.assert_one_error_line(capsys, b.fault_id, *words)

    @pytest.mark.parametrize(
        "text, words",
        [
            ('{"techniques": ["history", "stacktrace", "ir"], "weights": [1.0, 2.0], "seed": 0}',
             ("2 weights for 3 techniques",)),
            ('{"techniques": ["history", "stacktrace", "ir"], "seed": 0}', ("'weights'",)),
            ("weights: 1, 2, 3", ("not JSON",)),
            ('{"techniques": ["ir", "ir"], "weights": [1.0, 2.0], "seed": 0}', ("repeats a technique",)),
            ('{"techniques": [], "weights": [], "seed": 0}', ("no techniques",)),
            ('{"techniques": ["ir"], "weights": [1.0], "seed": "0"}', ("seed must be an int",)),
        ],
        ids=["weight-count", "no-weights", "not-json", "repeated-technique", "no-techniques", "string-seed"],
    )
    def test_bad_model_file(self, tmp_path, capsys, text, words):
        model = tmp_path / "model.json"
        model.write_text(text)
        rc = cli_main(
            ["combine", "--corpus", str(CORPUS), "--preset", "1",
             "--load", str(model), "--fault", "f01_absval"]
        )
        assert rc == 1
        self.assert_one_error_line(capsys, *words)

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--preset", "4", "--out"],
            ["report", "--scores", "scores.jsonl", "--out"],
            ["combine", "--preset", "4", "--save"],
        ],
        ids=["evaluate", "report", "combine"],
    )
    def test_missing_output_directory_fails_before_the_work(self, tmp_path, capsys, monkeypatch, argv):
        for name in ("load_corpus", "evaluate_corpus", "analyze_corpus", "evaluate_score_records"):
            monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("worked before checking the output"))
        out = tmp_path / "absent" / "out.json"
        rc = cli_main([argv[0], "--corpus", str(CORPUS), *argv[1:], str(out)])
        assert rc == 1
        self.assert_one_error_line(capsys, "[Errno 2]", str(out))
        assert list(tmp_path.iterdir()) == []

    def test_combine_fault_needs_load(self, capsys, monkeypatch):
        monkeypatch.setattr(cmb, "train", lambda *a, **k: pytest.fail("trained without --load"))
        rc = cli_main(["combine", "--corpus", str(CORPUS), "--preset", "1", "--fault", "f01_absval"])
        assert rc == 1
        self.assert_one_error_line(capsys, "--fault", "--load")

    def test_combine_save_with_load_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "load_corpus", lambda *a, **k: pytest.fail("worked despite --save with --load"))
        model, out = tmp_path / "model.json", tmp_path / "out.json"
        model.write_text('{"techniques": ["ir"], "weights": [1.0], "seed": 0}')
        rc = cli_main(["combine", "--corpus", str(CORPUS), "--load", str(model), "--save", str(out)])
        assert rc == 1
        self.assert_one_error_line(capsys, "--save", "--load")
        assert not out.exists()

    def test_unreadable_model_file(self, tmp_path, capsys):
        rc = cli_main(
            ["combine", "--corpus", str(CORPUS), "--load", str(tmp_path / "absent.json")]
        )
        assert rc == 1
        self.assert_one_error_line(capsys, "absent.json")

    @pytest.mark.parametrize("k", ["-2", "0", "1"])
    def test_evaluate_needs_two_folds(self, capsys, k):
        rc = cli_main(
            ["evaluate", "--corpus", str(CORPUS), "--preset", "1", "--no-ablation", "--k", k]
        )
        assert rc == 1
        self.assert_one_error_line(capsys, "k >= 2")

    def test_unparsable_program(self, tmp_path, capsys):
        write_fault(tmp_path / "f1", program="func f(x) { return x }")
        rc = cli_main(["localize", "--corpus", str(tmp_path), "--fault", "f1"])
        assert rc == 1
        self.assert_one_error_line(capsys, "f1", "program.ml:1:")

    def test_non_ascii_digit_in_program(self, tmp_path, capsys):
        write_fault(tmp_path / "f1", program="func f(x) { return ²; }")
        rc = cli_main(["localize", "--corpus", str(tmp_path), "--fault", "f1"])
        assert rc == 1
        self.assert_one_error_line(capsys, "f1", "program.ml:1:20: unexpected character '²'")

    def test_undefined_test_entry(self, tmp_path, capsys):
        write_fault(tmp_path / "f1", entry="g")
        rc = cli_main(["localize", "--corpus", str(tmp_path), "--fault", "f1"])
        assert rc == 1
        self.assert_one_error_line(capsys, "f1", "no function 'g'")

    @pytest.mark.parametrize(
        "name, text, words",
        [
            ("tests.json", '{"tests": [{"id": "t", "entry": "f"', ("tests.json",)),
            ("truth.json", '{"faulty": ["program.ml:x"]}', ("truth.json", "program.ml:x")),
            ("history.json", '{"commits": [{"ts": 1, "files": []}]}', ("history.json", "'msg'")),
            ("tests.json", '{"tests": [{"id": ["t"], "entry": "f", "args": [1], "expect": 2}]}',
             ("tests.json", "id and entry must be strings")),
            ("history.json", '{"commits": [{"ts": "x", "msg": "fix", "files": ["program.ml"]}]}',
             ("history.json", "ts must be a number")),
            ("history.json",
             '{"commits": [{"ts": 2, "msg": "fix", "files": []}, {"ts": 1, "msg": "fix", "files": []}]}',
             ("history.json", "non-decreasing")),
            ("history.json", '{"commits": []}', ("history.json", "empty history log")),
            ("history.json", '{"commits": [{"ts": Infinity, "msg": "fix", "files": []}]}',
             ("history.json", "finite")),
            ("history.json", '{"commits": [{"ts": NaN, "msg": "fix", "files": []}]}',
             ("history.json", "finite")),
            ("report.txt", " -- !!\n", ("report.txt", "no word")),
            ("program.ml", b"func f(x) { return x; } # \xff\n", ("program.ml", "not UTF-8")),
            ("report.txt", b"crash in f \xff\n", ("report.txt", "not UTF-8")),
        ],
        ids=[
            "truncated-tests", "bad-faulty-key", "commit-without-msg", "list-test-id", "string-commit-ts",
            "unordered-commits", "no-commits", "infinite-commit-ts", "nan-commit-ts", "wordless-report",
            "non-utf8-program", "non-utf8-report",
        ],
    )
    def test_malformed_fault_file(self, tmp_path, capsys, name, text, words):
        write_fault(tmp_path / "f1")
        path = tmp_path / "f1" / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        rc = cli_main(["localize", "--corpus", str(tmp_path), "--fault", "f1"])
        assert rc == 1
        self.assert_one_error_line(capsys, "fault f1:", *words)

    @pytest.mark.parametrize(
        "name, old, new, argv, words",
        [
            ("tests.json", '"t2"', '"t1"', ["--preset", "level4"], ("tests.json", "duplicate test id 't1'")),
            ("truth.json", '"maxof3"', "5", ["--preset", "level1", "--cv", "cross-project"],
             ("truth.json", "project 5 is not a string")),
        ],
        ids=["duplicate-test-id", "int-project"],
    )
    def test_bad_corpus_file_in_evaluate(self, tmp_path, capsys, name, old, new, argv, words):
        corpus = edited_corpus(tmp_path, "f02_maxof3", name, old, new)
        rc = cli_main(["evaluate", "--corpus", str(corpus), *argv])
        assert rc == 1
        self.assert_one_error_line(capsys, "fault f02_maxof3:", *words)

    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("f1/tests.json", '{"tests": [{"id": "t", "entry": "f", "args": DEEP, "expect": 2}]}',
             ["evaluate", "--corpus", "{dir}"]),
            ("scores.jsonl", '{"fault": "f01_absval", "technique": "ext", "scores": DEEP}',
             ["report", "--corpus", str(CORPUS), "--scores", "{path}"]),
            ("model.json", '{"techniques": DEEP, "weights": [], "seed": 0}',
             ["combine", "--corpus", str(CORPUS), "--preset", "1",
              "--load", "{path}", "--fault", "f01_absval"]),
        ],
        ids=["tests-json", "score-file", "model-file"],
    )
    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys, name, text, argv):
        # Python 3.13's json decodes 5,000 levels; none decodes 100,000.
        write_fault(tmp_path / "f1")
        path = tmp_path / name
        path.write_text(text.replace("DEEP", "[" * 100_000 + "]" * 100_000))
        rc = cli_main([arg.format(dir=tmp_path, path=path) for arg in argv])
        assert rc == 1
        self.assert_one_error_line(capsys, "recursion")

    def test_non_utf8_score_file(self, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_bytes(
            b'{"fault": "f01_absval", "technique": "a", "scores": []}\n'
            b'{"fault": "f01_absval", "technique": "\xff", "scores": []}\n'
        )
        rc = cli_main(["report", "--corpus", str(CORPUS), "--scores", str(scores)])
        assert rc == 1
        self.assert_one_error_line(capsys, "scores.jsonl:2:", "utf-8")
