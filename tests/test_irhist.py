import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flkit import irhist, pipeline
from flkit.corpus import load_corpus
from flkit.irhist import (
    Commit,
    commits_from_json,
    history_rank_files,
    ir_rank_files,
    propagate_file_scores,
    recency_weight,
    tokenize,
)
from flkit.model import ProgramElement

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def reference_tokenize(text: str) -> list[str]:
    """tokenize as it was first written: split on non-alphanumerics, then on
    underscores, then at camelCase boundaries; lowercase."""
    out = []
    for chunk in re.split(r"[^0-9A-Za-z_]+", text):
        for part in chunk.split("_"):
            for word in _CAMEL.split(part):
                if word:
                    out.append(word.lower())
    return out


def reference_ir(report_text: str, files: dict) -> dict:
    """TF-IDF cosine as the ir_rank_files docstring defines it, with no case for
    one file: tf the raw count, idf = ln(N/df), query terms in no file dropped."""
    docs = {fid: reference_tokenize(text) for fid, text in files.items()}

    def weights(words: list) -> dict:
        df = {t: sum(t in d for d in docs.values()) for t in dict.fromkeys(words)}
        return {t: words.count(t) * math.log(len(docs) / n) for t, n in df.items() if n}

    def left_to_right(terms) -> float:
        # The order every Python version keeps; sum() compensates from 3.12.
        total = 0.0
        for term in terms:
            total += term
        return total

    query = weights(reference_tokenize(report_text))
    qnorm = math.sqrt(left_to_right(w * w for w in query.values()))
    scores = {}
    for fid, words in docs.items():
        doc = weights(words)
        dnorm = math.sqrt(left_to_right(w * w for w in doc.values()))
        if qnorm == 0 or dnorm == 0:
            scores[fid] = 0.0
        else:
            dot = left_to_right(w * doc.get(t, 0.0) for t, w in query.items())
            scores[fid] = dot / (qnorm * dnorm)
    return scores


_IR_WORD = st.sampled_from(["alpha", "beta", "gamma", "delta", "parseXml", "max_of3", "func"])


def _ir_text(min_size: int = 0):
    return st.lists(_IR_WORD, min_size=min_size, max_size=8).map(" ".join)


def corpus_texts() -> list:
    """Every bug report, program and commit message in the corpus."""
    texts = []
    for fault in sorted(CORPUS.iterdir()):
        texts += [(fault / "report.txt").read_text(), (fault / "program.ml").read_text()]
        texts += [commit["msg"] for commit in json.loads((fault / "history.json").read_text())["commits"]]
    return texts


class TestTokenize:
    def test_camel_case(self):
        assert tokenize("parseXmlDocument") == ["parse", "xml", "document"]

    def test_acronym_boundary(self):
        assert tokenize("XMLParser") == ["xml", "parser"]

    def test_underscores_and_punctuation(self):
        assert tokenize("max_of3(a, b); # pick") == [
            "max", "of3", "a", "b", "pick",
        ]

    def test_lowercasing_and_digits(self):
        assert tokenize("Loop2Fix") == ["loop2", "fix"]

    def test_empty(self):
        assert tokenize("...") == []

    @settings(max_examples=500)
    @given(st.text(alphabet="aBz09_ -.Z\u00e9\n"))
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    def test_matches_reference_on_corpus(self):
        texts = corpus_texts()
        assert len(texts) > 20
        for text in texts:
            assert tokenize(text) == reference_tokenize(text)


class TestIrRanking:
    def test_matching_file_ranks_first(self):
        files = {
            "calc.ml": "func addNumbers(a, b) { return a + b; }",
            "io.ml": "func readInput(buf) { return buf; }",
        }
        scored = ir_rank_files("addNumbers returns the wrong sum", files)
        assert scored["calc.ml"] > scored["io.ml"]

    def test_cosine_manual_check(self):
        # one shared discriminative term; verify against hand-computed cosine
        files = {"a": "alpha beta", "b": "gamma delta"}
        scored = ir_rank_files("alpha", files)
        # idf(alpha)=ln(2); query vector {alpha}; doc a vector {alpha, beta}
        w = math.log(2.0)
        expected = (w * w) / (w * math.sqrt(2 * w * w))
        assert scored["a"] == pytest.approx(expected, abs=1e-12)
        assert scored["b"] == 0.0

    def test_ubiquitous_term_carries_no_weight(self):
        # "func" appears in every file: idf = ln(1) = 0
        files = {"a": "func alpha", "b": "func beta"}
        scored = ir_rank_files("func", files)
        assert scored == {"a": 0.0, "b": 0.0}

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            ir_rank_files("!!!", {"a": "text"})

    def test_no_files_rejected(self):
        with pytest.raises(ValueError):
            ir_rank_files("report", {})

    def test_scores_bounded(self):
        files = {"a": "alpha beta gamma", "b": "alpha", "c": "delta"}
        for s in ir_rank_files("alpha beta", files).values():
            assert 0.0 <= s <= 1.0 + 1e-12

    @settings(max_examples=300)
    @given(_ir_text(min_size=1), st.lists(_ir_text(), min_size=1, max_size=3))
    def test_matches_reference(self, report, texts):
        files = {f"f{i}.ml": text for i, text in enumerate(texts)}
        assert ir_rank_files(report, files) == reference_ir(report, files)

    @staticmethod
    def count_tokenize(monkeypatch) -> list:
        """The texts irhist.tokenize is called with from now on."""
        seen = []
        monkeypatch.setattr(irhist, "tokenize", lambda text: seen.append(text) or tokenize(text))
        return seen

    def test_lone_file_tokenizes_only_the_report(self, monkeypatch):
        # A lone file scores 0 whatever it holds, so its text is never read.
        seen = self.count_tokenize(monkeypatch)
        assert ir_rank_files("alpha beta", {"a.ml": "alpha beta gamma"}) == {"a.ml": 0.0}
        assert seen == ["alpha beta"]

    def test_lone_file_empty_report_rejected(self, monkeypatch):
        seen = self.count_tokenize(monkeypatch)
        with pytest.raises(ValueError, match="empty"):
            ir_rank_files("!!!", {"a.ml": "alpha beta gamma"})
        assert seen == ["!!!"]

    def test_every_corpus_fault_scores_zero(self):
        # Every corpus fault is one file, so ir gives each statement 0.0.
        bundles = load_corpus(CORPUS)
        assert len(bundles) == 10
        for bundle in bundles:
            scored = pipeline._score_ir(bundle, {})["ir"]
            assert scored == dict.fromkeys(bundle.elements, 0.0) and scored


class TestHistory:
    def test_recency_weight_endpoints(self):
        assert recency_weight(1.0) == pytest.approx(0.5, abs=1e-12)
        assert recency_weight(0.0) == pytest.approx(1 / (1 + math.e**12), abs=1e-15)
        assert recency_weight(0.5) < recency_weight(1.0)

    def test_fix_detection(self):
        assert Commit(1, "Fix the off by one", ("a",)).is_fix
        assert Commit(1, "Closes #12", ("a",)).is_fix
        assert not Commit(1, "refactor parser", ("a",)).is_fix

    def test_newer_fixes_weigh_more(self):
        commits = [
            Commit(100, "fix a", ("old.ml",)),
            Commit(900, "fix b", ("new.ml",)),
        ]
        scores = history_rank_files(commits, now=1000)
        assert scores["new.ml"] > scores["old.ml"]
        assert scores["new.ml"] == pytest.approx(recency_weight(800 / 900), abs=1e-12)
        assert scores["old.ml"] == pytest.approx(recency_weight(0.0), abs=1e-12)

    def test_weights_accumulate_per_file(self):
        commits = [
            Commit(100, "fix a", ("hot.ml",)),
            Commit(500, "fix b", ("hot.ml",)),
        ]
        scores = history_rank_files(commits, now=1000)
        expected = recency_weight(0.0) + recency_weight(400 / 900)
        assert scores["hot.ml"] == pytest.approx(expected, abs=1e-12)

    def test_no_fix_commits_scores_zero(self):
        commits = [Commit(1, "initial import", ("a.ml", "b.ml"))]
        scores = history_rank_files(commits, now=10)
        assert scores == {"a.ml": 0.0, "b.ml": 0.0}

    def test_single_fix_at_now(self):
        # zero span: the lone fix counts as the newest (t_norm = 1)
        commits = [Commit(50, "fix it", ("a.ml",))]
        scores = history_rank_files(commits, now=50)
        assert scores["a.ml"] == pytest.approx(0.5, abs=1e-12)

    def test_unordered_log_rejected(self):
        commits = [Commit(5, "fix", ("a",)), Commit(1, "fix", ("a",))]
        with pytest.raises(ValueError):
            history_rank_files(commits, now=10)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            history_rank_files([], now=10)

    @pytest.mark.parametrize("ts", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_timestamp_rejected(self, ts):
        with pytest.raises(ValueError, match="finite"):
            history_rank_files([Commit(1, "fix", ("a",)), Commit(ts, "fix", ("a",))], now=10)

    def test_json_ingest(self):
        text = '{"commits": [{"ts": 3, "msg": "fix crash", "files": ["a.ml"]}]}'
        (c,) = commits_from_json(text)
        assert c.timestamp == 3 and c.is_fix and c.files == ("a.ml",)

    @pytest.mark.parametrize(
        "commit",
        [
            '{"ts": true, "msg": "fix", "files": ["a.ml"]}',
            '{"ts": 3, "msg": 5, "files": ["a.ml"]}',
            '{"ts": 3, "msg": "fix", "files": "a.ml"}',
            '{"ts": 3, "msg": "fix", "files": [1]}',
        ],
        ids=["bool-ts", "number-msg", "string-files", "number-file"],
    )
    def test_json_wrong_types_rejected(self, commit):
        with pytest.raises(TypeError):
            commits_from_json('{"commits": [%s]}' % commit)


class TestPropagation:
    def test_uniform_statement_scores(self):
        a1 = ProgramElement("a.ml", 1)
        a2 = ProgramElement("a.ml", 2)
        b1 = ProgramElement("b.ml", 1)
        file_scores = {"a.ml": 0.8}
        stmts = propagate_file_scores(
            file_scores, {"a.ml": [a1, a2], "b.ml": [b1]}
        )
        assert stmts == {a1: 0.8, a2: 0.8, b1: 0.0}
