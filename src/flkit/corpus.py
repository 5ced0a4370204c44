"""Corpus layout and score-record ingestion.

A corpus is a directory of fault directories:

    corpus/<fault_id>/
        program.ml      subject program
        tests.json      {"tests": [{"id", "entry", "args", "expect"}]}  (ids unique)
        truth.json      {"faulty": ["file:line:idx", ...],
                         "insertions": [{"file", "after_line"}, ...],
                         "project": "..."}           (project optional, a string)
        report.txt      bug report text               (optional)
        history.json    {"commits": [{"ts", "msg", "files"}]}  (optional)

Pre-computed suspiciousness scores are exchanged as JSON lines:

    {"fault": "...", "technique": "...", "scores": [["file:line:idx", 0.5], ...]}

A score is a JSON number other than a bool or NaN, or one of the strings
"inf" and "-inf", which stand for +infinity and -infinity. No element appears
twice in one record.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

from .irhist import commits_from_json, tokenize
from .minilang.parse import MiniSyntaxError, Program, TestCase, parse
from .model import (
    ModelError,
    ProgramElement,
    adjust_ground_truth_for_insertions,
    parse_element_key,
)

log = logging.getLogger(__name__)

PROGRAM_FILE = "program.ml"


class CorpusError(Exception):
    pass


@dataclass(frozen=True)
class FaultBundle:
    """One loaded fault: program, tests, ground truth, and auxiliary inputs."""

    fault_id: str
    program: Program
    tests: tuple
    faulty: frozenset
    project: str = ""
    bug_report: Optional[str] = None
    commits: Optional[tuple] = None

    @cached_property
    def elements(self) -> tuple:
        """The program's elements, computed on first read; a copy made by
        ``dataclasses.replace`` computes its own."""
        return tuple(self.program.elements())


def load_fault(fault_dir: str | Path) -> FaultBundle:
    fault_dir = Path(fault_dir)
    fault_id = fault_dir.name
    missing = [
        name
        for name in (PROGRAM_FILE, "tests.json", "truth.json")
        if not (fault_dir / name).exists()
    ]
    if missing:
        raise CorpusError(f"fault {fault_id}: missing inputs {missing}")

    try:
        program = parse(_read(fault_dir, PROGRAM_FILE), file_id=PROGRAM_FILE)
    except MiniSyntaxError as exc:
        raise CorpusError(f"fault {fault_id}: {PROGRAM_FILE}:{exc}") from None
    with _malformed(fault_id, "tests.json"):
        tests = {}
        for t in json.loads(_read(fault_dir, "tests.json"))["tests"]:
            test_id, entry, args = t["id"], t["entry"], t.get("args", [])
            if type(test_id) is not str or type(entry) is not str or type(args) is not list:
                raise TypeError("a test's id and entry must be strings, and its args a list")
            if test_id in tests:  # runs are keyed by test id
                raise ValueError(f"duplicate test id {test_id!r}")
            tests[test_id] = TestCase(test_id, entry, tuple(args), t["expect"])
        if not tests:
            raise CorpusError(f"fault {fault_id}: no tests")
        for t in tests.values():
            fn = program.functions.get(t.entry)
            if fn is None or len(t.args) != len(fn.params):
                raise CorpusError(
                    f"fault {fault_id}: test {t.test_id}: no function {t.entry!r} of {len(t.args)} args"
                )

    elements = program.elements()
    element_set = set(elements)
    faulty: set[ProgramElement] = set()
    with _malformed(fault_id, "truth.json"):
        truth = json.loads(_read(fault_dir, "truth.json"))
        project = truth.get("project", "")
        if type(project) is not str:
            raise TypeError(f"project {json.dumps(project)} is not a string")
        for key in truth.get("faulty", ()):
            elem = parse_element_key(key)
            if elem not in element_set:
                raise CorpusError(f"fault {fault_id}: faulty element {key} not executable")
            faulty.add(elem)
        insertions = [
            (ins["file"], ins["after_line"]) for ins in truth.get("insertions", ())
        ]
        if insertions:
            faulty |= adjust_ground_truth_for_insertions([], insertions, elements)
    if not faulty:
        raise CorpusError(f"fault {fault_id}: empty ground truth")

    bug_report = None
    if (fault_dir / "report.txt").exists():
        bug_report = _read(fault_dir, "report.txt")
        if not tokenize(bug_report):
            raise CorpusError(f"fault {fault_id}: report.txt: no word in the bug report")
    commits = None
    if (fault_dir / "history.json").exists():
        with _malformed(fault_id, "history.json"):
            commits = tuple(commits_from_json(_read(fault_dir, "history.json")))
    return FaultBundle(
        fault_id,
        program,
        tuple(tests.values()),
        frozenset(faulty),
        project,
        bug_report,
        commits,
    )


def _read(fault_dir: Path, name: str) -> str:
    """A fault file's text; a file that is not UTF-8 is a CorpusError."""
    try:
        return (fault_dir / name).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"fault {fault_dir.name}: {name}: not UTF-8: {exc}") from None


@contextmanager
def _malformed(fault_id: str, name: str):
    """Report malformed content of a fault's JSON file as a CorpusError."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError, ModelError) as exc:
        raise CorpusError(f"fault {fault_id}: {name}: {exc}") from None


def load_corpus(corpus_dir: str | Path) -> list[FaultBundle]:
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        raise CorpusError(f"corpus directory {corpus_dir} does not exist")
    fault_dirs = sorted(p for p in corpus_dir.iterdir() if p.is_dir())
    if not fault_dirs:
        raise CorpusError(f"corpus directory {corpus_dir} contains no faults")
    return [load_fault(d) for d in fault_dirs]


@dataclass(frozen=True)
class ScoreRecord:
    fault_id: str
    technique_id: str
    scores: dict  # element -> score


def ingest_scores(path: str | Path) -> list[ScoreRecord]:
    """Parse JSON-lines score records; a duplicate (fault, technique) last-wins."""
    records: dict[tuple, ScoreRecord] = {}
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line = line.decode("utf-8").strip()
            if not line:
                continue
            data = json.loads(line)
            fault = data["fault"]
            technique = data["technique"]
            if not (isinstance(fault, str) and isinstance(technique, str)):
                raise TypeError("fault and technique must be strings")
            scores = {}
            for key, score in data["scores"]:
                elem = parse_element_key(key)
                if score in ("inf", "-inf"):
                    score = float(score)
                elif type(score) not in (int, float):  # a bool is not a score
                    raise TypeError(f'score {json.dumps(score)} for {elem} is not a number, "inf" or "-inf"')
                if math.isnan(score):
                    raise ValueError(f"NaN score for {elem}")
                if elem in scores:
                    raise ValueError(f"duplicate element {elem}")
                scores[elem] = float(score)
            record = ScoreRecord(fault, technique, scores)
        except (
            KeyError,
            TypeError,
            ValueError,
            OverflowError,
            RecursionError,
            ModelError,
        ) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed score record: {exc}") from exc
        if (fault, technique) in records:
            log.warning(
                "%s:%d: duplicate record for (%s, %s); keeping the later one",
                path,
                lineno,
                fault,
                technique,
            )
        records[(fault, technique)] = record
    return list(records.values())
