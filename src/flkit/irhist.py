"""File-level scorers: bug-report text similarity and fix-history recency.

Both produce file scores that are propagated uniformly onto every executable
statement of the file. Text similarity needs two or more files to tell them
apart: over a lone file every term's idf is 0, so it scores 0 without reading
the file.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

# An ASCII word: capitals before a capitalized word ("XML" in "XMLParser"),
# capitals then lowercase letters or digits ("Parser", "of3"), or capitals alone.
_WORD = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]*[a-z0-9]+|[A-Z]+")


def tokenize(text: str) -> list[str]:
    """Split on non-alphanumerics, then camelCase and underscores; lowercase."""
    return [word.lower() for word in _WORD.findall(text)]


def ir_rank_files(report_text: str, files: Mapping[str, str]) -> dict:
    """Cosine similarity between TF-IDF vectors of the bug report and each file.

    tf is the raw term count; idf = ln(N/df) over the file corpus, dropping
    query terms that occur in no file. A lone file scores 0.0, and only the
    report is tokenized.
    """
    if not files:
        raise ValueError("need at least one file")
    query = Counter(tokenize(report_text))
    if not query:
        raise ValueError("bug report is empty after tokenization")
    if len(files) == 1:
        # A lone file holds every term it has, so each idf is ln(1/1) = 0, both
        # vectors are zero and the general path below gives 0.0 too (the same
        # rule that zeroes a term shared by every file).
        return dict.fromkeys(files, 0.0)
    docs = {fid: Counter(tokenize(text)) for fid, text in files.items()}
    n = len(docs)
    df = Counter()
    for counts in docs.values():
        df.update(set(counts))
    idf = {term: math.log(n / df[term]) for term in df}

    def vec(counts: Counter) -> dict:
        return {t: c * idf[t] for t, c in counts.items() if t in idf}

    def dot(a: dict, b: dict) -> float:
        total = 0.0  # left to right: sum() compensates rounding from Python 3.12
        for t, w in a.items():
            total += w * b.get(t, 0.0)
        return total

    qv = vec(query)
    qnorm = math.sqrt(dot(qv, qv))
    scores = {}
    for fid, counts in docs.items():
        dv = vec(counts)
        dnorm = math.sqrt(dot(dv, dv))
        if qnorm == 0 or dnorm == 0:
            scores[fid] = 0.0
            continue
        scores[fid] = dot(qv, dv) / (qnorm * dnorm)
    return scores


@dataclass(frozen=True)
class Commit:
    timestamp: float
    message: str
    files: tuple

    def __post_init__(self):
        object.__setattr__(self, "files", tuple(self.files))

    @property
    def is_fix(self) -> bool:
        msg = self.message.lower()
        return "fix" in msg or "close" in msg


def recency_weight(t_norm: float) -> float:
    """Logistic hotspot weighting in (0, 1]; t_norm=1 (newest fix) gives 0.5."""
    return 1.0 / (1.0 + math.exp(-12.0 * t_norm + 12.0))


def _check_history(commits: list) -> None:
    """Raise ValueError unless the log is non-empty, with finite timestamps in time order."""
    if not commits:
        raise ValueError("empty history log")
    times = [c.timestamp for c in commits]
    if not all(-math.inf < t < math.inf for t in times) or times != sorted(times):
        raise ValueError("history log timestamps must be finite and non-decreasing")


def history_rank_files(commits: Iterable[Commit], now: float) -> dict:
    """Sum recency weights of each file's fix commits; no fix commits -> all zero."""
    commits = list(commits)
    _check_history(commits)
    fixes = [c for c in commits if c.is_fix]
    scores: dict = {f: 0.0 for c in commits for f in c.files}
    if fixes:
        oldest = fixes[0].timestamp
        span = now - oldest
        for c in fixes:
            t_norm = (c.timestamp - oldest) / span if span > 0 else 1.0
            w = recency_weight(t_norm)
            for f in c.files:
                scores[f] += w
    return scores


def commits_from_json(text: str) -> list[Commit]:
    """Parse {"commits": [{"ts", "msg", "files"}]}: a non-empty log, in time order, of finite ts."""
    commits = []
    for c in json.loads(text)["commits"]:
        ts, msg, files = c["ts"], c["msg"], c["files"]
        if type(ts) not in (int, float) or type(msg) is not str:
            raise TypeError("a commit's ts must be a number and its msg a string")
        if type(files) is not list or not all(type(f) is str for f in files):
            raise TypeError("a commit's files must be a list of strings")
        commits.append(Commit(ts, msg, tuple(files)))
    _check_history(commits)
    return commits


def propagate_file_scores(file_scores: Mapping, file_elements: Mapping[str, Iterable]) -> dict:
    """Every executable statement receives its file's score; unscored files give 0."""
    scores = {}
    for fid, elements in file_elements.items():
        score = file_scores.get(fid, 0.0)
        for elem in elements:
            scores[elem] = score
    return scores
