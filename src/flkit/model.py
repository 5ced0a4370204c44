"""Shared data model: program elements, scores and tie-aware rankings.

A technique's scores are a plain dict from element to score. Scores may be
+inf or -inf, never NaN; a ranking rejects NaN with a ModelError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, Optional, Sequence


class ModelError(Exception):
    """Invalid construction or use of a model object."""


class ProgramElement(tuple):
    """A statement location: (file_id, line, stmt_index), optionally inside a method.

    stmt_index distinguishes multiple statements starting on the same line.
    The element is the tuple (file_id, line, stmt_index), so hashing and
    equality run in C: it equals the plain 3-tuple, hashes as
    hash((file_id, line, stmt_index)), sorts like it and serializes to JSON as
    a list. method_id is an attribute outside the tuple, so that score
    sources that do and do not annotate methods can be joined. Elements are
    immutable.
    """

    def __new__(cls, file_id: str, line: int, stmt_index: int = 0, method_id: Optional[str] = None):
        if line < 1:
            raise ModelError(f"line must be positive, got {line}")
        if stmt_index < 0:
            raise ModelError(f"stmt_index must be non-negative, got {stmt_index}")
        self = tuple.__new__(cls, (file_id, line, stmt_index))
        self.__dict__["method_id"] = method_id
        return self

    file_id = property(itemgetter(0))
    line = property(itemgetter(1))
    stmt_index = property(itemgetter(2))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getnewargs__(self):
        return (*self, self.method_id)

    @property
    def key(self) -> str:
        return f"{self[0]}:{self[1]}:{self[2]}"

    def __str__(self) -> str:
        return self.key

    def __repr__(self) -> str:
        file_id, line, stmt_index = self
        return (
            f"ProgramElement(file_id={file_id!r}, line={line!r},"
            f" stmt_index={stmt_index!r}, method_id={self.method_id!r})"
        )


def parse_element_key(key: str) -> ProgramElement:
    """Parse a "file:line:idx" element id."""
    parts = key.rsplit(":", 2) if isinstance(key, str) else ()
    if len(parts) != 3:
        raise ModelError(f"malformed element id {key!r}")
    file_id, line, idx = parts
    try:
        return ProgramElement(file_id, int(line), int(idx))
    except ValueError as exc:
        raise ModelError(f"malformed element id {key!r}") from exc


@dataclass(frozen=True)
class Ranking:
    """Tie-groups in strictly decreasing score order, with 1-based start positions."""

    groups: tuple  # tuple of frozensets
    start_positions: tuple
    scores: tuple

    def __post_init__(self):
        if not len(self.groups) == len(self.start_positions) == len(self.scores):
            raise ModelError("groups, start positions and scores differ in length")
        if not all(self.groups):
            raise ModelError("empty tie-group")
        pos = 1
        for group, start in zip(self.groups, self.start_positions):
            if start != pos:
                raise ModelError("start positions inconsistent with group sizes")
            pos += len(group)
        for a, b in zip(self.scores, self.scores[1:]):
            if not a > b:
                raise ModelError("group scores must strictly decrease")


def _group(entries: Iterable) -> Ranking:
    """Group (element, score) pairs, no element twice, by exact score equality."""
    by_score: dict = {}
    for elem, score in entries:
        by_score.setdefault(score, []).append(elem)
    if not by_score:
        raise ModelError("cannot rank an empty scored list")
    for score, members in by_score.items():
        if math.isnan(score):
            raise ModelError(f"NaN score for {members[0]}")
    groups = []
    starts = []
    pos = 1
    scores = sorted(by_score, reverse=True)
    for score in scores:
        members = by_score[score]
        groups.append(frozenset(members))
        starts.append(pos)
        pos += len(members)
    return Ranking(tuple(groups), tuple(starts), tuple(scores))


def rank_elements(scores: Mapping) -> Ranking:
    """Group elements by exact score equality, ordered by decreasing score.

    +inf sorts above every finite score and forms its own tie-group.
    """
    return _group(scores.items())


def full_universe_ranking(scores: Mapping, universe: Iterable) -> Ranking:
    """Rank the whole element universe; elements the technique left unscored get 0."""
    universe = set(universe)
    outside = scores.keys() - universe
    if outside:
        raise ModelError(f"scored elements outside universe: {sorted(map(str, outside))}")
    return _group((e, scores.get(e, 0.0)) for e in universe)


def lift_to_method_granularity(scores: Mapping, method_of: Mapping[Hashable, str]) -> dict:
    """Lift statement scores to methods: a method scores the max of its statements."""
    out: dict = {}
    for elem, score in scores.items():
        try:
            method = method_of[elem]
        except KeyError:
            raise ModelError(f"element {elem} has no method mapping") from None
        if method not in out or score > out[method]:
            out[method] = score
    return out


def adjust_ground_truth_for_insertions(
    modified: Iterable[tuple[str, int]],
    inserted_after: Iterable[tuple[str, int]],
    elements: Iterable[ProgramElement],
) -> frozenset:
    """Map a patch onto faulty executable elements.

    Modified or deleted lines claim every element on that line. A pure
    insertion between lines L and L+1 claims the first executable element
    after L; an insertion past the last executable element falls back to the
    nearest preceding one.
    """
    by_file: dict[str, list[ProgramElement]] = {}
    for e in elements:
        by_file.setdefault(e.file_id, []).append(e)
    for elems in by_file.values():
        elems.sort(key=lambda e: (e.line, e.stmt_index))

    faulty: set[ProgramElement] = set()
    for file_id, line in modified:
        faulty.update(e for e in by_file.get(file_id, ()) if e.line == line)
    for file_id, line in inserted_after:
        elems = by_file.get(file_id, [])
        following = [e for e in elems if e.line > line]
        if following:
            faulty.add(following[0])
        else:
            preceding = [e for e in elems if e.line <= line]
            if preceding:
                faulty.add(preceding[-1])
    if not faulty:
        raise ModelError("patch maps to no executable element")
    return frozenset(faulty)
