"""Shared data model: program elements and scores.

A technique's scores are a plain dict from element to score. Scores may be
+inf or -inf, never NaN; the expected-rank metric rejects NaN with a
ModelError. That metric counts a score dict directly; `ranked` orders one only
where a list is shown.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Mapping, Optional


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


def full_universe_ranking(scores: Mapping, universe: Iterable) -> dict:
    """The universe's scores in universe order; elements the technique left
    unscored get 0."""
    ranking = dict.fromkeys(universe, 0.0)
    outside = scores.keys() - ranking.keys()
    if outside:
        raise ModelError(f"scored elements outside universe: {sorted(map(str, outside))}")
    if not ranking:
        raise ModelError("cannot rank an empty scored list")
    ranking.update(scores)
    return ranking


def ranked(scores: Mapping) -> Iterator[tuple]:
    """(start, score, element) by decreasing score, for display. Tied elements
    share their group's 1-based start and are listed by str(element)."""
    start, last = 0, None
    order = sorted(scores.items(), key=lambda item: (-item[1], str(item[0])))
    for position, (elem, score) in enumerate(order, 1):
        if score != last:
            start, last = position, score
        yield start, score, elem


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
    inserted_after: Iterable[tuple[str, int]], elements: Iterable[ProgramElement]
) -> frozenset:
    """Map a patch's pure insertions onto faulty executable elements.

    An insertion between lines L and L+1 claims the first executable element
    after L; an insertion past the last executable element falls back to the
    nearest preceding one.
    """
    by_file: dict[str, list[ProgramElement]] = {}
    for e in elements:
        by_file.setdefault(e.file_id, []).append(e)
    for elems in by_file.values():
        elems.sort(key=lambda e: (e.line, e.stmt_index))

    faulty: set[ProgramElement] = set()
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
