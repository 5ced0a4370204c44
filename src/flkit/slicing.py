"""Backward dynamic slicing and multi-slice combination strategies."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .minilang.interp import ExecutionTrace


class Strategy(Enum):
    UNION = "union"
    INTERSECTION = "intersection"
    FREQUENCY = "frequency"


@dataclass(frozen=True)
class DynamicSlice:
    criterion_element: object
    criterion_event: int
    members: frozenset  # elements


def backward_slice(trace: ExecutionTrace, criterion_event: Optional[int] = None) -> DynamicSlice:
    """Transitive closure over dynamic data and control dependences.

    Defaults to the trace's failure-raising event as the criterion.
    """
    if criterion_event is None:
        criterion_event = trace.criterion_event
    if criterion_event is None or not (0 <= criterion_event < len(trace.events)):
        raise ValueError(f"criterion event {criterion_event} not in trace")
    worklist = [criterion_event]
    reached = {criterion_event}
    while worklist:
        ev = trace.events[worklist.pop()]
        successors = set(ev.deps)
        if ev.control is not None:
            successors.add(ev.control)
        for idx in successors:
            if idx not in reached:
                reached.add(idx)
                worklist.append(idx)
    members = frozenset(trace.events[i].element for i in reached)
    return DynamicSlice(trace.events[criterion_event].element, criterion_event, members)


def combine_slices(slices: Iterable[DynamicSlice], strategy: Strategy) -> dict:
    """Combine one slice per failed test.

    Union and intersection are set outputs (members score 1); frequency scores
    each element by the fraction of slices containing it.
    """
    slices = list(slices)
    if not slices:
        raise ValueError("need at least one slice")
    if strategy is Strategy.UNION:
        return dict.fromkeys(frozenset().union(*(s.members for s in slices)), 1.0)
    if strategy is Strategy.INTERSECTION:
        return dict.fromkeys(frozenset.intersection(*(s.members for s in slices)), 1.0)
    counts = Counter(e for s in slices for e in s.members)
    return {e: c / len(slices) for e, c in counts.items()}
