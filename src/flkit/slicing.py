"""Backward dynamic slicing and the three multi-slice combinations."""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .minilang.interp import ExecutionTrace


def backward_slice(trace: ExecutionTrace, criterion_event: Optional[int] = None) -> frozenset:
    """Elements of the transitive closure over dynamic data and control dependences.

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
    return frozenset(trace.events[i].element for i in reached)


def combine_slices(slices: Sequence[frozenset]) -> dict:
    """Combine one slice per failed test into technique -> element -> score.

    Union and intersection are set outputs (members score 1); frequency scores
    each element by the fraction of slices containing it. With no slices all
    three are empty.
    """
    counts = Counter(e for members in slices for e in members)
    return {
        "slice-union": dict.fromkeys(counts, 1.0),
        "slice-intersection": {e: 1.0 for e, c in counts.items() if c == len(slices)},
        "slice-frequency": {e: c / len(slices) for e, c in counts.items()},
    }
