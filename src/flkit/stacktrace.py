"""Crash-fault scoring from stack frames: the frame at depth d scores 1/d."""

from __future__ import annotations

from typing import Iterable

from .minilang.interp import CRASH, ExecutionTrace
from .model import ProgramElement


def method_scores_from_frames(frame_lists: Iterable[Iterable]) -> dict:
    """Max over failed tests of 1/depth per method, where a crash stack lists
    method ids innermost first (depth 1). Non-crash lists are empty."""
    scores: dict = {}
    for frames in frame_lists:
        for depth, method_id in enumerate(frames, 1):
            score = 1.0 / depth
            if score > scores.get(method_id, 0.0):
                scores[method_id] = score
    return scores


def score_stack_traces(
    failed_traces: Iterable[ExecutionTrace], elements: Iterable[ProgramElement]
) -> dict:
    """Score methods from crash stacks and give each statement in `elements`
    the score of its method_id.

    Assertion failures come from the test harness, not the program, so they
    contribute nothing; with no crashes at all the scores are empty.
    """
    frame_lists = [
        t.outcome.stack for t in failed_traces if t.outcome.status == CRASH
    ]
    methods = method_scores_from_frames(frame_lists)
    return {e: methods[e.method_id] for e in elements if e.method_id in methods}
