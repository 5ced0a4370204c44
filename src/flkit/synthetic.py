"""Synthetic complementary corpus for exercising the technique combiner.

Two artificial techniques each rank the faulty element perfectly on a
disjoint half of the faults and score uniformly at random on the other half.
Either technique alone localizes half the corpus; a sensible combination
localizes most of it.
"""

from __future__ import annotations

import random

from .combine import FaultFeatures, build_features
from .metrics import expected_first_faulty_rank

TECHNIQUES = ("alpha", "beta")


def complementary_corpus(
    n_faults: int = 30, n_elements: int = 15, seed: int = 0
) -> tuple[list[FaultFeatures], dict]:
    """Returns (per-fault features, per-technique standalone scores)."""
    rng = random.Random(seed)
    features = []
    standalone: dict = {t: {} for t in TECHNIQUES}
    for i in range(n_faults):
        fault_id = f"s{i:03d}"
        elements = tuple(f"{fault_id}.e{j}" for j in range(n_elements))
        faulty = {rng.choice(elements)}
        perfect = "alpha" if i < n_faults // 2 else "beta"
        scores = {}
        for tech in TECHNIQUES:
            scores[tech] = {}
            for e in elements:
                if tech == perfect:
                    s = 1.0 if e in faulty else rng.uniform(0.0, 0.1)
                else:
                    s = rng.uniform(0.0, 1.0)
                scores[tech][e] = s
        standalone["alpha"][fault_id] = (scores["alpha"], faulty)
        standalone["beta"][fault_id] = (scores["beta"], faulty)
        features.append(
            build_features(fault_id, scores, elements, faulty, TECHNIQUES)
        )
    return features, standalone


def standalone_e_inspect(standalone: dict, technique: str) -> dict:
    """fault_id -> expected rank when using one technique alone."""
    out = {}
    for fault_id, (scored, faulty) in standalone[technique].items():
        out[fault_id] = expected_first_faulty_rank(scored, faulty)
    return out
