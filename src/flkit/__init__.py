"""Fault-localization toolkit.

Seven fault-localization families over a small instrumented subject language,
tie-aware expected-rank evaluation metrics, and a learning-to-rank combiner.
"""

from .model import (
    ProgramElement,
    adjust_ground_truth_for_insertions,
    full_universe_ranking,
    lift_to_method_granularity,
    parse_element_key,
)
from .metrics import (
    CorrelationUndefinedError,
    NotLocalizedError,
    e_inspect_at_n,
    expected_first_faulty_rank,
    r_squared,
)
from .sbfl import build_spectrum, dstar, ochiai
from .mbfl import metallaxis_mutant_score, muse_mutant_score
from .slicing import backward_slice, combine_slices
from .combine import (
    RankModel,
    build_features,
    build_pairwise_constraints,
    cross_project_cv,
    kfold_cv,
    normalize,
    predict,
    train,
)

__version__ = "0.1.0"
