"""Fault-localization toolkit.

Seven fault-localization families over a small instrumented subject language,
tie-aware expected-rank evaluation metrics, and a learning-to-rank combiner.
"""

__version__ = "0.1.0"
