"""A small instrumented imperative language used as the fault-localization subject."""

from .parse import MiniSyntaxError, Program, parse
from .interp import ExecutionTrace, Outcome, TestCase, run
from .mutate import Mutant, gen_mutants

__all__ = [
    "ExecutionTrace",
    "MiniSyntaxError",
    "Mutant",
    "Outcome",
    "Program",
    "TestCase",
    "gen_mutants",
    "parse",
    "run",
]
