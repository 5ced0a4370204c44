"""First-order mutant generation for the mini language.

Operator table (an explicit extension point, not a fixed standard set):
  aor  arithmetic operator replacement  (+ - * / % -> each other)
  ror  relational operator replacement  (== != < <= > >= -> each other)
  lor  logical operator replacement     (&& <-> ||)
  cpm  constant perturbation            (c -> c+1, c -> c-1)
  sdl  statement deletion               (assignments and expression statements)
  ncd  negate condition                 (if/while cond -> !cond)

No two mutants are alike, so none is deduplicated: each changes one node's
operator or constant to a different one, wraps one condition in ``!``, or
deletes one statement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..model import ProgramElement
from .parse import (
    ARITH_OPS,
    CHILD_FIELDS,
    Assign,
    Binary,
    Expr,
    ExprStmt,
    If,
    LOGIC_OPS,
    Num,
    Program,
    REL_OPS,
    Stmt,
    Unary,
    While,
    iter_exprs,
)


@dataclass(frozen=True)
class Mutant:
    mutant_id: str
    element: ProgramElement  # the statement the mutation lives in
    operator: str
    description: str
    program: Program


# Binary operator -> (its operator group, mutation operator name).
_GROUPS = {
    op: (group, name)
    for group, name in ((ARITH_OPS, "aor"), (REL_OPS, "ror"), (LOGIC_OPS, "lor"))
    for op in group
}


def gen_mutants(program: Program) -> list[Mutant]:
    """Every applicable operator at every applicable site, in lexical order.

    A mutant shares with ``program`` every node except the mutated one and its
    ancestors, which it copies."""
    mutants = []

    def add(stmt: Stmt, operator: str, description: str, mutated) -> None:
        variant = _replace_stmt(program, stmt, mutated)
        mutants.append(Mutant(f"m{len(mutants):03d}", stmt.elem, operator, description, variant))

    for stmt in program.statements():
        for node in iter_exprs(stmt):
            if isinstance(node, Binary):
                group, name = _GROUPS[node.op]
                for op in group:
                    if op != node.op:
                        mutated = _swap(stmt, node, replace(node, op=op), Expr)
                        add(stmt, name, f"{node.op} -> {op}", mutated)
            elif isinstance(node, Num):
                for value in (node.value + 1, node.value - 1):
                    mutated = _swap(stmt, node, replace(node, value=value), Expr)
                    add(stmt, "cpm", f"{node.value} -> {value}", mutated)
        if isinstance(stmt, (Assign, ExprStmt)):
            add(stmt, "sdl", "delete statement", None)
        if isinstance(stmt, (If, While)):
            negated = replace(stmt, cond=Unary("!", stmt.cond, line=stmt.cond.line))
            add(stmt, "ncd", "negate condition", negated)
    return mutants


def _swap(node, old, new, kind: type):
    """``node`` with ``new`` for ``old`` (None deletes a statement), copying only
    the ancestors of ``old``, a node of ``kind`` (Expr or Stmt). None when ``old``
    is not inside ``node``."""
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        items = value if type(value) is list else [value]
        for i, item in enumerate(items):
            if item is old:
                inner = [] if new is None else [new]
            elif isinstance(item, kind) and (copied := _swap(item, old, new, kind)) is not None:
                inner = [copied]
            else:
                continue
            items = items[:i] + inner + items[i + 1 :]
            return replace(node, **{name: items if type(value) is list else items[0]})
    return None


def _replace_stmt(program: Program, old: Stmt, new) -> Program:
    """``program`` with ``new`` for ``old`` (None deletes it), copying only the path to ``old``."""
    for name, fn in program.functions.items():
        copied = _swap(fn, old, new, Stmt)
        if copied is not None:
            return replace(program, functions={**program.functions, name: copied})
    raise KeyError("statement not found")
