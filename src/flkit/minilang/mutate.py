"""First-order mutant generation for the mini language.

Operator table (an explicit extension point, not a fixed standard set):
  aor  arithmetic operator replacement  (+ - * / % -> each other)
  ror  relational operator replacement  (== != < <= > >= -> each other)
  lor  logical operator replacement     (&& <-> ||)
  cpm  constant perturbation            (c -> c+1, c -> c-1)
  sdl  statement deletion               (assignments and expression statements)
  ncd  negate condition                 (if/while cond -> !cond)
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


def _stmt_fingerprint(stmt: Stmt) -> str:
    parts = [type(stmt).__name__]
    for node in iter_exprs(stmt):
        label = type(node).__name__
        for attr in ("op", "value", "name"):
            if hasattr(node, attr):
                label += f":{getattr(node, attr)}"
        parts.append(label)
    return "|".join(parts)


def gen_mutants(program: Program) -> list[Mutant]:
    """Every applicable operator at every applicable site, lexical order, deduplicated.

    A mutant shares with ``program`` every node except the mutated one and its
    ancestors, which it copies."""
    plans = []  # (kind, statement, expression node or None, payload, description)
    for stmt in program.statements():
        for node in iter_exprs(stmt):
            if isinstance(node, Binary):
                if node.op in ARITH_OPS:
                    for op in ARITH_OPS:
                        if op != node.op:
                            plans.append(("aor", stmt, node, op, f"{node.op} -> {op}"))
                elif node.op in REL_OPS:
                    for op in REL_OPS:
                        if op != node.op:
                            plans.append(("ror", stmt, node, op, f"{node.op} -> {op}"))
                elif node.op in LOGIC_OPS:
                    other = "||" if node.op == "&&" else "&&"
                    plans.append(("lor", stmt, node, other, f"{node.op} -> {other}"))
            elif isinstance(node, Num):
                plans.append(("cpm", stmt, node, node.value + 1, f"{node.value} -> {node.value + 1}"))
                plans.append(("cpm", stmt, node, node.value - 1, f"{node.value} -> {node.value - 1}"))
        if isinstance(stmt, (Assign, ExprStmt)):
            plans.append(("sdl", stmt, None, None, "delete statement"))
        if isinstance(stmt, (If, While)):
            plans.append(("ncd", stmt, None, None, "negate condition"))

    mutants = []
    seen: set[tuple] = set()
    for kind, stmt, node, payload, description in plans:
        if kind == "sdl":
            mutated = None
        elif kind == "ncd":
            mutated = replace(stmt, cond=Unary("!", stmt.cond, line=stmt.cond.line))
        else:
            changed = replace(node, **{"value" if kind == "cpm" else "op": payload})
            mutated = _swap(stmt, node, changed, Expr)
        key = (stmt.elem, kind if kind == "sdl" else _stmt_fingerprint(mutated))
        if key in seen:
            continue
        seen.add(key)
        variant = _replace_stmt(program, stmt, mutated)
        mutants.append(Mutant(f"m{len(mutants):03d}", stmt.elem, kind, description, variant))
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
