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

import copy
from dataclasses import dataclass

from ..model import ProgramElement
from .parse import (
    ARITH_OPS,
    Assign,
    Binary,
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
    """Every applicable operator at every applicable site, lexical order, deduplicated."""
    # Sites are named by position in program.statements() and iter_exprs(),
    # which a deep copy preserves.
    plans = []  # (kind, statement position, expression position or None, payload, description)
    for s_pos, stmt in enumerate(program.statements()):
        for e_pos, node in enumerate(iter_exprs(stmt)):
            if isinstance(node, Binary):
                if node.op in ARITH_OPS:
                    for op in ARITH_OPS:
                        if op != node.op:
                            plans.append(("aor", s_pos, e_pos, op, f"{node.op} -> {op}"))
                elif node.op in REL_OPS:
                    for op in REL_OPS:
                        if op != node.op:
                            plans.append(("ror", s_pos, e_pos, op, f"{node.op} -> {op}"))
                elif node.op in LOGIC_OPS:
                    other = "||" if node.op == "&&" else "&&"
                    plans.append(("lor", s_pos, e_pos, other, f"{node.op} -> {other}"))
            elif isinstance(node, Num):
                plans.append(("cpm", s_pos, e_pos, node.value + 1, f"{node.value} -> {node.value + 1}"))
                plans.append(("cpm", s_pos, e_pos, node.value - 1, f"{node.value} -> {node.value - 1}"))
        if isinstance(stmt, (Assign, ExprStmt)):
            plans.append(("sdl", s_pos, None, None, "delete statement"))
        if isinstance(stmt, (If, While)):
            plans.append(("ncd", s_pos, None, None, "negate condition"))

    mutants = []
    seen: set[tuple] = set()
    for kind, s_pos, e_pos, payload, description in plans:
        mutated = copy.deepcopy(program)
        stmt = mutated.statements()[s_pos]
        if kind in ("aor", "ror", "lor"):
            list(iter_exprs(stmt))[e_pos].op = payload
        elif kind == "cpm":
            list(iter_exprs(stmt))[e_pos].value = payload
        elif kind == "sdl":
            _delete_stmt(mutated, stmt)
        elif kind == "ncd":
            stmt.cond = Unary("!", stmt.cond, line=stmt.cond.line)
        else:
            raise AssertionError(kind)
        target = stmt.elem
        key = (target, kind if kind == "sdl" else _stmt_fingerprint(stmt))
        if key in seen:
            continue
        seen.add(key)
        mutants.append(
            Mutant(f"m{len(mutants):03d}", target, kind, description, mutated)
        )
    return mutants


def _delete_stmt(program: Program, stmt: Stmt):
    def prune(body: list) -> bool:
        for i, s in enumerate(body):
            if s is stmt:
                del body[i]
                return True
            if isinstance(s, If):
                if prune(s.then_body) or prune(s.else_body):
                    return True
            elif isinstance(s, While):
                if prune(s.body):
                    return True
        return False

    for fn in program.functions.values():
        if prune(fn.body):
            return
    raise KeyError("statement not found for deletion")
