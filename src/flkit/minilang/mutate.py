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
from dataclasses import dataclass, fields, replace

from ..model import ProgramElement
from .parse import (
    ARITH_OPS,
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
    """Every applicable operator at every applicable site, lexical order, deduplicated."""
    # Sites are named by position in program.statements() and iter_exprs(),
    # which copying a statement's expressions preserves.
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
    statements = program.statements()
    for kind, s_pos, e_pos, payload, description in plans:
        stmt = statements[s_pos]
        mutated = None if kind == "sdl" else _copy_exprs(stmt)
        if kind in ("aor", "ror", "lor"):
            list(iter_exprs(mutated))[e_pos].op = payload
        elif kind == "cpm":
            list(iter_exprs(mutated))[e_pos].value = payload
        elif kind == "ncd":
            mutated.cond = Unary("!", mutated.cond, line=mutated.cond.line)
        key = (stmt.elem, kind if kind == "sdl" else _stmt_fingerprint(mutated))
        if key in seen:
            continue
        seen.add(key)
        variant = _replace_stmt(program, stmt, mutated)
        mutants.append(Mutant(f"m{len(mutants):03d}", stmt.elem, kind, description, variant))
    return mutants


def _copy_exprs(stmt: Stmt) -> Stmt:
    """A copy of ``stmt`` with its own expressions; nested statement lists are shared."""
    values = ((f.name, getattr(stmt, f.name)) for f in fields(stmt))
    return replace(stmt, **{k: copy.deepcopy(v) for k, v in values if isinstance(v, Expr)})


def _replace_stmt(program: Program, old: Stmt, new) -> Program:
    """``program`` with ``new`` for ``old`` (None deletes it), copying only the path to ``old``."""

    def rebuild(body: list):
        for i, s in enumerate(body):
            if s is old:
                return body[:i] + ([] if new is None else [new]) + body[i + 1 :]
            for name in ("then_body", "else_body", "body"):
                inner = rebuild(getattr(s, name, ()))
                if inner is not None:
                    return body[:i] + [replace(s, **{name: inner})] + body[i + 1 :]
        return None

    for name, fn in program.functions.items():
        body = rebuild(fn.body)
        if body is not None:
            return replace(program, functions={**program.functions, name: replace(fn, body=body)})
    raise KeyError("statement not found")
