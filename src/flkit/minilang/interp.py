"""Instrumented tree-walking interpreter.

Every executed statement (and every dynamic predicate evaluation) produces one
trace event recording its element, the trace positions of the events it
depends on (dynamic data dependences, including values returned by calls), and
its dynamic control parent. Predicate evaluations can be individually inverted
for predicate switching.

A loop whose variables repeat at its head ends as a "budget" crash there, as it
would after running out of steps. Nothing else can change while it runs: there
are no globals, arrays are never changed in place, callees see only their
arguments and outer frames are suspended. So the loop's future depends only on
its frame's variables, and a repeat can never end. Each loop execution keeps
one snapshot, re-saved on laps 1, 2, 4, 8, ... (Brent's cycle detection), and
the rule is off while a requested predicate flip is still pending.

The comparison leaves out the loop's accumulators: variables assigned in its
body, at any depth, only as `v = v + e` or `v = v - e`, never declared there,
and read nowhere else in the loop (not by the predicate, a condition, an index,
a call argument, a return or a right-hand side, another accumulator's e
included). The one exception, the drift variable, is read by the predicate as
`v REL e` or `!(v REL e)`, with REL one of < <= > >= and e reading no
accumulator. Once the rest of the state repeats, every later period repeats its
branches, calls and crashes and adds the same amount to each accumulator. So
the loop stops only if neither new outcome can come: no overflow, because each
accumulator is back at its value at the snapshot or has |v| + steps left × M
<= INT_LIMIT, where M is the largest |e| of a literal e at the loop's
accumulator sites or that any `v = v ± e` with a non-literal e, inside a loop,
has added in the run; and no exit, because the drift variable has moved since
the snapshot the way that keeps the predicate true (down or not at all under <
and <=, up under > and >=, the reverse under !). Each While node is classified
once, by one recursive walk, and the result is cached on the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..model import ProgramElement
from .parse import (
    ArrayLit,
    Assert,
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    Function,
    If,
    Index,
    Num,
    Program,
    Return,
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
)

# Steps before a run crashes with "budget". A loop whose variables repeat at
# its head, leaving out accumulators that cannot change its outcome, crashes
# with "budget" at once (see the module docstring).
STEP_BUDGET = 10**6

# Re-executions (mutants, predicate flips) can loop forever, so each gets
# REEXEC_STEP_FACTOR × steps + REEXEC_STEP_SLACK, PIT's timeout shape, where steps is the
# longest original run among the fault's tests: a failing test may stop early, but a flip
# or mutant that repairs it runs like a passing one. The tightest corpus run that ends on
# its own, on a fault whose longest test runs 10 steps, overflows at step 255.
REEXEC_STEP_FACTOR = 10
REEXEC_STEP_SLACK = 250


def reexec_step_budget(originals) -> int:
    """Step budget for re-executing any test of a fault with these original runs."""
    longest = max(len(trace.events) for trace in originals)
    return min(STEP_BUDGET, REEXEC_STEP_FACTOR * longest + REEXEC_STEP_SLACK)


# Mini-language call depth that crashes with "stack-overflow". A call costs
# about six Python frames, so this trips well before Python's own recursion
# limit, and the outcome does not depend on how deep run() is called from.
MAX_CALL_DEPTH = 100

# Integer magnitude trap; keeps runaway mutants (e.g. squaring in a loop)
# from producing astronomically large bignums before the step budget hits.
INT_LIMIT = 2**63

PASS = "pass"
ASSERT_FAIL = "assertfail"
CRASH = "crash"


@dataclass(frozen=True)
class Outcome:
    status: str  # PASS | ASSERT_FAIL | CRASH
    crash_kind: Optional[str] = None
    stack: tuple = ()  # method ids, innermost first; crashes only


@dataclass(frozen=True)
class Event:
    element: ProgramElement
    deps: frozenset  # trace positions of events this one data-depends on
    control: Optional[int]  # trace position of the controlling branch event


@dataclass(frozen=True)
class TestCase:
    test_id: str
    entry: str
    args: tuple
    expect: Any  # concrete value, or the string "pass" for run-to-completion

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class ExecutionTrace:
    test_id: str
    outcome: Outcome
    covered: frozenset
    events: tuple
    predicate_instances: tuple  # (pred_id, occurrence, taken_branch)
    criterion_event: Optional[int]  # failure-raising event (return event on Pass)
    value: Any = None
    flip_applied: bool = True  # False when a requested flip occurrence was never reached

    @property
    def failed(self) -> bool:
        return self.outcome.status != PASS

    def signature(self) -> tuple:
        """Observable output, used for mutant-kill output comparison."""
        if self.outcome.status == CRASH:
            return (CRASH, self.outcome.crash_kind)
        if self.outcome.status == ASSERT_FAIL:
            elem = self.events[self.criterion_event].element if self.criterion_event is not None else None
            return (ASSERT_FAIL, elem, _freeze(self.value))
        return (PASS, _freeze(self.value))


def _same_types(a, b) -> bool:
    """Whether two values, or two frames' variables, that compare equal also
    match in type throughout: 1 == True in Python, but not in the language."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return all(_same_types(v, b[k]) for k, v in a.items())
    return type(a) is not list or all(map(_same_types, a, b))


# Under `v REL e`, the sign of a drift of v that keeps the predicate true.
_HOLDING_DRIFT = {"<": -1, "<=": -1, ">": 1, ">=": 1}


def _classify(loop: While) -> tuple:
    """(accumulators, drift variable or None, its holding sign, the largest |e|
    of a literal e at an accumulator site) of a loop (module docstring), cached
    on the node as _shape."""
    reads, sites, fixed = set(), [], set()
    cond, sign, drift = loop.cond, 1, None
    if type(cond) is Unary and cond.op == "!":
        cond, sign = cond.operand, -1
    if type(cond) is Binary and cond.op in _HOLDING_DRIFT and type(cond.left) is Var:
        drift, sign, cond = cond.left.name, sign * _HOLDING_DRIFT[cond.op], cond.right
    _scan([cond, loop.body], reads, sites, fixed)
    growing = {site.target for site in sites} - fixed - reads
    literal_step = max(
        (abs(site.value.right.value) for site in sites if site.target in growing and not site.grows),
        default=0,
    )
    loop._shape = (sorted(growing), drift if drift in growing else None, sign, literal_step)
    return loop._shape


def _scan(node, reads: set, sites: list, fixed: set):
    """Add the names node reads to reads, its `v = v + e` and `v = v - e`
    statements to sites, and the names it otherwise assigns or declares to fixed.
    Marks each site whose e is not a literal as one whose steps the interpreter
    tracks. The mark depends on the site alone, not on the loop: programs that
    share the node (a mutant and its original) must run it alike."""
    kind = type(node)
    if kind is Var:
        reads.add(node.name)
    elif kind is list:
        for item in node:
            _scan(item, reads, sites, fixed)
    elif isinstance(node, (Expr, Stmt)):
        if kind is Assign:
            value = node.value
            step = node.index is None and type(value) is Binary and value.op in ("+", "-")
            if step and type(value.left) is Var and value.left.name == node.target:
                sites.append(node)
                node.grows = type(value.right) is not Num
                _scan(value.right, reads, sites, fixed)
                return
            fixed.add(node.target)
        elif kind is VarDecl:
            fixed.add(node.name)
        # Fields by name: vars(node) would give the node a dict of its own,
        # which makes every later attribute read on it slower.
        for name in node.__dataclass_fields__:
            _scan(getattr(node, name), reads, sites, fixed)


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


class _Crash(Exception):
    def __init__(self, kind):
        self.kind = kind


class _AssertFailed(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value, event_index):
        self.value = value
        self.event_index = event_index


@dataclass
class _Frame:
    function: str
    env: dict
    var_events: dict  # name -> defining event index
    control: list  # the call-site event, then the enclosing branch events


class _Interp:
    def __init__(self, program: Program, flip=None, step_budget=STEP_BUDGET):
        self.program = program
        self.flip = flip  # (pred_id, occurrence) or None
        self.flip_applied = False
        self.step_budget = step_budget
        # An Event per finished statement; a pending (element, control) pair
        # while its dependences are still being evaluated.
        self.events: list = []
        self.predicate_instances: list[tuple] = []
        self.pred_counts: dict[str, int] = {}
        self.frames: list[_Frame] = []
        self.largest_step = 0  # the largest |e| a marked site has added

    # -- event bookkeeping --

    def new_event(self, elem: ProgramElement) -> int:
        events = self.events
        idx = len(events)
        if idx >= self.step_budget:
            raise _Crash("budget")
        events.append((elem, self.frames[-1].control[-1]))
        return idx

    def finish_event(self, idx: int, deps):
        elem, control = self.events[idx]
        self.events[idx] = Event(elem, frozenset(deps), control)

    def settle_events(self):
        """Turn each pair an exception left pending into an Event with no deps."""
        events = self.events
        for idx, ev in enumerate(events):
            if type(ev) is tuple:
                events[idx] = Event(ev[0], frozenset(), ev[1])

    # -- expression evaluation: returns (value, deps) --

    def eval(self, expr: Expr):
        kind = type(expr)
        if kind is Var:
            frame = self.frames[-1]
            name = expr.name
            if name not in frame.env:
                raise _Crash("undefined-var")
            defined = frame.var_events.get(name)
            return frame.env[name], (set() if defined is None else {defined})
        if kind is Num or kind is BoolLit:
            return expr.value, set()
        if kind is Binary:
            return self.eval_binary(expr)
        if kind is Index:
            base, deps = self.eval(expr.base)
            idx, d2 = self.eval(expr.index)
            deps |= d2
            if type(base) is not list or type(idx) is not int:
                raise _Crash("type")
            if idx < 0 or idx >= len(base):
                raise _Crash("bounds")
            return base[idx], deps
        if kind is Unary:
            value, deps = self.eval(expr.operand)
            if expr.op == "-":
                self.require_int(value)
                return -value, deps
            self.require_bool(value)
            return (not value), deps
        if kind is Call:
            return self.eval_call(expr)
        if kind is ArrayLit:
            items = []
            deps: set = set()
            for item in expr.items:
                v, d = self.eval(item)
                items.append(v)
                deps |= d
            return items, deps
        raise AssertionError(f"unhandled expr {expr!r}")

    def eval_binary(self, expr: Binary):
        op = expr.op
        if op == "&&" or op == "||":
            left, deps = self.eval(expr.left)
            self.require_bool(left)
            if (op == "&&" and not left) or (op == "||" and left):
                return left, deps
            right, d2 = self.eval(expr.right)
            self.require_bool(right)
            return right, deps | d2
        left, deps = self.eval(expr.left)
        right, d2 = self.eval(expr.right)
        deps |= d2
        if op in ("==", "!="):
            eq = left == right
            return (eq if op == "==" else not eq), deps
        if type(left) is not int or type(right) is not int:
            raise _Crash("type")
        if op == "+":
            return self.checked(left + right), deps
        if op == "-":
            return self.checked(left - right), deps
        if op == "<":
            return left < right, deps
        if op == "<=":
            return left <= right, deps
        if op == ">":
            return left > right, deps
        if op == ">=":
            return left >= right, deps
        if op == "*":
            return self.checked(left * right), deps
        if op == "/":
            if right == 0:
                raise _Crash("div0")
            return int(left / right) if (left < 0) != (right < 0) else left // right, deps
        if op == "%":
            if right == 0:
                raise _Crash("div0")
            return left - right * (int(left / right) if (left < 0) != (right < 0) else left // right), deps
        raise AssertionError(f"unhandled operator {op}")

    def eval_call(self, expr: Call):
        fn: Function = self.program.functions[expr.name]
        if len(expr.args) != len(fn.params):
            raise _Crash("arity")
        values = []
        deps: set = set()
        for arg in expr.args:
            v, d = self.eval(arg)
            values.append(v)
            deps |= d
        call_event = self.current_event
        frame = _Frame(
            fn.name,
            dict(zip(fn.params, values)),
            {p: call_event for p in fn.params},
            [call_event],
        )
        if len(self.frames) >= MAX_CALL_DEPTH:
            raise _Crash("stack-overflow")
        self.frames.append(frame)
        try:
            self.exec_body(fn.body)
            value = 0  # fell off the end of the function: implicit return 0 with no event
        except _ReturnSignal as ret:
            value = ret.value
            deps.add(ret.event_index)
        # A crash propagates past this point without unwinding self.frames,
        # deliberately: crash_stack() needs the frames as they were.
        self.frames.pop()
        # A later call in the same statement has the same call site.
        self.current_event = call_event
        return value, deps

    @staticmethod
    def checked(value: int) -> int:
        if value > INT_LIMIT or value < -INT_LIMIT:
            raise _Crash("overflow")
        return value

    @staticmethod
    def require_int(value):
        if type(value) is not int:  # excludes bool: type(True) is bool
            raise _Crash("type")

    @staticmethod
    def require_bool(value):
        if type(value) is not bool:
            raise _Crash("type")

    # -- statements --

    def exec_body(self, body):
        for stmt in body:
            self.exec_stmt(stmt)

    def eval_predicate(self, stmt) -> tuple[bool, set]:
        value, deps = self.eval(stmt.cond)
        self.require_bool(value)
        pred_id = stmt.pred_id
        occurrence = self.pred_counts.get(pred_id, 0)
        self.pred_counts[pred_id] = occurrence + 1
        if self.flip is not None and self.flip == (pred_id, occurrence):
            value = not value
            self.flip_applied = True
        self.predicate_instances.append((pred_id, occurrence, value))
        return value, deps

    def exec_stmt(self, stmt: Stmt):
        frame = self.frames[-1]
        idx = self.current_event = self.new_event(stmt.elem)
        kind = type(stmt)
        if kind is Assign:
            value, deps = self.eval(stmt.value)
            target = stmt.target
            if stmt.index is not None:
                pos, d2 = self.eval(stmt.index)
                deps |= d2
                if target not in frame.env:
                    raise _Crash("undefined-var")
                if target in frame.var_events:
                    deps.add(frame.var_events[target])
                arr = frame.env[target]
                if type(arr) is not list:
                    raise _Crash("type")
                self.require_int(pos)
                if pos < 0 or pos >= len(arr):
                    raise _Crash("bounds")
                arr = list(arr)
                arr[pos] = value
                frame.env[target] = arr
            else:
                if target not in frame.env:
                    raise _Crash("undefined-var")
                if getattr(stmt, "grows", False):
                    self.largest_step = max(self.largest_step, abs(value - frame.env[target]))
                frame.env[target] = value
            frame.var_events[target] = idx
            self.finish_event(idx, deps)
        elif kind is While:
            value, deps = self.eval_predicate(stmt)
            self.finish_event(idx, deps)
            control, env = frame.control, frame.env
            growing, drift, sign, literal_step = getattr(stmt, "_shape", None) or _classify(stmt)
            lap, next_save, saved, start, before = 0, 1, None, None, None
            while value:
                # A repeat loops forever unless an accumulator could overflow or
                # the drift variable is heading for the exit (module docstring).
                if saved is not None and (drift is None or (env[drift] - start) * sign >= 0):
                    if before is None:  # the snapshot's values, kept before they are overwritten
                        before = tuple(map(saved.get, growing))
                    for name in growing:
                        if name in env:  # one that is undefined stays so
                            saved[name] = env[name]
                    same = env == saved and _same_types(env, saved)
                    if same and self.cannot_overflow(env, growing, before, literal_step):
                        raise _Crash("budget")
                lap += 1
                if lap == next_save:
                    next_save *= 2
                    # While a flip is pending, pred_counts matter too: no snapshot.
                    if self.flip is None or self.flip_applied:
                        saved, start, before = dict(env), env.get(drift), None
                control.append(idx)
                try:
                    self.exec_body(stmt.body)
                finally:
                    control.pop()
                idx = self.current_event = self.new_event(stmt.elem)
                value, deps = self.eval_predicate(stmt)
                self.finish_event(idx, deps)
        elif kind is If:
            value, deps = self.eval_predicate(stmt)
            self.finish_event(idx, deps)
            frame.control.append(idx)
            try:
                self.exec_body(stmt.then_body if value else stmt.else_body)
            finally:
                frame.control.pop()
        elif kind is VarDecl:
            value, deps = self.eval(stmt.init) if stmt.init is not None else (0, ())
            frame.env[stmt.name] = value
            frame.var_events[stmt.name] = idx
            self.finish_event(idx, deps)
        elif kind is Return:
            value, deps = self.eval(stmt.value) if stmt.value is not None else (0, ())
            self.finish_event(idx, deps)
            raise _ReturnSignal(value, idx)
        elif kind is Assert:
            value, deps = self.eval(stmt.cond)
            self.require_bool(value)
            self.finish_event(idx, deps)
            if not value:
                raise _AssertFailed()
        elif kind is ExprStmt:
            _, deps = self.eval(stmt.expr)
            self.finish_event(idx, deps)
        else:
            raise AssertionError(f"unhandled statement {stmt!r}")

    def cannot_overflow(self, env, growing, before, literal_step) -> bool:
        """Whether no accumulator can pass INT_LIMIT in the steps left. One back at
        its value before the period replays that period's values; one that is
        undefined or not an int is never added to, as that crashes; any other
        moves at most M a step (module docstring), as the period it replays
        added nothing larger."""
        limit = INT_LIMIT - (self.step_budget - len(self.events)) * max(self.largest_step, literal_step)
        values = map(env.get, growing)
        return all(v == b or type(v) is not int or abs(v) <= limit for v, b in zip(values, before))

    def crash_stack(self) -> tuple:
        return tuple(frame.function for frame in reversed(self.frames))


def run(
    program: Program,
    test: TestCase,
    flip: Optional[tuple[str, int]] = None,
    step_budget: int = STEP_BUDGET,
) -> ExecutionTrace:
    """Execute one test, optionally inverting a single dynamic predicate instance."""
    if test.entry not in program.functions:
        raise ValueError(f"entry function {test.entry!r} not defined")
    interp = _Interp(program, flip=flip, step_budget=step_budget)
    fn = program.functions[test.entry]
    if len(test.args) != len(fn.params):
        raise ValueError(f"{test.entry} expects {len(fn.params)} args, got {len(test.args)}")
    args = [list(a) if isinstance(a, (list, tuple)) else a for a in test.args]
    interp.frames.append(_Frame(fn.name, dict(zip(fn.params, args)), {}, [None]))
    interp.current_event = None
    value = None
    criterion = None
    try:
        try:
            interp.exec_body(fn.body)
            value = 0
            criterion = len(interp.events) - 1 if interp.events else None
        except _ReturnSignal as ret:
            value = ret.value
            criterion = ret.event_index
        except RecursionError:
            # Backstop: deeply nested expressions inside deep recursion can
            # still exhaust Python's stack before MAX_CALL_DEPTH trips.
            raise _Crash("stack-overflow") from None
        if test.expect == "pass" or value == test.expect or (
            isinstance(test.expect, (list, tuple))
            and isinstance(value, list)
            and list(test.expect) == value
        ):
            outcome = Outcome(PASS)
        else:
            # wrong result: the harness assertion fails (not a crash)
            outcome = Outcome(ASSERT_FAIL)
    except _AssertFailed:
        # An assert inside a callee leaves the caller's statements pending.
        interp.settle_events()
        outcome = Outcome(ASSERT_FAIL)
        criterion = len(interp.events) - 1
    except _Crash as crash:
        interp.settle_events()
        outcome = Outcome(CRASH, crash_kind=crash.kind, stack=interp.crash_stack())
        criterion = len(interp.events) - 1 if interp.events else None
    # Hash each distinct element object once, not once per event.
    covered = frozenset({id(ev.element): ev.element for ev in interp.events}.values())
    return ExecutionTrace(
        test_id=test.test_id,
        outcome=outcome,
        covered=covered,
        events=tuple(interp.events),
        predicate_instances=tuple(interp.predicate_instances),
        criterion_event=criterion,
        value=value,
        flip_applied=interp.flip_applied if flip is not None else True,
    )
