"""Instrumented interpreter.

Every executed statement (and every dynamic predicate evaluation) produces one
trace event recording its element, the trace positions of the events it
depends on (dynamic data dependences, including values returned by calls), and
its dynamic control parent. A re-execution, a mutant's or a predicate flip's
run with fewer steps than STEP_BUDGET, is read for its outcome alone: its
events record no dependences. A predicate evaluation, named by the trace
position of its if's or while's event, can be inverted for predicate
switching: a run is deterministic, so a flipped run repeats the original's
elements and control parents up to that event.

Each statement and expression node is compiled once, on its first run, into a
closure over its children's closures that takes (interpreter, frame), and the
closure is cached on the node as _code. An expression's closure returns its
value. A statement's returns whether a return statement ran: the return stores
its value and event on its frame, and each enclosing if and while passes True
on to the call or run() that reads them, so a return raises no Python
exception. Each event is built once, final, when its statement begins. In an
original run its deps are a set that the interpreter keeps as the running
statement's: each variable read adds its defining event and each call its
callee's return event, while the callee's statements fill sets of their own.
So a statement that raises, or whose callee raises, keeps the reads it made
before the raise. A re-execution keeps no dependence bookkeeping: no defining
events, no sets. Programs share nodes: a mutant shares with its
original every node off the path to its mutation. That is safe because no node
changes after parse except its cached code, which depends only on the node and
what it contains. A call looks its callee up in the running program, not in
the one it was compiled for.

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
<= INT_LIMIT, where M is the largest |e| that any `v = v ± e` has added during
this execution of the loop, nested loops and calls included (a later period
replays the period since the snapshot, which ran in this execution, so M
covers every e it adds); and no exit, because the drift variable has moved
since the snapshot the way that keeps the predicate true (down or not at all
under < and <=, up under > and >=, the reverse under !).

The comparison also leaves out the loop's scaled variables: variables assigned
in it only as `v = v * e`, never declared there, read nowhere else in it and
with no `v = v ± e` site. Each period multiplies a scaled v by the same int P,
whose factors are never 0 if P is not. So a v that is an int and has grown
since the snapshot (|v| > |v at the snapshot| > 0) has |P| >= 2, never shrinks
within a period, and first passes INT_LIMIT in period k = min{k >= 1 :
|v|·|P|^k > INT_LIMIT} from here. With S the steps since the snapshot, the
loop crashes "overflow" at its head if some such v has k·S <= the steps left,
as any overflow in the body has that outcome. Only a re-execution, run with
fewer steps than STEP_BUDGET, stops so: a mutant's or a flip's run is read for
its outcome alone, but an original run's events up to the overflow feed its
slices, its flips and the re-execution budget. It crashes "budget" only if
every such v has (k - 1)·S >= the steps left, so that the budget runs out
before its period k begins, and no accumulator can overflow; otherwise it runs
on. Each While node is classified by one recursive walk when it is compiled.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Any, NamedTuple, Optional

from ..model import ProgramElement
from .parse import (
    ArrayLit,
    Assert,
    Assign,
    Binary,
    BoolLit,
    Call,
    ExprStmt,
    Function,
    INT_LIMIT,
    If,
    Index,
    Num,
    Program,
    Return,
    TestCase,
    Unary,
    Var,
    VarDecl,
    While,
    children,
)

# Steps before a run crashes with "budget". A loop whose variables repeat at
# its head, leaving out accumulators and scaled variables, crashes at once
# with the outcome it would reach (see the module docstring).
STEP_BUDGET = 10**6

# Re-executions (mutants, predicate flips) can loop forever, so each gets
# REEXEC_STEP_FACTOR × steps + REEXEC_STEP_SLACK, PIT's timeout shape, where steps is the
# longest original run among the fault's tests: a failing test may stop early, but a flip
# or mutant that repairs it runs like a passing one. The tightest corpus run that ends on
# its own, on a fault whose longest test runs 10 steps, overflows at step 255.
REEXEC_STEP_FACTOR = 10
REEXEC_STEP_SLACK = 250


def reexec_step_budget(originals) -> int:
    """Step budget for re-executing any test of a fault with these original runs:
    below STEP_BUDGET, so that every re-execution runs as one."""
    longest = max(len(trace.events) for trace in originals)
    return min(STEP_BUDGET - 1, REEXEC_STEP_FACTOR * longest + REEXEC_STEP_SLACK)


# Mini-language call depth that crashes with "stack-overflow". A call costs two
# Python frames, plus one per expression around it and one per if or while
# around its statement (three in `return 1 + f(n - 1);`), so this trips well
# before Python's own recursion limit, and the outcome does not depend on how
# deep run() is called from.
MAX_CALL_DEPTH = 100

PASS = "pass"
ASSERT_FAIL = "assertfail"
CRASH = "crash"


@dataclass(frozen=True)
class Outcome:
    status: str  # PASS | ASSERT_FAIL | CRASH
    crash_kind: Optional[str] = None
    stack: tuple = ()  # method ids, innermost first; crashes only


# Outcomes are frozen, so every run that passes or fails an assert shares one.
_PASSED = Outcome(PASS)
_ASSERT_FAILED = Outcome(ASSERT_FAIL)


class Event(NamedTuple):
    element: ProgramElement
    # Trace positions of events this one data-depends on: a set, filled while
    # the statement runs, in an original run; an empty frozenset in a re-execution.
    deps: frozenset | set
    control: Optional[int]  # trace position of the controlling branch event


# _new(Event, (element, deps, control)) skips the Python-level __new__ of a
# NamedTuple; run() builds its ExecutionTrace the same way.
_new = tuple.__new__
_NO_DEPS = frozenset()


class ExecutionTrace(NamedTuple):
    """One test's run. A tuple, so run() builds it without a Python __new__. An
    original run's events hold their deps as sets; a re-execution's carry none."""

    test_id: str
    outcome: Outcome
    covered: frozenset
    events: tuple
    predicate_instances: tuple  # trace positions of completed predicate evaluations, in completion order
    criterion_event: Optional[int]  # failure-raising event (return event on Pass)
    value: Any = None
    flip_applied: bool = True  # False when no predicate evaluation ran at the requested position

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
    """(accumulators, scaled variables, drift variable or None, its holding
    sign) of a loop (module docstring)."""
    reads, sites, fixed = set(), [], set()
    cond, sign, drift = loop.cond, 1, None
    if type(cond) is Unary and cond.op == "!":
        cond, sign = cond.operand, -1
    if type(cond) is Binary and cond.op in _HOLDING_DRIFT and type(cond.left) is Var:
        drift, sign, cond = cond.left.name, sign * _HOLDING_DRIFT[cond.op], cond.right
    for node in [cond, *loop.body]:
        _scan(node, reads, sites, fixed)
    products = {site.target for site in sites if site.value.op == "*"}
    sums = {site.target for site in sites if site.value.op != "*"}
    growing = sums - products - fixed - reads
    # The predicate reads its drift shape's variable too; only an accumulator may drift.
    scaled = products - sums - fixed - reads - {drift}
    drift = drift if drift in growing else None
    return tuple(sorted(growing)), tuple(sorted(scaled)), drift, sign


def _step_op(node: Assign) -> Optional[str]:
    """The operator of a `v = v + e`, `v = v - e` or `v = v * e` statement, or None."""
    value = node.value
    if node.index is None and type(value) is Binary and value.op in ("+", "-", "*"):
        if type(value.left) is Var and value.left.name == node.target:
            return value.op
    return None


def _scan(node, reads: set, sites: list, fixed: set):
    """Add the names node reads to reads, its `v = v + e`, `v = v - e` and
    `v = v * e` statements to sites, and the names it otherwise assigns or
    declares to fixed."""
    kind = type(node)
    if kind is Var:
        reads.add(node.name)
    elif kind is Assign:
        if _step_op(node):
            sites.append(node)
            _scan(node.value.right, reads, sites, fixed)
            return
        fixed.add(node.target)
    elif kind is VarDecl:
        fixed.add(node.name)
    for child in children(node):
        _scan(child, reads, sites, fixed)


def _freeze(value):
    """A value, or a test's expected value, as a hashable that tells bools from
    ints: 1 == True in Python, but not in the language."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_freeze, value))
    return ("bool", value) if type(value) is bool else value


class _Crash(Exception):
    def __init__(self, kind):
        self.kind = kind


class _AssertFailed(Exception):
    pass


@dataclass(slots=True)
class _Frame:
    """One function call's state. A return statement stores its value and
    event on the frame, and its closure returns True to end the call."""

    function: str
    env: dict
    var_events: Optional[dict]  # name -> defining event index; None in a re-execution
    control: list  # the call-site event, then the enclosing branch events
    returned: Optional[tuple] = None  # (value, event index) once a return has run


class _Interp:
    __slots__ = (
        "program", "flip", "flip_applied", "step_budget", "reexec", "events", "predicate_instances",
        "frames", "current_event", "deps", "largest_step",
    )

    def __init__(self, program: Program, flip=None, step_budget=STEP_BUDGET):
        self.program = program
        self.flip = flip  # trace position of the predicate event to invert, or None
        self.flip_applied = flip is None  # whether no flip is pending
        self.step_budget = step_budget
        self.reexec = step_budget < STEP_BUDGET  # keeps no deps; stops at a certain overflow
        self.events: list = []  # an Event per begun statement
        self.predicate_instances: list[int] = []
        self.frames: list[_Frame] = []
        self.current_event = None  # the running statement's event: a call's call site
        self.deps = None  # the running statement's event's deps (original runs only)
        self.largest_step = 0  # the largest |e| a `v = v ± e` has added in the running loop

    def repeat_crash(self, env, growing, scaled, before, period) -> Optional[str]:
        """The crash kind that a loop whose variables have repeated, but for its
        accumulators and scaled variables, `period` steps after its snapshot
        certainly reaches, or None if it must run on (module docstring). before
        holds the accumulators' values at the snapshot, then the scaled ones'."""
        left = self.step_budget - len(self.events)
        budget = True
        for v, b in zip(map(env.get, scaled), before[len(growing):]):
            if type(v) is int and type(b) is int and abs(v) > abs(b) > 0:
                # Each period multiplies v by the same v / b and never shrinks it
                # on the way, so |v| first passes INT_LIMIT in period k from here.
                factor, size, k = abs(v) // abs(b), abs(v), 0
                while size <= INT_LIMIT:
                    size, k = size * factor, k + 1
                if k * period <= left:
                    # An original run goes on to the overflow (module docstring).
                    return "overflow" if self.reexec else None
                budget = budget and (k - 1) * period >= left
        # An accumulator back at its value at the snapshot replays that period's
        # values; one that is undefined or not an int is never added to, as that
        # crashes; any other moves at most M a step, as the period it replays
        # added nothing larger.
        limit = INT_LIMIT - left * self.largest_step
        values = map(env.get, growing)
        if budget and all(v == b or type(v) is not int or abs(v) <= limit for v, b in zip(values, before)):
            return "budget"
        return None

    def crash_stack(self) -> tuple:
        return tuple(frame.function for frame in reversed(self.frames))


def _code(node):
    """The closure that runs node, compiled on first use and cached on it; a
    Function's code is the tuple of its body's closures. Each closure takes
    (interp, frame), the frame it runs in. An expression's returns its value
    and, in an original run, adds the trace positions it depends on to
    interp.deps. A statement's first adds its event (_begin), whose deps its
    expressions then fill; it returns True if a return statement ran, which
    ends the call."""
    code = getattr(node, "_code", None)
    if code is None:
        code = node._code = _compile(node)
    return code


def _codes(nodes) -> tuple:
    return tuple(map(_code, nodes))


def _begin(interp, frame, elem) -> int:
    """Add a statement's event, final from here on, and return its trace
    position. In an original run the event's deps are a new set, also stored as
    interp.deps for the statement's reads to add to."""
    events = interp.events
    idx = interp.current_event = len(events)
    if idx >= interp.step_budget:
        raise _Crash("budget")
    if interp.reexec:
        events.append(_new(Event, (elem, _NO_DEPS, frame.control[-1])))
    else:
        deps = interp.deps = set()
        events.append(_new(Event, (elem, deps, frame.control[-1])))
    return idx


def _eval_all(codes, interp, frame) -> list:
    """The values of a list of expressions."""
    values = []
    for code in codes:
        values.append(code(interp, frame))
    return values


def _zero(interp, frame):
    """An omitted initializer or return value: 0, with no event to depend on."""
    return 0


def _divide(left, right):
    """Integer division truncating toward zero, exact at any size."""
    if right == 0:
        raise _Crash("div0")
    return left // right if (left < 0) == (right < 0) else -(-left // right)


# The operators of Binary nodes other than && and ||.
_OPERATORS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": lambda left, right: left - right * _divide(left, right),
}


def _predicate(stmt):
    """The closure that evaluates an if's or while's condition for its event at
    trace position idx, inverts it if idx is the one to flip, and records idx."""
    cond = _code(stmt.cond)

    def predicate(interp, frame, idx):
        value = cond(interp, frame)
        if type(value) is not bool:
            raise _Crash("type")
        if idx == interp.flip:
            value = not value
            interp.flip_applied = True
        interp.predicate_instances.append(idx)
        return value

    return predicate


def _compile(node):
    """A closure that does what node does. It holds its children's code, never
    a node, so no cycle keeps a mutant's copied nodes or their code alive."""
    kind = type(node)
    if kind is Function:
        return _codes(node.body)
    if kind is Var:
        name = node.name

        def var(interp, frame):
            env = frame.env
            if name not in env:
                raise _Crash("undefined-var")
            if not interp.reexec:
                defined = frame.var_events.get(name)
                if defined is not None:
                    interp.deps.add(defined)
            return env[name]

        return var
    if kind is Num or kind is BoolLit:
        value = node.value
        return lambda interp, frame: value
    if kind is Unary:
        operand, negate = _code(node.operand), node.op == "-"

        def unary(interp, frame):
            value = operand(interp, frame)
            if type(value) is not (int if negate else bool):  # int excludes bool
                raise _Crash("type")
            return -value if negate else not value

        return unary
    if kind is Binary and node.op in ("&&", "||"):
        left, right, stop = _code(node.left), _code(node.right), node.op == "||"

        def logic(interp, frame):
            value = left(interp, frame)
            if type(value) is not bool:
                raise _Crash("type")
            if value is stop:  # the left value decides the result
                return value
            value = right(interp, frame)
            if type(value) is not bool:
                raise _Crash("type")
            return value

        return logic
    if kind is Binary:
        left, right, function = _code(node.left), _code(node.right), _OPERATORS[node.op]
        ints, checked = node.op not in ("==", "!="), node.op in ("+", "-", "*")

        def binary(interp, frame):
            a = left(interp, frame)
            b = right(interp, frame)
            if ints and (type(a) is not int or type(b) is not int):
                raise _Crash("type")
            value = function(a, b)
            if checked and (value > INT_LIMIT or value < -INT_LIMIT):
                raise _Crash("overflow")
            return value

        return binary
    if kind is Index:
        base, index = _code(node.base), _code(node.index)

        def subscript(interp, frame):
            array = base(interp, frame)
            pos = index(interp, frame)
            if type(array) is not list or type(pos) is not int:
                raise _Crash("type")
            if pos < 0 or pos >= len(array):
                raise _Crash("bounds")
            return array[pos]

        return subscript
    if kind is ArrayLit:
        return partial(_eval_all, _codes(node.items))
    if kind is Call:
        name, args = node.name, _codes(node.args)

        def call(interp, frame):
            # Looked up in the running program: a mutant runs its original's nodes.
            fn = interp.program.functions[name]
            params = fn.params
            if len(args) != len(params):
                raise _Crash("arity")
            values = _eval_all(args, interp, frame)
            call_event, deps, reexec = interp.current_event, interp.deps, interp.reexec
            var_events = None if reexec else dict.fromkeys(params, call_event)
            callee = _Frame(fn.name, dict(zip(params, values)), var_events, [call_event])
            frames = interp.frames
            if len(frames) >= MAX_CALL_DEPTH:
                raise _Crash("stack-overflow")
            frames.append(callee)
            for stmt in _code(fn):
                if stmt(interp, callee):
                    break
            # A crash propagates past this point without unwinding interp.frames,
            # deliberately: crash_stack() needs the frames as they were.
            frames.pop()
            # The rest of the statement, and a later call in it, runs at this call site.
            interp.current_event, interp.deps = call_event, deps
            if callee.returned is None:
                return 0  # fell off the end of the function: implicit return 0 with no event
            value, returned_at = callee.returned
            if not reexec:
                deps.add(returned_at)
            return value

        return call
    elem = node.elem
    if kind is Assign:
        target, source, grows = node.target, _code(node.value), _step_op(node) in ("+", "-")
        index = None if node.index is None else _code(node.index)

        def assign(interp, frame):
            idx = _begin(interp, frame, elem)
            value = source(interp, frame)
            env = frame.env
            if index is not None:
                pos = index(interp, frame)
                if target not in env:
                    raise _Crash("undefined-var")
                if not interp.reexec and target in frame.var_events:
                    interp.deps.add(frame.var_events[target])
                array = env[target]
                if type(array) is not list or type(pos) is not int:
                    raise _Crash("type")
                if pos < 0 or pos >= len(array):
                    raise _Crash("bounds")
                array = list(array)
                array[pos] = value
                value = array
            elif target not in env:
                raise _Crash("undefined-var")
            elif grows:  # bounds the stop of each loop running it (module docstring)
                interp.largest_step = max(interp.largest_step, abs(value - env[target]))
            env[target] = value
            if not interp.reexec:
                frame.var_events[target] = idx

        return assign
    if kind is While:
        growing, scaled, drift, sign = _classify(node)
        skipped = growing + scaled  # left out of the repeat check
        predicate, body = _predicate(node), _codes(node.body)

        def loop(interp, frame):
            events, control, env = interp.events, frame.control, frame.env
            lap, next_save, saved, start, before, saved_at = 0, 1, None, None, None, 0
            # The steps of this execution alone bound its stop; an enclosing
            # loop's execution also covers this one's.
            outer_step, interp.largest_step = interp.largest_step, 0
            try:
                while True:
                    idx = _begin(interp, frame, elem)
                    if not predicate(interp, frame, idx):
                        return
                    # A repeat loops forever unless an accumulator or scaled variable
                    # could overflow or the drift variable is heading for the exit
                    # (module docstring).
                    if saved is not None and (drift is None or (env[drift] - start) * sign >= 0):
                        if before is None:  # the snapshot's values, kept before they are overwritten
                            before = tuple(map(saved.get, skipped))
                        for name in skipped:
                            if name in env:  # one that is undefined stays so
                                saved[name] = env[name]
                        if env == saved and _same_types(env, saved):
                            crash = interp.repeat_crash(env, growing, scaled, before, len(events) - saved_at)
                            if crash is not None:
                                raise _Crash(crash)
                    lap += 1
                    if lap == next_save:
                        next_save *= 2
                        # While a flip is pending, the trace position matters too: no snapshot.
                        if interp.flip_applied:
                            saved, start, before, saved_at = dict(env), env.get(drift), None, len(events)
                    control.append(idx)
                    try:
                        for code in body:
                            if code(interp, frame):
                                return True
                    finally:
                        control.pop()
            finally:
                interp.largest_step = max(outer_step, interp.largest_step)

        return loop
    if kind is If:
        predicate, then_body, else_body = _predicate(node), _codes(node.then_body), _codes(node.else_body)

        def branch(interp, frame):
            idx = _begin(interp, frame, elem)
            body = then_body if predicate(interp, frame, idx) else else_body
            control = frame.control
            control.append(idx)
            try:
                for code in body:
                    if code(interp, frame):
                        return True
            finally:
                control.pop()

        return branch
    if kind is VarDecl:
        name, init = node.name, _zero if node.init is None else _code(node.init)

        def declare(interp, frame):
            idx = _begin(interp, frame, elem)
            value = init(interp, frame)
            frame.env[name] = value
            if not interp.reexec:
                frame.var_events[name] = idx

        return declare
    if kind is Return:
        result = _zero if node.value is None else _code(node.value)

        def return_(interp, frame):
            idx = _begin(interp, frame, elem)
            value = result(interp, frame)
            frame.returned = (value, idx)
            return True

        return return_
    if kind is Assert:
        cond = _code(node.cond)

        def check(interp, frame):
            _begin(interp, frame, elem)
            value = cond(interp, frame)
            if type(value) is not bool:
                raise _Crash("type")
            if not value:
                raise _AssertFailed()

        return check
    if kind is ExprStmt:
        expr = _code(node.expr)

        def evaluate(interp, frame):
            _begin(interp, frame, elem)
            expr(interp, frame)

        return evaluate
    raise AssertionError(f"unhandled node {node!r}")


def run(
    program: Program,
    test: TestCase,
    flip: Optional[int] = None,
    step_budget: int = STEP_BUDGET,
) -> ExecutionTrace:
    """Execute one test, optionally inverting the predicate evaluation at trace position ``flip``.

    The entry function starts from the test's shared argument values. A run with fewer steps
    than STEP_BUDGET is a re-execution: it keeps no dependence bookkeeping, and its events
    carry no dependences.
    """
    if test.entry not in program.functions:
        raise ValueError(f"entry function {test.entry!r} not defined")
    interp = _Interp(program, flip=flip, step_budget=step_budget)
    fn = program.functions[test.entry]
    if len(test.args) != len(fn.params):
        raise ValueError(f"{test.entry} expects {len(fn.params)} args, got {len(test.args)}")
    frame = _Frame(fn.name, dict(zip(fn.params, test.values)), None if interp.reexec else {}, [None])
    interp.frames.append(frame)
    value = None
    criterion = None
    try:
        try:
            for code in _code(fn):
                if code(interp, frame):
                    break
        except RecursionError:
            # Backstop: deeply nested expressions inside deep recursion can
            # still exhaust Python's stack, while compiling or running, before
            # MAX_CALL_DEPTH trips.
            raise _Crash("stack-overflow") from None
        if frame.returned is None:
            value = 0
            criterion = len(interp.events) - 1 if interp.events else None
        else:
            value, criterion = frame.returned
        if test.expect == "pass" or _freeze(value) == _freeze(test.expect):
            outcome = _PASSED
        else:
            # wrong result: the harness assertion fails (not a crash)
            outcome = _ASSERT_FAILED
    except _AssertFailed:
        outcome = _ASSERT_FAILED
        criterion = len(interp.events) - 1
    except _Crash as crash:
        outcome = Outcome(CRASH, crash_kind=crash.kind, stack=interp.crash_stack())
        criterion = len(interp.events) - 1 if interp.events else None
    return _new(
        ExecutionTrace,
        (
            test.test_id,
            outcome,
            frozenset([ev[0] for ev in interp.events]),
            tuple(interp.events),
            tuple(interp.predicate_instances),
            criterion,
            value,
            interp.flip_applied,
        ),
    )
