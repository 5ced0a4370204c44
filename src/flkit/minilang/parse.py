"""Lexer, parser and AST for the mini language, and the test cases its programs run.

Syntax is C-flavored and whitespace-insensitive, so several statements may
share a source line; stmt_index distinguishes them. Element numbering follows
lexical order and is stable across runs.

    func collatz(x) { var res = 0;
        if ((x % 2) == 0)
            res = x / 2;
        else
            res = x * 3 + 1;
        return res;
    }

Values are integers, booleans, and integer arrays. Statements: var
declaration, assignment (plain or indexed), if/else, while, return, assert,
and expression statements (calls). Comments run from '#' to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Optional

from ..model import ProgramElement


class MiniSyntaxError(Exception):
    def __init__(self, msg, line, col):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


KEYWORDS = {"func", "var", "if", "else", "while", "return", "assert", "true", "false"}
TWO_CHAR = {"==", "!=", "<=", ">=", "&&", "||"}
ONE_CHAR = set("+-*/%<>!=(){}[],;")

# Deepest nesting parse() accepts. Each statement, expression node and
# parenthesised group is one level inside what encloses it; a function's body
# statements are at level 1. Parsing, mutant copying, compilation and
# evaluation recurse once or twice per level, so this keeps them far from
# Python's recursion limit.
MAX_NESTING = 64

# Integer magnitude trap; keeps runaway mutants (e.g. squaring in a loop)
# from producing astronomically large bignums before the step budget hits.
# Integer literals may not exceed it either.
INT_LIMIT = 2**63

ARITH_OPS = ("+", "-", "*", "/", "%")
REL_OPS = ("==", "!=", "<", "<=", ">", ">=")
LOGIC_OPS = ("&&", "||")
# Binary operator -> binding level, loosest first.
PRECEDENCE = {
    "||": 0, "&&": 1, **dict.fromkeys(REL_OPS, 2), **dict.fromkeys("+-", 3), **dict.fromkeys("*/%", 4),
}


@dataclass
class Token:
    kind: str  # "name", "int", "punct", "kw"
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif "0" <= c <= "9":  # ASCII only: str.isdigit() also takes '²', which int() rejects
            start = i
            while i < n and "0" <= source[i] <= "9":
                i += 1
            tokens.append(Token("int", source[start:i], line, col))
            col += i - start
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(Token("kw" if text in KEYWORDS else "name", text, line, col))
            col += i - start
        elif source[i : i + 2] in TWO_CHAR:
            tokens.append(Token("punct", source[i : i + 2], line, col))
            i += 2
            col += 2
        elif c in ONE_CHAR:
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
        else:
            raise MiniSyntaxError(f"unexpected character {c!r}", line, col)
    return tokens


# --- AST -------------------------------------------------------------------

@dataclass
class Expr:
    line: int = field(default=0, kw_only=True)
    # Column of the node's token, for errors; the parser sets it. Not a field, so node
    # equality, dataclasses.replace copies and field-wise renderings leave it out.
    col = 0


@dataclass
class Num(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Var(Expr):
    name: str


@dataclass
class Unary(Expr):
    op: str  # "-" or "!"
    operand: Expr


@dataclass
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Call(Expr):
    name: str
    args: list[Expr]


@dataclass
class Index(Expr):
    base: Expr
    index: Expr


@dataclass
class ArrayLit(Expr):
    items: list[Expr]


@dataclass
class Stmt:
    elem: ProgramElement = field(default=None, kw_only=True)


@dataclass
class VarDecl(Stmt):
    name: str
    init: Optional[Expr]


@dataclass
class Assign(Stmt):
    target: str
    index: Optional[Expr]  # indexed store when present
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt]


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class Return(Stmt):
    value: Optional[Expr]


@dataclass
class Assert(Stmt):
    cond: Expr


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Function:
    name: str
    params: list
    body: list[Stmt]
    line: int  # line and col of the name
    col: int


@dataclass
class Program:
    functions: dict
    source: str

    def statements(self) -> list:
        """All statements in lexical order."""
        out = []
        for fn in self.functions.values():
            _collect(fn.body, out)
        return out

    def elements(self) -> list:
        return [s.elem for s in self.statements()]


@dataclass(frozen=True)
class TestCase:
    """A call of entry with args, whose result must equal expect. values holds
    args as run-time values, arrays as lists at every depth, bound once and
    shared by every run: the language never changes an array in place."""

    test_id: str
    entry: str
    args: tuple
    expect: Any  # concrete value, or the string "pass" for run-to-completion
    values: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        args = tuple(self.args)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "values", tuple(map(_as_value, args)))


def _as_value(arg):
    """A test argument as a run-time value: a list or tuple becomes a list, at every depth."""
    return list(map(_as_value, arg)) if isinstance(arg, (list, tuple)) else arg


def _collect(body, out):
    for s in body:
        out.append(s)
        if isinstance(s, If):
            _collect(s.then_body, out)
            _collect(s.else_body, out)
        elif isinstance(s, While):
            _collect(s.body, out)


class _Parser:
    def __init__(self, tokens, file_id):
        self.tokens = tokens
        self.pos = 0
        self.file_id = file_id
        self.stmts_on_line: dict[int, int] = {}
        self.current_func = ""
        self.depth = 0  # nesting level of the construct being parsed

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", "", 1, 1)
            raise MiniSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text) -> Token:
        tok = self.next()
        if tok.text != text:
            raise MiniSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def accept(self, text) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def nested(self, parse_fn):
        """parse_fn() one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek() or self.tokens[-1]
            raise MiniSyntaxError("nesting too deep", tok.line, tok.col)
        node = parse_fn()
        self.depth -= 1
        return node

    def element_for(self, line) -> ProgramElement:
        idx = self.stmts_on_line.get(line, 0)
        self.stmts_on_line[line] = idx + 1
        return ProgramElement(self.file_id, line, idx, method_id=self.current_func)

    # -- grammar --

    def name(self, what) -> Token:
        tok = self.next()
        if tok.kind != "name":
            raise MiniSyntaxError(f"expected {what} name", tok.line, tok.col)
        return tok

    def listed(self, item, close) -> list:
        """Zero or more item() separated by commas, then close."""
        items = []
        if not self.at(close):
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect(close)
        return items

    def enclosed(self, open, close) -> Expr:
        self.expect(open)
        expr = self.expression()
        self.expect(close)
        return expr

    def program(self) -> Program:
        functions = {}
        while self.peek() is not None:
            fn = self.function()
            if fn.name in functions:
                raise MiniSyntaxError(f"duplicate function {fn.name!r}", fn.line, fn.col)
            functions[fn.name] = fn
        if not functions:
            raise MiniSyntaxError("empty program", 1, 1)
        return functions

    def function(self) -> Function:
        self.expect("func")
        name = self.name("function")
        self.current_func = name.text
        self.expect("(")
        params = []
        for p in self.listed(lambda: self.name("parameter"), ")"):
            if p.text in params:
                raise MiniSyntaxError(f"duplicate parameter {p.text!r}", p.line, p.col)
            params.append(p.text)
        body = self.block()
        return Function(name.text, params, body, name.line, name.col)

    def block(self) -> list:
        self.expect("{")
        body = []
        while not self.at("}"):
            body.append(self.statement())
        self.expect("}")
        return body

    def stmt_or_block(self) -> list:
        if self.at("{"):
            return self.block()
        return [self.statement()]

    def statement(self) -> Stmt:
        return self.nested(self._statement)

    def _statement(self) -> Stmt:
        start = self.pos
        tok = self.next()
        elem = self.element_for(tok.line)
        if tok.text == "var":
            name = self.name("variable").text
            init = self.expression() if self.accept("=") else None
            self.expect(";")
            return VarDecl(name, init, elem=elem)
        if tok.text == "if":
            cond = self.enclosed("(", ")")
            then_body = self.stmt_or_block()
            else_body = self.stmt_or_block() if self.accept("else") else []
            return If(cond, then_body, else_body, elem=elem)
        if tok.text == "while":
            cond = self.enclosed("(", ")")
            return While(cond, self.stmt_or_block(), elem=elem)
        if tok.text == "return":
            value = None if self.at(";") else self.expression()
            self.expect(";")
            return Return(value, elem=elem)
        if tok.text == "assert":
            cond = self.enclosed("(", ")")
            self.expect(";")
            return Assert(cond, elem=elem)
        # "name = e;" or "name[e] = e;", else an expression statement from the start
        if tok.kind == "name":
            index = self.enclosed("[", "]") if self.at("[") else None
            if self.accept("="):
                value = self.expression()
                self.expect(";")
                return Assign(tok.text, index, value, elem=elem)
        self.pos = start
        expr = self.expression()
        self.expect(";")
        return ExprStmt(expr, elem=elem)

    def expression(self) -> Expr:
        return self.nested(self.binary_expr)

    def binary_expr(self, level: int = 0) -> Expr:
        """Operands joined by operators of PRECEDENCE level or tighter, each
        operator left-associative (precedence climbing)."""
        left = self.unary_expr()
        while (tok := self.peek()) is not None and PRECEDENCE.get(tok.text, -1) >= level:
            self.next()
            left = _at(tok, Binary(tok.text, left, self.binary_expr(PRECEDENCE[tok.text] + 1)))
        return left

    def unary_expr(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.text in ("-", "!"):
            self.next()
            return _at(tok, Unary(tok.text, self.nested(self.unary_expr)))
        return self.postfix_expr()

    def postfix_expr(self) -> Expr:
        expr = self.primary()
        while (tok := self.peek()) is not None and tok.text == "[":
            expr = _at(tok, Index(expr, self.enclosed("[", "]")))
        return expr

    def primary(self) -> Expr:
        if self.at("("):
            return self.enclosed("(", ")")
        tok = self.next()
        if tok.kind == "int":
            digits = tok.text.lstrip("0") or "0"  # int() refuses over 4,300 digits
            if len(digits) > len(str(INT_LIMIT)) or int(digits) > INT_LIMIT:
                raise MiniSyntaxError("integer literal out of range", tok.line, tok.col)
            return _at(tok, Num(int(digits)))
        if tok.text == "true":
            return _at(tok, BoolLit(True))
        if tok.text == "false":
            return _at(tok, BoolLit(False))
        if tok.text == "[":
            return _at(tok, ArrayLit(self.listed(self.expression, "]")))
        if tok.kind == "name":
            if self.accept("("):
                return _at(tok, Call(tok.text, self.listed(self.expression, ")")))
            return _at(tok, Var(tok.text))
        raise MiniSyntaxError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def _at(tok, node):
    """node, at the line and column of tok."""
    node.line, node.col = tok.line, tok.col
    return node


def parse(source: str, file_id: str = "main") -> Program:
    """Parse source text into a Program with stable element numbering."""
    parser = _Parser(tokenize(source), file_id)
    try:
        functions = parser.program()
    except RecursionError:
        tok = parser.tokens[parser.pos - 1]
        raise MiniSyntaxError("nesting too deep", tok.line, tok.col) from None
    _check_tree(functions)
    return Program(functions, source)


def _check_tree(functions: dict):
    """Reject calls to undefined functions, and trees nested past MAX_NESTING
    (including operator and index chains, which the parser builds in loops)."""
    stack = [(stmt, 1) for fn in functions.values() for stmt in fn.body][::-1]
    while stack:  # lexical pre-order, so the first bad node is reported
        node, depth = stack.pop()
        if isinstance(node, Call) and node.name not in functions:
            raise MiniSyntaxError(f"call to undefined function {node.name!r}", node.line, node.col)
        # A statement's depth here is its depth in the parser, which rejected it
        # already, so the node is an expression.
        if depth > MAX_NESTING:
            raise MiniSyntaxError("nesting too deep", node.line, node.col)
        stack.extend((child, depth + 1) for child in reversed(children(node)))


# Node class -> the fields that hold its child nodes, read off their annotations
# (strings, under `from __future__ import annotations`) once.
CHILD_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.type in ("Expr", "Optional[Expr]", "list[Expr]", "list[Stmt]"))
    for cls in [*Expr.__subclasses__(), *Stmt.__subclasses__(), Function]
}


def children(node) -> list:
    """The statement and expression nodes directly inside node, lexical order."""
    out = []
    # Fields by name: vars(node) would give the node a dict of its own,
    # which makes every later attribute read on it slower.
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if type(value) is list:
            out.extend(value)
        elif value is not None:
            out.append(value)
    return out


def iter_exprs(stmt: Stmt):
    """All expression nodes of a statement, lexical order."""
    stack = [node for node in reversed(children(stmt)) if isinstance(node, Expr)]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))
