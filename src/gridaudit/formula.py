"""Excel-style formula parsing, canonical printing and host-relative
normalization.

Grammar, lowest to highest precedence (all binaries left-associative):

    comparison   =  <>  <  <=  >  >=
    concat       &
    additive     +  -
    multiplicative  *  /
    power        ^
    unary        -x        (binds tighter than ^, so -2^2 is (-2)^2)
    postfix      x%
    atoms        numbers, "text" ("" escapes a quote), TRUE/FALSE,
                 error codes, A1 refs with optional $ per axis and
                 optional Sheet! prefix, ranges (ref:ref), NAME(args...)

Function names are not validated against a catalog: any identifier
followed by ``(`` is a call.  Whitespace is ignored outside string
literals.  There is no evaluation; audits are structural.

Parentheses, function calls and prefix minus signs may nest at most
``MAX_NESTING`` (64, Excel's own limit) levels deep, counted together.
Deeper input raises ``FormulaSyntaxError`` at the first token past the
cap instead of exhausting the interpreter's stack.  That cap is the only
depth limit: the parser loops along operator chains and every walk over a
tree is a rule over the iterative ``fold``, so a chain of any length
(``=A1+A1+...``, ``=A1%%%...``) is fine although its tree is that deep.

``normalize_relative`` renders a tree in R1C1 form relative to a host
cell, so translated copies of one formula produce identical text.  Only
a ``$`` pins an axis: one without it follows its host whether or not the
reference names a sheet, so ``=Data!A1`` in B1 renders ``=Data!RC[-1]``,
as in Excel.  ``copy_form`` is that text with every sheet name lowered,
since sheet names compare without case: copies are compared by it.
``normalize_relative`` prints sheet names as written, and an audit
prints a form as the first cell of that form by address writes it.
``copy_key`` reads the same tokens without parsing, so a caller can
parse such copies once; ``shift_relative`` moves a tree as a copy would.
All of them follow that one rule.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Callable, Sequence
from decimal import Decimal
from typing import TypeVar

from .grid import (
    ERROR_CODES,
    MAX_COL,
    MAX_EXPONENT,
    CellAddress,
    canonical_decimal,
    col_to_letters,
    in_number_range,
    letters_to_col,
    record,
)


MAX_NESTING = 64  # Excel's limit on nested levels; see the module docstring

_T = TypeVar("_T")


class FormulaError(ValueError):
    """Base for formula parse errors."""


class FormulaSyntaxError(FormulaError):
    def __init__(self, position: int, expected: str):
        super().__init__(f"at offset {position}: expected {expected}")
        self.position = position
        self.expected = expected


class UnbalancedParens(FormulaError):
    def __init__(self, position: int):
        super().__init__(f"unbalanced parentheses at offset {position}")
        self.position = position


class UnknownToken(FormulaError):
    def __init__(self, position: int, text: str):
        super().__init__(f"unknown token {text!r} at offset {position}")
        self.position = position


@record
class CellRef:
    """A1-style reference; absent sheet means the host sheet."""

    row: int
    col: int
    row_abs: bool = False
    col_abs: bool = False
    sheet: str | None = None


class _Node:
    """Base of the tree node records.  Their equality, hash and repr walk
    the tree without recursion, so a chain of any length compares, hashes
    and prints; each agrees with what a record's own method would give."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # equal node by node in pre-order means equal trees: such a
        # sequence of (class, fields, child count) is never a proper
        # prefix of another one
        return all(a == b for a, b in zip(_preorder(self), _preorder(other)))

    def __hash__(self) -> int:
        return fold(self, lambda node, parts: hash(_fields(node, map(_Hashed, parts))))

    def __repr__(self) -> str:
        def combine(node: FormulaAst, parts) -> str:
            values = _fields(node, map(_Shown, parts))
            text = ", ".join(f"{name}={value!r}" for name, value in zip(node.__match_args__, values))
            return f"{type(node).__qualname__}({text})"

        return fold(self, combine)


@record
class NumberLit(_Node):
    value: Decimal


@record
class TextLit(_Node):
    value: str


@record
class BoolLit(_Node):
    value: bool


@record
class ErrorLit(_Node):
    code: str


@record
class Ref(_Node):
    ref: CellRef


@record
class Range(_Node):
    start: CellRef
    end: CellRef


@record
class Unary(_Node):
    op: str  # "neg" | "percent"
    child: "FormulaAst"


@record
class Binary(_Node):
    op: str
    left: "FormulaAst"
    right: "FormulaAst"


@record
class Call(_Node):
    name: str  # stored uppercase
    args: tuple["FormulaAst", ...]


FormulaAst = NumberLit | TextLit | BoolLit | ErrorLit | Ref | Range | Unary | Binary | Call

# Binding strength, loosest first, as in the grammar above.
_BINARY_PREC = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1, "&": 2, "+": 3, "-": 3, "*": 4, "/": 4, "^": 5}
_PREC_UNARY, _PREC_PERCENT, _PREC_ATOM = 6, 7, 8

_SHEET_RE = r"(?:'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*)"
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_OPEN_PAREN_RE = re.compile(r"\s*\(")
# One alternative per token kind; the first that matches wins.
_TOKEN_RE = re.compile(
    r"(?P<space>\s+)"
    r'|(?P<string>"(?:[^"]|"")*")'
    r"|(?P<error>" + "|".join(re.escape(code) for code in sorted(ERROR_CODES)) + ")"
    r"|(?P<number>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<ref>(?:(?P<sheet>{_SHEET_RE})!)?(?P<col_abs>\$?)(?P<letters>[A-Za-z]{{1,3}})(?P<row_abs>\$?)(?P<row>[1-9][0-9]*))"
    rf"|(?P<ident>{_IDENT_RE.pattern})"
    r"|(?P<op><>|<=|>=|[=<>&+\-*/^%(),:])"
)


@record
class _Token:
    kind: str  # "number" | "string" | "error" | "ref" | "ident" | "op" | "end"
    text: str
    pos: int
    value: CellRef | None = None  # set for "ref"


def _scan(source: str):
    """Each non-space token of source as (kind, text, pos, ref), where ref
    is (row, col, row_abs, col_abs, sheet) for a "ref" and None otherwise.
    The one loop over _TOKEN_RE: _tokenize and copy_key both read it."""
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            if source[i] == '"':
                raise FormulaSyntaxError(i, "closing quote")
            raise UnknownToken(i, source[i : i + 8])
        kind = m.lastgroup
        ref = _accept_ref(source, m) if kind == "ref" else None
        if kind == "ref" and ref is None:
            m = _IDENT_RE.match(source, i)
            if m is None:
                raise UnknownToken(i, source[i : i + 8])
            kind = "ident"
        if kind != "space":
            yield kind, m.group(), i, ref
        i = m.end()


def _tokenize(source: str) -> list[_Token]:
    tokens = [
        _Token(kind, text, pos, None if ref is None else CellRef(*ref))
        for kind, text, pos, ref in _scan(source)
    ]
    tokens.append(_Token("end", "", len(source)))
    return tokens


def _accept_ref(source: str, m: re.Match) -> tuple | None:
    """The (row, col, row_abs, col_abs, sheet) a ref-shaped match names, or
    None when the text is really a function name (LOG10( ...) or the
    column is out of range."""
    col = letters_to_col(m["letters"])
    if col > MAX_COL:
        return None
    sheet, col_abs, row_abs = m["sheet"], m["col_abs"], m["row_abs"]
    if not (sheet or col_abs or row_abs) and _OPEN_PAREN_RE.match(source, m.end()):
        return None
    if sheet and sheet.startswith("'"):
        sheet = sheet[1:-1].replace("''", "'")
    try:
        row = int(m["row"])
    except ValueError:  # more digits than int() converts
        raise FormulaSyntaxError(m.start(), f"a row of at most {sys.get_int_max_str_digits()} digits") from None
    return (row, col, bool(row_abs), bool(col_abs), sheet or None)


def copy_key(source: str, host: CellAddress) -> tuple:
    """A key that translated copies of one formula share.  It holds every
    token's kind and text, except that a reference becomes its sheet in
    lower case (a range's end takes its start's), its $ flags and its row
    and column: an axis with $ keeps its number, any other becomes an
    offset from host.  Sources with equal keys parse alike and have equal
    copy forms (copy_form).
    Raises the error parse_formula raises for a source it cannot
    tokenize."""
    if not source.startswith("="):
        raise FormulaSyntaxError(0, "'=' at start of formula")
    key: list = []
    sheet = start_sheet = None
    for kind, text, _, ref in _scan(source[1:]):
        if ref is None:
            key += (kind, text)
            # as in parse_range_tail, the end of a range takes its start's sheet
            start_sheet = sheet if text == ":" else None
            sheet = None
            continue
        row, col, row_abs, col_abs, sheet = ref
        # sheet names compare without case, as in CellAddress
        sheet = sheet.lower() if sheet else start_sheet
        key.append((
            sheet, row_abs, col_abs,
            row if row_abs else row - host.row,
            col if col_abs else col - host.col,
        ))
        start_sheet = None
    return tuple(key)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            if op == ")":
                raise UnbalancedParens(tok.pos)
            raise FormulaSyntaxError(tok.pos, repr(op))

    def enter(self, tok: _Token) -> None:
        """Open one nesting level; the caller closes it with depth -= 1."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(tok.pos, f"at most {MAX_NESTING} nested parentheses, calls or minus signs")

    def parse_expr(self, min_prec: int = 1) -> FormulaAst:
        """Precedence climbing: loop over operators binding at least
        min_prec, left-associatively; only a tighter operator recurses."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            prec = _BINARY_PREC.get(tok.text, 0) if tok.kind == "op" else 0
            if prec < min_prec:
                return node
            self.next()
            node = Binary(tok.text, node, self.parse_expr(prec + 1))

    def parse_unary(self) -> FormulaAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            self.enter(tok)
            node = Unary("neg", self.parse_unary())
            self.depth -= 1
            return node
        return self.parse_postfix()

    def parse_postfix(self) -> FormulaAst:
        node = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "%":
                self.next()
                node = Unary("percent", node)
            else:
                return node

    def parse_atom(self) -> FormulaAst:
        tok = self.next()
        if tok.kind == "number":
            value = Decimal(tok.text)
            if not in_number_range(value):
                raise FormulaSyntaxError(tok.pos, f"a number with an exponent within ±{MAX_EXPONENT}")
            return NumberLit(value)
        if tok.kind == "string":
            return TextLit(tok.text[1:-1].replace('""', '"'))
        if tok.kind == "error":
            return ErrorLit(tok.text)
        if tok.kind == "ref":
            return self.parse_range_tail(tok)
        if tok.kind == "ident":
            upper = tok.text.upper()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                self.enter(nxt)
                node = self.parse_call(upper)
                self.depth -= 1
                return node
            if upper == "TRUE":
                return BoolLit(True)
            if upper == "FALSE":
                return BoolLit(False)
            raise FormulaSyntaxError(tok.pos, "a reference, literal or function call")
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            node = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise FormulaSyntaxError(tok.pos, "an expression")

    def parse_range_tail(self, tok: _Token) -> FormulaAst:
        start: CellRef = tok.value
        nxt = self.peek()
        if not (nxt.kind == "op" and nxt.text == ":"):
            return Ref(start)
        self.next()
        end_tok = self.next()
        if end_tok.kind != "ref":
            raise FormulaSyntaxError(end_tok.pos, "a cell reference after ':'")
        end: CellRef = end_tok.value
        if end.sheet is not None and (
            start.sheet is None or end.sheet.lower() != start.sheet.lower()
        ):
            raise FormulaSyntaxError(end_tok.pos, "range endpoints on one sheet")
        if start.sheet is not None and end.sheet is None:
            end = CellRef(end.row, end.col, end.row_abs, end.col_abs, start.sheet)
        return Range(start, end)

    def parse_call(self, name: str) -> FormulaAst:
        self.expect_op("(")
        args: list[FormulaAst] = []
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text == ")":
            self.next()
            return Call(name, ())
        while True:
            args.append(self.parse_expr())
            tok = self.next()
            if tok.kind == "op" and tok.text == ")":
                return Call(name, tuple(args))
            if not (tok.kind == "op" and tok.text == ","):
                if tok.kind == "end":
                    raise UnbalancedParens(tok.pos)
                raise FormulaSyntaxError(tok.pos, "',' or ')'")


def parse_formula(source: str) -> FormulaAst:
    """Parse a formula (must start with '=') into an AST."""
    if not source.startswith("="):
        raise FormulaSyntaxError(0, "'=' at start of formula")
    tokens = _tokenize(source[1:])
    parser = _Parser(tokens)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        if trailing.kind == "op" and trailing.text == ")":
            raise UnbalancedParens(trailing.pos)
        raise FormulaSyntaxError(trailing.pos, "end of formula")
    return node


def _children(node: FormulaAst) -> tuple[FormulaAst, ...]:
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Unary):
        return (node.child,)
    if isinstance(node, Call):
        return node.args
    return ()


def _fields(node: FormulaAst, parts) -> tuple:
    """node's field values in order, its subtrees replaced by parts."""
    if isinstance(node, (Unary, Binary)):
        return (node.op, *parts)
    if isinstance(node, Call):
        return (node.name, tuple(parts))
    return tuple(getattr(node, name) for name in node.__match_args__)


def _preorder(tree: FormulaAst):
    """(class, fields other than subtrees, child count) of every node, each
    node before its subtrees, without recursion."""
    stack = [tree]
    while stack:
        node = stack.pop()
        kids = _children(node)
        yield node.__class__, _fields(node, ()), len(kids)
        stack.extend(kids)


class _Hashed:
    """Stands in for a subtree in its parent's field tuple: hashes as the
    subtree does, from the hash already computed for it."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


class _Shown:
    """Stands in for a subtree in its parent's field tuple: prints as the
    subtree does, from the text already built for it."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def fold(tree: FormulaAst, combine: Callable[[FormulaAst, Sequence[_T]], _T]) -> _T:
    """Bottom-up walk without recursion.  combine(node, parts) receives the
    results already built for node's children, in source order, and
    returns node's result; leaves get an empty parts.  Every walk over a
    tree is a combine rule, so no walk is limited by the call stack."""
    order: list[tuple[FormulaAst, int]] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        kids = _children(node)
        order.append((node, len(kids)))
        stack.extend(kids)
    # order holds each node before its subtrees, rightmost subtree first;
    # reversed, it is post-order with children left to right
    results: list[_T] = []
    for node, n in reversed(order):
        if n:
            parts = results[-n:]
            del results[-n:]
            results.append(combine(node, parts))
        else:
            results.append(combine(node, ()))
    return results[0]


def _prec(node: FormulaAst) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_UNARY if node.op == "neg" else _PREC_PERCENT
    return _PREC_ATOM


def _sheet_prefix(sheet: str | None) -> str:
    if sheet is None:
        return ""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sheet):
        return sheet + "!"
    return "'" + sheet.replace("'", "''") + "'!"


def _a1_axes(ref: CellRef) -> str:
    col = ("$" if ref.col_abs else "") + col_to_letters(ref.col)
    return col + ("$" if ref.row_abs else "") + str(ref.row)


def _render(tree: FormulaAst, prefix: Callable[[str | None], str], axes: Callable[[CellRef], str]) -> str:
    """tree's text, with prefix(sheet) printing each reference's sheet and
    axes(ref) its row and column in one notation."""

    def combine(node: FormulaAst, parts) -> str:
        if isinstance(node, NumberLit):
            return canonical_decimal(node.value)
        if isinstance(node, TextLit):
            return '"' + node.value.replace('"', '""') + '"'
        if isinstance(node, BoolLit):
            return "TRUE" if node.value else "FALSE"
        if isinstance(node, ErrorLit):
            return node.code
        if isinstance(node, Ref):
            return prefix(node.ref.sheet) + axes(node.ref)
        if isinstance(node, Range):
            # endpoints share a sheet; it prints once, before the start
            return f"{prefix(node.start.sheet)}{axes(node.start)}:{axes(node.end)}"
        if isinstance(node, Unary):
            (child,) = parts
            if _prec(node.child) < _prec(node):
                child = f"({child})"
            return f"-{child}" if node.op == "neg" else f"{child}%"
        if isinstance(node, Binary):
            left, right = parts
            own = _prec(node)
            if _prec(node.left) < own:
                left = f"({left})"
            if _prec(node.right) <= own:
                right = f"({right})"
            return f"{left}{node.op}{right}"
        if isinstance(node, Call):
            return f"{node.name}({','.join(parts)})"
        raise TypeError(f"not an AST node: {node!r}")

    return fold(tree, combine)


def print_formula(ast: FormulaAst) -> str:
    """Canonical text: minimal parentheses, uppercase function names, no
    whitespace.  parse(print(ast)) is structurally equal to ast."""
    return "=" + _render(ast, _sheet_prefix, _a1_axes)


def _r1c1(tree: FormulaAst, host: CellAddress, prefix: Callable[[str | None], str]) -> str:
    def axes(ref: CellRef) -> str:
        dr, dc = ref.row - host.row, ref.col - host.col
        row = f"R{ref.row}" if ref.row_abs else f"R[{dr}]" if dr else "R"
        return row + (f"C{ref.col}" if ref.col_abs else f"C[{dc}]" if dc else "C")

    return "=" + _render(tree, prefix, axes)


def normalize_relative(ast: FormulaAst, host: CellAddress) -> str:
    """R1C1 rendering relative to the host cell, sheet names as written.
    Translated copies of a formula normalize to identical text."""
    return _r1c1(ast, host, _sheet_prefix)


def copy_form(tree: FormulaAst, host: CellAddress) -> str:
    """normalize_relative's text with every sheet name lowered: the form
    by which copy-region consistency checks compare formulas, since sheet
    names compare without case."""
    return _r1c1(tree, host, lambda sheet: _sheet_prefix(sheet and sheet.lower()))


def references_of(ast: FormulaAst) -> list[CellRef | Range]:
    """All references in left-to-right source order, duplicates kept.
    Plain refs yield CellRef, ranges yield the Range node."""
    out: list[CellRef | Range] = []

    def combine(node: FormulaAst, parts) -> None:
        # the fold reaches leaves left to right
        if isinstance(node, Ref):
            out.append(node.ref)
        elif isinstance(node, Range):
            out.append(node)

    fold(ast, combine)
    return out


def shift_relative(node: FormulaAst, dr: int, dc: int) -> FormulaAst:
    """The tree copied (dr, dc) cells away: every axis without $ moves by
    (dr, dc), whatever sheet its reference names."""

    def move(ref: CellRef) -> CellRef:
        row, col = ref.row if ref.row_abs else ref.row + dr, ref.col if ref.col_abs else ref.col + dc
        return CellRef(row, col, ref.row_abs, ref.col_abs, ref.sheet)

    def combine(node: FormulaAst, parts) -> FormulaAst:
        if isinstance(node, Ref):
            return Ref(move(node.ref))
        if isinstance(node, Range):
            return Range(move(node.start), move(node.end))
        if isinstance(node, Unary):
            return Unary(node.op, *parts)
        if isinstance(node, Binary):
            return Binary(node.op, *parts)
        if isinstance(node, Call):
            return Call(node.name, tuple(parts))
        return node

    return fold(node, combine)
