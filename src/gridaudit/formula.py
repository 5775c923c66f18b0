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
cap instead of exhausting the interpreter's stack.

``normalize_relative`` renders a tree in R1C1 form relative to a host
cell, so translated copies of one formula produce identical text.
Sheet-qualified references keep their sheet name and always render with
absolute coordinates: a cross-sheet reference is never host-relative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal

from .grid import (
    ERROR_CODES,
    MAX_COL,
    CellAddress,
    canonical_decimal,
    col_to_letters,
    letters_to_col,
)


MAX_NESTING = 64  # Excel's limit on nested levels; see the module docstring


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


@dataclass(frozen=True)
class CellRef:
    """A1-style reference; absent sheet means the host sheet."""

    row: int
    col: int
    row_abs: bool = False
    col_abs: bool = False
    sheet: str | None = None


@dataclass(frozen=True)
class NumberLit:
    value: Decimal


@dataclass(frozen=True)
class TextLit:
    value: str


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class ErrorLit:
    code: str


@dataclass(frozen=True)
class Ref:
    ref: CellRef


@dataclass(frozen=True)
class Range:
    start: CellRef
    end: CellRef


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "percent"
    child: "FormulaAst"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "FormulaAst"
    right: "FormulaAst"


@dataclass(frozen=True)
class Call:
    name: str  # stored uppercase
    args: tuple["FormulaAst", ...]


FormulaAst = NumberLit | TextLit | BoolLit | ErrorLit | Ref | Range | Unary | Binary | Call

# Binary precedence levels, lowest binds loosest.
_LEVELS: list[frozenset[str]] = [
    frozenset({"=", "<>", "<", "<=", ">", ">="}),
    frozenset({"&"}),
    frozenset({"+", "-"}),
    frozenset({"*", "/"}),
    frozenset({"^"}),
]
_BINARY_PREC = {op: i + 1 for i, level in enumerate(_LEVELS) for op in level}
_PREC_UNARY = len(_LEVELS) + 1
_PREC_PERCENT = _PREC_UNARY + 1
_PREC_ATOM = _PREC_PERCENT + 1

_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_STRING_RE = re.compile(r'"(?:[^"]|"")*"')
_SHEET_RE = r"(?:'(?:[^']|'')*'|[A-Za-z_][A-Za-z0-9_]*)"
_REF_RE = re.compile(rf"(?:({_SHEET_RE})!)?(\$?)([A-Za-z]{{1,3}})(\$?)([1-9][0-9]*)")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_OPS = ("<>", "<=", ">=", "=", "<", ">", "&", "+", "-", "*", "/", "^", "%", "(", ")", ",", ":")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "string" | "error" | "ref" | "ident" | "op" | "end"
    text: str
    pos: int
    value: object = None


def _sheet_name(token: str) -> str:
    if token.startswith("'"):
        return token[1:-1].replace("''", "'")
    return token


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':
            m = _STRING_RE.match(source, i)
            if not m:
                raise FormulaSyntaxError(i, "closing quote")
            raw = m.group(0)
            tokens.append(_Token("string", raw, i, raw[1:-1].replace('""', '"')))
            i = m.end()
            continue
        if ch == "#":
            for code in ERROR_CODES:
                if source.startswith(code, i):
                    tokens.append(_Token("error", code, i, code))
                    i += len(code)
                    break
            else:
                raise UnknownToken(i, source[i : i + 8])
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            m = _NUMBER_RE.match(source, i)
            if not m:
                raise UnknownToken(i, source[i : i + 8])
            tokens.append(_Token("number", m.group(0), i, Decimal(m.group(0))))
            i = m.end()
            continue
        ref_match = _REF_RE.match(source, i)
        if ref_match is not None and _accept_ref(source, ref_match):
            sheet_tok, col_abs, letters, row_abs, row = ref_match.groups()
            ref = CellRef(
                row=int(row),
                col=letters_to_col(letters),
                row_abs=bool(row_abs),
                col_abs=bool(col_abs),
                sheet=_sheet_name(sheet_tok) if sheet_tok else None,
            )
            tokens.append(_Token("ref", ref_match.group(0), i, ref))
            i = ref_match.end()
            continue
        ident_match = _IDENT_RE.match(source, i)
        if ident_match:
            tokens.append(_Token("ident", ident_match.group(0), i))
            i = ident_match.end()
            continue
        for op in _OPS:
            if source.startswith(op, i):
                tokens.append(_Token("op", op, i))
                i += len(op)
                break
        else:
            raise UnknownToken(i, source[i : i + 8])
    tokens.append(_Token("end", "", n))
    return tokens


def _accept_ref(source: str, m: re.Match) -> bool:
    """Reject ref-shaped text that is really a function name (LOG10( ...)
    or an out-of-range column."""
    if letters_to_col(m.group(3)) > MAX_COL:
        return False
    if m.group(1) or m.group(2) or m.group(4):
        return True
    j = m.end()
    while j < len(source) and source[j].isspace():
        j += 1
    return not (j < len(source) and source[j] == "(")


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

    def parse_expr(self, level: int = 0) -> FormulaAst:
        if level == len(_LEVELS):
            return self.parse_unary()
        node = self.parse_expr(level + 1)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in _LEVELS[level]:
                self.next()
                right = self.parse_expr(level + 1)
                node = Binary(tok.text, node, right)
            else:
                return node

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
            return NumberLit(tok.value)
        if tok.kind == "string":
            return TextLit(tok.value)
        if tok.kind == "error":
            return ErrorLit(tok.value)
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
        if tok.kind == "end":
            raise FormulaSyntaxError(tok.pos, "an expression")
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


def _prec(node: FormulaAst) -> int:
    if isinstance(node, Binary):
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary):
        return _PREC_UNARY if node.op == "neg" else _PREC_PERCENT
    return _PREC_ATOM


def _quote_sheet(sheet: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", sheet):
        return sheet
    return "'" + sheet.replace("'", "''") + "'"


class _A1Renderer:
    def ref(self, ref: CellRef) -> str:
        text = ""
        if ref.sheet is not None:
            text += _quote_sheet(ref.sheet) + "!"
        text += ("$" if ref.col_abs else "") + col_to_letters(ref.col)
        text += ("$" if ref.row_abs else "") + str(ref.row)
        return text

    def range(self, start: CellRef, end: CellRef) -> str:
        # endpoints share a sheet; it prints once on the start side
        naked_end = CellRef(end.row, end.col, end.row_abs, end.col_abs)
        return f"{self.ref(start)}:{self.ref(naked_end)}"


class _R1C1Renderer:
    def __init__(self, host: CellAddress):
        self.host = host

    def ref(self, ref: CellRef) -> str:
        text = ""
        absolute = ref.sheet is not None
        if absolute:
            text += _quote_sheet(ref.sheet) + "!"
        if absolute or ref.row_abs:
            row = f"R{ref.row}"
        else:
            dr = ref.row - self.host.row
            row = f"R[{dr}]" if dr else "R"
        if absolute or ref.col_abs:
            col = f"C{ref.col}"
        else:
            dc = ref.col - self.host.col
            col = f"C[{dc}]" if dc else "C"
        return text + row + col

    def range(self, start: CellRef, end: CellRef) -> str:
        if start.sheet is not None:
            # cross-sheet ranges are never host-relative
            return f"{self.ref(start)}:R{end.row}C{end.col}"
        return f"{self.ref(start)}:{self.ref(end)}"


def _render(node: FormulaAst, renderer) -> str:
    if isinstance(node, NumberLit):
        return canonical_decimal(node.value)
    if isinstance(node, TextLit):
        return '"' + node.value.replace('"', '""') + '"'
    if isinstance(node, BoolLit):
        return "TRUE" if node.value else "FALSE"
    if isinstance(node, ErrorLit):
        return node.code
    if isinstance(node, Ref):
        return renderer.ref(node.ref)
    if isinstance(node, Range):
        return renderer.range(node.start, node.end)
    if isinstance(node, Unary):
        own = _prec(node)
        child = _render(node.child, renderer)
        if _prec(node.child) < own:
            child = f"({child})"
        return f"-{child}" if node.op == "neg" else f"{child}%"
    if isinstance(node, Binary):
        own = _prec(node)
        left = _render(node.left, renderer)
        if _prec(node.left) < own:
            left = f"({left})"
        right = _render(node.right, renderer)
        if _prec(node.right) <= own:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    if isinstance(node, Call):
        args = ",".join(_render(a, renderer) for a in node.args)
        return f"{node.name}({args})"
    raise TypeError(f"not an AST node: {node!r}")


def print_formula(ast: FormulaAst) -> str:
    """Canonical text: minimal parentheses, uppercase function names, no
    whitespace.  parse(print(ast)) is structurally equal to ast."""
    return "=" + _render(ast, _A1Renderer())


def normalize_relative(ast: FormulaAst, host: CellAddress) -> str:
    """R1C1 rendering relative to the host cell.  Translated copies of a
    formula normalize to identical text, which is the equivalence key for
    copy-region consistency checks."""
    return "=" + _render(ast, _R1C1Renderer(host))


def references_of(ast: FormulaAst) -> list[CellRef | Range]:
    """All references in left-to-right source order, duplicates kept.
    Plain refs yield CellRef, ranges yield the Range node."""
    out: list[CellRef | Range] = []

    def walk(node: FormulaAst) -> None:
        if isinstance(node, Ref):
            out.append(node.ref)
        elif isinstance(node, Range):
            out.append(node)
        elif isinstance(node, Unary):
            walk(node.child)
        elif isinstance(node, Binary):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Call):
            for arg in node.args:
                walk(arg)

    walk(ast)
    return out


def shift_relative(node: FormulaAst, dr: int, dc: int) -> FormulaAst:
    """Translate every host-relative reference axis by (dr, dc); absolute
    axes and sheet-qualified references do not move."""

    def shift_ref(ref: CellRef) -> CellRef:
        if ref.sheet is not None:
            return ref
        return CellRef(
            ref.row if ref.row_abs else ref.row + dr,
            ref.col if ref.col_abs else ref.col + dc,
            ref.row_abs,
            ref.col_abs,
            None,
        )

    if isinstance(node, Ref):
        return Ref(shift_ref(node.ref))
    if isinstance(node, Range):
        return Range(shift_ref(node.start), shift_ref(node.end))
    if isinstance(node, Unary):
        return Unary(node.op, shift_relative(node.child, dr, dc))
    if isinstance(node, Binary):
        return Binary(node.op, shift_relative(node.left, dr, dc), shift_relative(node.right, dr, dc))
    if isinstance(node, Call):
        return Call(node.name, tuple(shift_relative(a, dr, dc) for a in node.args))
    return node
