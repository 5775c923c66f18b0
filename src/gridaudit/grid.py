"""Workbook data model and the canonical snapshot file format.

A snapshot is a full point-in-time capture of one workbook.  The on-disk
form (extension ``.snap``) is line-oriented, tab-separated, UTF-8 with LF
line endings:

    SNAP1<TAB>workbook_id<TAB>timestamp<TAB>actor
    ATTEST<TAB>free text                       (optional, at most one)
    sheet<TAB>A1-address<TAB>V<TAB>N<TAB>5     (literal number)
    sheet<TAB>A1-address<TAB>V<TAB>T<TAB>text  (literal text)
    sheet<TAB>A1-address<TAB>V<TAB>B<TAB>TRUE  (literal boolean)
    sheet<TAB>A1-address<TAB>V<TAB>E<TAB>#REF! (literal error)
    sheet<TAB>A1-address<TAB>F<TAB>=A1+1[<TAB>kind<TAB>payload]  (formula,
                                                optional cached value)

Backslash escapes (``\\\\``, ``\\t``, ``\\n``, ``\\r``) keep every field on
one line, so arbitrary text payloads round-trip.  Empty cells are never
stored; absence from the cell map means empty.  Timestamps are RFC 3339
and are normalized to UTC on parse.

The content digest is SHA-256 over the canonical cell lines plus a reduced
header holding only the workbook id.  Timestamp, actor and attestation are
excluded so that a re-save without edits keeps its digest and change sets
can be replayed digest-to-digest.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from decimal import Decimal
from operator import attrgetter

ERROR_CODES = frozenset(
    {"#DIV/0!", "#N/A", "#NAME?", "#NULL!", "#NUM!", "#REF!", "#VALUE!"}
)

MAX_COL = 16384
MAX_EXPONENT = 999_999  # a nonzero number's adjusted exponent lies within ±MAX_EXPONENT

# the C types without running datetime.py, whose pure-Python body CPython
# executes in full before it swaps them in
try:
    from _datetime import datetime, timezone
except ImportError:  # another interpreter
    from datetime import datetime, timezone

# CPython's own SHA-256, the one hashlib falls back to without OpenSSL:
# the same digests, without loading libcrypto into every command
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # another interpreter
        from hashlib import sha256

_NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_A1_RE = re.compile(r"([A-Za-z]{1,3})([0-9]+)")


class SnapshotError(ValueError):
    """Base for snapshot file format errors."""


class MalformedHeader(SnapshotError):
    pass


class BadTimestamp(SnapshotError):
    pass


class BadAddress(SnapshotError):
    """A cell line that cannot be parsed (address, kind or payload)."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DuplicateCell(SnapshotError):
    def __init__(self, address: "CellAddress"):
        super().__init__(f"duplicate cell {address}")
        self.address = address


# --- records -----------------------------------------------------------------


class FrozenRecordError(AttributeError):
    """Raised on assigning to or deleting a field of a record."""


def _record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


_setattr = object.__setattr__

# A record class's methods start as closures over its field names, which
# cost nothing to build.  Methods compiled for its fields cost about 0.2 ms
# to build, but make each instance about 0.4 µs faster and compare and hash
# it faster too, so a class switches to them once it has made this many
# instances in one process: a class that a command barely uses is never
# compiled.
_COMPILE_AFTER = 256


def _record_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _record_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


class _Signature:
    """A record class's ``__signature__``, built when asked for: building it
    needs ``inspect``, which no command should pay to import."""

    def __init__(self, defaults: dict):
        self.defaults = defaults

    def __get__(self, obj, owner):
        from inspect import Parameter, Signature

        return Signature(
            Parameter(name, Parameter.POSITIONAL_OR_KEYWORD, default=self.defaults.get(name, Parameter.empty))
            for name in owner.__match_args__
        )


def _bind(qualname: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call that gives keywords or leaves fields to
    their defaults, or the TypeError that a ``def`` taking those fields
    as parameters would raise for the call."""
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{qualname}() got an unexpected keyword argument '{name}'")
        if name in values:
            raise TypeError(f"{qualname}() got multiple values for argument '{name}'")
        values[name] = value
    if len(args) > len(names):  # counts include self, as Python's own message does
        takes = f"from {len(names) - len(defaults) + 1} to {len(names) + 1}" if defaults else len(names) + 1
        raise TypeError(f"{qualname}() takes {takes} positional arguments but {len(args) + 1} were given")
    missing = [repr(name) for name in names if name not in values and name not in defaults]
    if missing:
        listed = " and ".join(missing) if len(missing) < 3 else ", ".join(missing[:-1]) + ", and " + missing[-1]
        plural = "s" if len(missing) > 1 else ""
        raise TypeError(f"{qualname}() missing {len(missing)} required positional argument{plural}: {listed}")
    return [values[name] if name in values else defaults[name] for name in names]


def _compiled(qualname: str, names: tuple, defaults: dict, post_init) -> dict:
    """``__init__``, ``__eq__`` and ``__hash__`` compiled for these fields;
    each behaves as the closure that record() starts a class with."""
    namespace = {"_setattr": _setattr, "_post_init": post_init}
    params, body = [], []
    for name in names:
        if name in defaults:
            namespace[f"_dflt_{name}"] = defaults[name]
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        body.append(f"  _setattr(self, {name!r}, {name})")
    if post_init is not None:
        body.append("  _post_init(self)")
    own, other = ("(" + "".join(f"{side}.{name}," for name in names) + ")" for side in ("self", "other"))
    source = [
        f"def __init__(self, {', '.join(params)}):",
        *body,
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return {own} == {other}",
        "  return NotImplemented",
        "def __hash__(self):",
        f"  return hash({own})",
    ]
    exec("\n".join(source), namespace)
    namespace["__init__"].__qualname__ = qualname  # names the class in a TypeError, as the closure does
    return namespace


def record(cls):
    """Make cls a frozen value class over its annotated fields, in order.

    A class attribute named like a field is that field's default.
    ``__init__`` sets each field, then calls ``__post_init__`` if the class
    has one; it takes the fields as a ``def`` would take them as parameters
    and raises the same ``TypeError`` on a bad call, and
    ``inspect.signature(cls)`` names them with their defaults.  Two records
    are equal when their classes match and their field tuples are equal,
    and a record hashes as its field tuple.  Every record prints as
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises ``FrozenRecordError``.  A method the class or a base (other than
    ``object``) defines is kept.  Records do not inherit from records.

    Building a class compiles nothing: its methods are closures until it
    has made _COMPILE_AFTER instances, and are then swapped for methods
    compiled for its fields, which behave the same.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count, post_init = len(names), getattr(cls, "__post_init__", None)
    qualname, methods, made = f"{cls.__qualname__}.__init__", ["__init__"], 0

    def __init__(self, *args, **kwargs):
        nonlocal made
        made += 1
        if made == _COMPILE_AFTER:
            compiled = _compiled(qualname, names, defaults, post_init)
            for method in methods:
                setattr(cls, method, compiled[method])
        if kwargs or len(args) != count:
            args = _bind(qualname, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    __init__.__qualname__ = qualname
    cls.__init__ = __init__
    cls.__signature__ = _Signature(defaults)
    get, wide = attrgetter(*names), count > 1  # one name gets the value, not a 1-tuple
    if cls.__eq__ is object.__eq__:

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                if wide:
                    return get(self) == get(other)
                return (get(self),) == (get(other),)
            return NotImplemented

        cls.__eq__ = __eq__
        methods.append("__eq__")
    if cls.__hash__ is None or cls.__hash__ is object.__hash__:

        def __hash__(self):
            return hash(get(self) if wide else (get(self),))

        cls.__hash__ = __hash__
        methods.append("__hash__")
    if cls.__repr__ is object.__repr__:
        cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    cls.__match_args__ = names
    return cls


def col_to_letters(col: int) -> str:
    """1 -> A, 26 -> Z, 27 -> AA (bijective base 26)."""
    if col < 1:
        raise ValueError(f"column must be >= 1, got {col}")
    letters = ""
    while col > 0:
        col, rem = divmod(col - 1, 26)
        letters = chr(ord("A") + rem) + letters
    return letters


def letters_to_col(letters: str) -> int:
    col = 0
    for ch in letters.upper():
        if not "A" <= ch <= "Z":
            raise ValueError(f"bad column letters {letters!r}")
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return col


@record
class CellAddress:
    """1-based cell location.  Sheet comparisons are case-insensitive but
    the stored case is preserved for display."""

    sheet: str
    row: int
    col: int

    def __post_init__(self):
        if not self.sheet:
            raise ValueError("sheet name must be non-empty")
        if self.row < 1 or self.col < 1:
            raise ValueError(f"row/col must be >= 1, got {self.row}/{self.col}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellAddress):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def sort_key(self) -> tuple[str, int, int]:
        return (self.sheet.lower(), self.row, self.col)

    @property
    def a1(self) -> str:
        return f"{col_to_letters(self.col)}{self.row}"

    def __str__(self) -> str:
        return f"{self.sheet}!{self.a1}"


@record
class Region:
    """Rectangular block of cells on one sheet, inclusive bounds."""

    sheet: str
    top: int
    left: int
    bottom: int
    right: int

    def __post_init__(self):
        if not self.sheet:
            raise ValueError("sheet name must be non-empty")
        if not (1 <= self.top <= self.bottom and 1 <= self.left <= self.right):
            raise ValueError(f"bad region bounds {self}")

    def contains(self, address: CellAddress) -> bool:
        return (
            address.sheet.lower() == self.sheet.lower()
            and self.top <= address.row <= self.bottom
            and self.left <= address.col <= self.right
        )

    def sort_key(self) -> tuple[str, int, int]:
        return (self.sheet.lower(), self.top, self.left)

    def __str__(self) -> str:
        start = f"{col_to_letters(self.left)}{self.top}"
        if (self.top, self.left) == (self.bottom, self.right):
            return f"{self.sheet}!{start}"
        end = f"{col_to_letters(self.right)}{self.bottom}"
        return f"{self.sheet}!{start}:{end}"


@record
class Number:
    value: Decimal

    def __post_init__(self):
        if not in_number_range(self.value):
            raise ValueError(f"number {self.value} must be finite, with an exponent within ±{MAX_EXPONENT}")


@record
class Text:
    value: str


@record
class Boolean:
    value: bool


@record
class ErrorValue:
    code: str

    def __post_init__(self):
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown error code {self.code!r}")


CellValue = Number | Text | Boolean | ErrorValue


@record
class Literal:
    value: CellValue


@record
class Formula:
    source: str
    cached: CellValue | None = None

    def __post_init__(self):
        if not self.source.startswith("="):
            raise ValueError(f"formula source must start with '=': {self.source!r}")


CellContent = Literal | Formula


@record
class Snapshot:
    workbook_id: str
    timestamp: datetime
    actor: str
    cells: dict[CellAddress, CellContent] = None  # None: a {} of the instance's own
    attestation: str | None = None

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            raise ValueError("snapshot timestamp must be timezone-aware")
        object.__setattr__(self, "timestamp", self.timestamp.astimezone(timezone.utc))
        if self.cells is None:
            object.__setattr__(self, "cells", {})

    def formula_cells(self) -> dict[CellAddress, Formula]:
        return {a: c for a, c in self.cells.items() if isinstance(c, Formula)}


def in_number_range(value: Decimal) -> bool:
    """Whether value is finite and zero or with an adjusted exponent
    within ±MAX_EXPONENT: the numbers a snapshot, formula or policy holds."""
    return value.is_finite() and (not value or -MAX_EXPONENT <= value.adjusted() <= MAX_EXPONENT)


def canonical_decimal(value: Decimal) -> str:
    """Deterministic text for a Decimal: equal values render identically,
    with every digit, no exponent notation and no trailing zeros."""
    if value == 0:
        return "0"
    text = format(value, "f")  # exact at the value's own precision
    return text.rstrip("0").rstrip(".") if "." in text else text


def format_instant(dt: datetime) -> str:
    """RFC 3339 text in UTC with a Z suffix."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


def parse_instant(text: str) -> datetime:
    raw = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise BadTimestamp(f"unparseable timestamp {text!r}") from exc
    if dt.tzinfo is None:
        raise BadTimestamp(f"timestamp {text!r} has no timezone offset")
    return dt.astimezone(timezone.utc)


def _escape(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPE = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
# a backslash and the character after it on its line; an empty or unknown one is a bad escape
_ESCAPE_RE = re.compile(r"\\(.?)")


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    try:
        return _ESCAPE_RE.sub(lambda m: _UNESCAPE[m[1]], text)
    except KeyError:
        raise ValueError(f"bad escape in {text!r}") from None


def join_fields(*fields: str) -> str:
    """One row of a snapshot file or ledger payload: each field escaped,
    the fields joined with tabs."""
    return "\t".join(map(_escape, fields))


def split_fields(row: str) -> list[str]:
    """The fields of a row join_fields made, each unescaped."""
    return list(map(_unescape, row.split("\t")))


def parse_a1(text: str) -> tuple[int, int]:
    """A1-style address text -> (row, col)."""
    m = _A1_RE.fullmatch(text)
    if not m:
        raise ValueError(f"bad A1 address {text!r}")
    col = letters_to_col(m.group(1))
    row = int(m.group(2))
    if row < 1 or col > MAX_COL:
        raise ValueError(f"address {text!r} out of range")
    return row, col


def parse_qualified_address(text: str) -> CellAddress:
    """'Sheet1!B2' -> CellAddress."""
    sheet, sep, addr = text.rpartition("!")
    if not sep or not sheet:
        raise ValueError(f"address {text!r} must be sheet-qualified")
    row, col = parse_a1(addr)
    return CellAddress(sheet, row, col)


def parse_region(text: str) -> Region:
    """'Sheet1!A1:D20' or a single cell 'Sheet1!B2' -> Region."""
    sheet, sep, rect = text.rpartition("!")
    if not sep or not sheet:
        raise ValueError(f"region {text!r} must be sheet-qualified")
    if ":" in rect:
        start, _, end = rect.partition(":")
        top, left = parse_a1(start)
        bottom, right = parse_a1(end)
    else:
        top, left = parse_a1(rect)
        bottom, right = top, left
    return Region(sheet, min(top, bottom), min(left, right), max(top, bottom), max(left, right))


def parse_location(text: str) -> CellAddress | Region:
    sheet, sep, rest = text.rpartition("!")
    if sep and ":" in rest:
        return parse_region(text)
    return parse_qualified_address(text)


def _value_fields(value: CellValue) -> list[str]:
    if isinstance(value, Number):
        return ["N", canonical_decimal(value.value)]
    if isinstance(value, Text):
        return ["T", _escape(value.value)]
    if isinstance(value, Boolean):
        return ["B", "TRUE" if value.value else "FALSE"]
    return ["E", value.code]


def _parse_value_fields(kind: str, payload: str) -> CellValue:
    if kind == "N":
        if not _NUMBER_RE.fullmatch(payload):
            raise ValueError(f"bad number {payload!r}")
        return Number(Decimal(payload))
    if kind == "T":
        return Text(_unescape(payload))
    if kind == "B":
        if payload not in ("TRUE", "FALSE"):
            raise ValueError(f"bad boolean {payload!r}")
        return Boolean(payload == "TRUE")
    if kind == "E":
        return ErrorValue(payload)
    raise ValueError(f"unknown value kind {kind!r}")


def _content_fields(content: CellContent) -> list[str]:
    if isinstance(content, Literal):
        return ["V", *_value_fields(content.value)]
    fields = ["F", _escape(content.source)]
    if content.cached is not None:
        fields.extend(_value_fields(content.cached))
    return fields


def _parse_content_fields(fields: list[str]) -> CellContent:
    """The content _content_fields rendered: V kind value, or F source
    with an optional kind and value for the cached result."""
    if len(fields) < 2:
        raise ValueError(f"cell content needs at least 2 fields, found {len(fields)}")
    kind = fields[0]
    if kind == "V":
        if len(fields) != 3:
            raise ValueError(f"literal content needs 3 fields, found {len(fields)}")
        return Literal(_parse_value_fields(fields[1], fields[2]))
    if kind == "F":
        if len(fields) not in (2, 4):
            raise ValueError(f"formula content needs 2 or 4 fields, found {len(fields)}")
        cached = _parse_value_fields(fields[2], fields[3]) if len(fields) == 4 else None
        return Formula(_unescape(fields[1]), cached)
    raise ValueError(f"unknown cell kind {kind!r}")


def _cell_line(address: CellAddress, content: CellContent) -> str:
    return "\t".join([_escape(address.sheet), address.a1, *_content_fields(content)])


class CellLines:
    """The canonical line of each cell of one snapshot, rendered once and
    kept in CellAddress.sort_key order.  snapshot_digest and
    write_snapshot_file both read a snapshot's lines from here, so the
    digest covers exactly the stored cell lines.  set and remove change
    one line and keep the order with bisect, so a replayed snapshot is
    re-hashed without re-rendering the cells it did not touch.

    CellLines.stored holds a file's lines as stored instead, none parsed
    until cells reads them all and checks their order, so set and remove,
    which bisect on the addresses, find any line once it has run."""

    def __init__(self, cells: dict[CellAddress, CellContent]):
        self._addresses: list[CellAddress | None] = sorted(cells, key=CellAddress.sort_key)
        self._lines = [_cell_line(address, cells[address]) for address in self._addresses]
        self._first_lineno = 1  # the file line number of line 0, for parse errors

    @classmethod
    def stored(cls, lines: list[str], first_lineno: int) -> "CellLines":
        """The cell lines of a snapshot file as stored, in file order, line
        0 being the file's line first_lineno.  No line is parsed here.
        They are the canonical lines only if they hash to the snapshot's
        digest, which the caller checks."""
        self = cls({})
        self._addresses, self._lines, self._first_lineno = [None] * len(lines), lines, first_lineno
        return self

    def copy(self) -> "CellLines":
        other = CellLines({})
        other._addresses, other._lines = list(self._addresses), list(self._lines)
        other._first_lineno = self._first_lineno
        return other

    def by_line(self, cells: dict[CellAddress, CellContent]) -> dict[str, tuple[CellAddress, CellContent]]:
        """Each line's text mapped to its address and content in cells, the
        dict these lines were rendered from: the map that cells takes."""
        return {line: (address, cells[address]) for line, address in zip(self._lines, self._addresses)}

    def cells(self, parsed: dict[str, tuple[CellAddress, CellContent]] | None = None) -> dict[CellAddress, CellContent]:
        """The cells of every line, each line parsed once, here, unless
        parsed maps its text to the (address, content) it stands for (as
        for parse_snapshot_file): then those very objects are taken.  Each
        line must sort strictly after the one before it, whichever way it
        was read, so a blank, malformed, repeated or out-of-order line
        raises SnapshotError (BadAddress).  Every line's address is kept."""
        known = parsed or {}
        cells, previous = {}, ()  # () sorts before every key
        for i, line in enumerate(self._lines):
            address, content = known.get(line) or _parse_cell_line(self._first_lineno + i, line)
            key = address.sort_key()
            if key <= previous:
                raise BadAddress(self._first_lineno + i, f"{address} does not sort after the cell line before it")
            self._addresses[i] = address
            cells[address], previous = content, key
        return cells

    def set(self, address: CellAddress, content: CellContent) -> None:
        """The line for cells[address] = content: like a dict key, a cell
        already present keeps its stored address and sheet-name case."""
        i = bisect_left(self._addresses, address.sort_key(), key=CellAddress.sort_key)
        if i < len(self._addresses) and self._addresses[i] == address:
            self._lines[i] = _cell_line(self._addresses[i], content)
        else:
            self._addresses.insert(i, address)
            self._lines.insert(i, _cell_line(address, content))

    def remove(self, address: CellAddress) -> None:
        """Drop the line of a cell that is present."""
        i = bisect_left(self._addresses, address.sort_key(), key=CellAddress.sort_key)
        del self._addresses[i], self._lines[i]

    def __iter__(self):
        return iter(self._lines)

    def digest(self, workbook_id: str) -> str:
        """64 lowercase hex chars of SHA-256 over the content-only
        canonical bytes: a reduced header, then the cell lines."""
        payload = "\n".join([join_fields("SNAP1", workbook_id), *self._lines]) + "\n"
        return sha256(payload.encode("utf-8")).hexdigest()


def write_snapshot_file(snapshot: Snapshot, lines: CellLines | None = None) -> str:
    """Canonical text form: header, optional ATTEST line, then cell lines
    sorted by (sheet lowercase, row, col) so output is byte-deterministic.
    lines, if given, are the snapshot's CellLines, already rendered."""
    out = [join_fields("SNAP1", snapshot.workbook_id, format_instant(snapshot.timestamp), snapshot.actor)]
    if snapshot.attestation is not None:
        out.append(join_fields("ATTEST", snapshot.attestation))
    out.extend(CellLines(snapshot.cells) if lines is None else lines)
    return "\n".join(out) + "\n"


def _parse_cell_line(lineno: int, line: str) -> tuple[CellAddress, CellContent]:
    fields = line.split("\t")
    if len(fields) < 2:
        raise BadAddress(lineno, f"cell line needs a sheet and an address: {line!r}")
    try:
        address = CellAddress(_unescape(fields[0]), *parse_a1(fields[1]))
        return address, _parse_content_fields(fields[2:])
    except ValueError as exc:
        raise BadAddress(lineno, str(exc)) from exc


def _parse_head(lines: list[str]) -> tuple[str, datetime, str, str | None, int]:
    """The header fields and optional ATTEST text of a snapshot file's
    lines: workbook id, timestamp, actor, attestation and the index of
    the first cell line."""
    if not lines:
        raise MalformedHeader("empty snapshot file")
    header = lines[0].split("\t")
    if len(header) != 4 or header[0] != "SNAP1":
        raise MalformedHeader(f"bad header line: {lines[0]!r}")
    try:
        workbook_id = _unescape(header[1])
        actor = _unescape(header[3])
    except ValueError as exc:
        raise MalformedHeader(str(exc)) from exc
    if not workbook_id:
        raise MalformedHeader("empty workbook id")
    timestamp = parse_instant(header[2])
    # the writer escapes every tab in the text, so its ATTEST line has two
    # fields; a cell line on a sheet named ATTEST has at least four
    if len(lines) > 1 and lines[1].startswith("ATTEST\t") and lines[1].count("\t") == 1:
        try:
            return workbook_id, timestamp, actor, _unescape(lines[1][len("ATTEST\t") :]), 2
        except ValueError as exc:
            raise MalformedHeader(str(exc)) from exc
    return workbook_id, timestamp, actor, None, 1


def parse_snapshot_file(
    content: str, parsed: dict[str, tuple[CellAddress, CellContent]] | None = None
) -> Snapshot:
    """The snapshot a file holds, with every cell line checked: a blank
    line is skipped, a malformed one raises BadAddress with its line
    number, and a second line for one address raises DuplicateCell.

    parsed, if given, maps a cell line's text to the (address, content)
    an earlier parse made of it, and gains every line parsed here.  Each
    distinct line is parsed once: identical text gives an identical,
    immutable cell, so a line already in parsed is taken from it.  Two
    files parsed against one map therefore hold each line they share as
    the very same objects, which diffing.diff_events passes unexamined."""
    # the format is LF-delimited; split("\n") keeps exotic line-breaking
    # characters (NEL, VT, FF, U+2028...) safely inside fields
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    workbook_id, timestamp, actor, attestation, start = _parse_head(lines)
    cells: dict[CellAddress, CellContent] = {}
    for lineno, line in enumerate(lines[start:], start + 1):
        if not line:
            continue
        # with no map no line is kept: one file alone shares no lines, and
        # keeping a large file's lines costs an audit or an ingest time
        if parsed is None:
            address, cell = _parse_cell_line(lineno, line)
        elif (known := parsed.get(line)) is None:
            address, cell = parsed[line] = _parse_cell_line(lineno, line)
        else:
            address, cell = known
        # a repeat is found by key, not by identity (a line repeated in one
        # file gives the very same cell both times), and with one hash
        count = len(cells)
        cells[address] = cell
        if len(cells) == count:
            raise DuplicateCell(address)
    return Snapshot(workbook_id, timestamp, actor, cells, attestation)


def read_stored_lines(content: str) -> tuple[str, datetime, str, str | None, CellLines]:
    """The header fields (workbook id, timestamp, actor and attestation)
    and the cell lines of a snapshot file as stored, with the header and
    ATTEST line checked as parse_snapshot_file checks them and no cell
    line parsed (CellLines.stored).  The lines are the canonical ones only
    if they hash to the snapshot's digest, which the caller checks (a file
    not ending in a newline fails that check)."""
    lines = content.split("\n")
    *head, start = _parse_head(lines[:-1])
    return *head, CellLines.stored(lines[start:-1], start + 1)


def encode_content(content: CellContent) -> str:
    """Tab-joined cell content fields (the cell-line tail after the
    address), reused inside ledger payloads."""
    return "\t".join(_content_fields(content))


def decode_content(text: str) -> CellContent:
    """The content encode_content rendered."""
    return _parse_content_fields(text.split("\t"))


def snapshot_digest(snapshot: Snapshot) -> str:
    """64 lowercase hex chars of SHA-256 over the content-only canonical
    bytes (workbook id plus sorted cell lines)."""
    return CellLines(snapshot.cells).digest(snapshot.workbook_id)


def content_value(content: CellContent) -> CellValue | None:
    """The observable value of a cell: a literal's value or a formula's
    cached value, if any."""
    if isinstance(content, Literal):
        return content.value
    return content.cached


def render_value(value: CellValue) -> str:
    """Compact one-field display text for a cell value."""
    if isinstance(value, Number):
        return canonical_decimal(value.value)
    if isinstance(value, Text):
        return '"' + value.value.replace('"', '""') + '"'
    if isinstance(value, Boolean):
        return "TRUE" if value.value else "FALSE"
    return value.code


def render_content(content: CellContent | None) -> str:
    """Display text for a cell: formula source, literal value, or '-'."""
    if content is None:
        return "-"
    if isinstance(content, Formula):
        return content.source
    return render_value(content.value)
