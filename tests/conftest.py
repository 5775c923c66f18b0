"""Shared builders for snapshot and ledger fixtures."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import strategies as st

from gridaudit.grid import (
    Boolean,
    CellAddress,
    CellContent,
    CellValue,
    ErrorValue,
    Formula,
    Number,
    Snapshot,
    Text,
    col_to_letters,
    parse_qualified_address,
)

T0 = datetime(2024, 3, 1, 9, 0, 0, tzinfo=timezone.utc)


def addr(text: str) -> CellAddress:
    return parse_qualified_address(text)


def val(raw) -> CellValue:
    if isinstance(raw, bool):
        return Boolean(raw)
    if isinstance(raw, (int, Decimal)):
        return Number(Decimal(raw))
    if isinstance(raw, float):
        return Number(Decimal(str(raw)))
    if isinstance(raw, str) and raw in ("#DIV/0!", "#N/A", "#NAME?", "#NULL!", "#NUM!", "#REF!", "#VALUE!"):
        return ErrorValue(raw)
    if isinstance(raw, str):
        return Text(raw)
    raise TypeError(f"cannot coerce {raw!r} to a cell value")


def cell(raw) -> CellContent:
    """Coerce shorthand to content: '=...' becomes a formula, a 2-tuple
    ('=...', cached) a formula with a cached value, anything else a value."""
    if isinstance(raw, CellContent):
        return raw
    if isinstance(raw, tuple):
        return Formula(raw[0], val(raw[1]))
    if isinstance(raw, str) and raw.startswith("="):
        return Formula(raw)
    return val(raw)


def snap(cells: dict, wb: str = "wb1", at: datetime = T0, actor: str = "alice", att: str | None = None) -> Snapshot:
    return Snapshot(wb, at, actor, {addr(k): cell(v) for k, v in cells.items()}, att)


def hours(n: float) -> timedelta:
    return timedelta(hours=n)


def random_snapshot(rng: random.Random, wb: str = "wb1", at: datetime = T0, actor: str = "alice", max_cells: int = 60) -> Snapshot:
    cells: dict[CellAddress, CellContent] = {}
    sheets = ["Alpha", "Beta"]
    for _ in range(rng.randrange(max_cells)):
        address = CellAddress(rng.choice(sheets), rng.randrange(1, 30), rng.randrange(1, 30))
        cells[address] = _random_content(rng)
    return Snapshot(wb, at, actor, cells)


def _random_content(rng: random.Random) -> CellContent:
    roll = rng.random()
    if roll < 0.45:
        return Number(Decimal(rng.randrange(-1000, 1000)) / 10)
    if roll < 0.55:
        return Text(rng.choice(["ok", "pending", "total", "tab\tchar", 'quo"te']))
    if roll < 0.6:
        return Boolean(rng.random() < 0.5)
    if roll < 0.65:
        return ErrorValue(rng.choice(["#DIV/0!", "#REF!", "#N/A"]))
    source = rng.choice(["=A1+B2", "=SUM(A1:C3)", "=IF(A1>0,1,0)", "=B2*D4", "=MAX(A1,B1)"])
    cached = Number(Decimal(rng.randrange(100))) if rng.random() < 0.5 else None
    return Formula(source, cached)


def mutate_snapshot(rng: random.Random, snapshot: Snapshot, at: datetime, actor: str = "bob") -> Snapshot:
    """Random edit session: removes, rewrites and adds a few cells."""
    cells = dict(snapshot.cells)
    for address in list(cells):
        roll = rng.random()
        if roll < 0.1:
            del cells[address]
        elif roll < 0.3:
            cells[address] = _random_content(rng)
    for _ in range(rng.randrange(6)):
        address = CellAddress(rng.choice(["Alpha", "Beta"]), rng.randrange(1, 30), rng.randrange(1, 30))
        if address not in cells:
            cells[address] = _random_content(rng)
    return Snapshot(snapshot.workbook_id, at, actor, cells)


# --- Hypothesis strategies for ledger history --------------------------------

# texts that need every backslash escape of the snapshot and change-set formats
TEXTS = ["x", "y", "tab\there", "new\nline", "back\\slash", "cr\rhere"]

CONTENTS = st.one_of(
    st.integers(-3, 3).map(lambda n: Number(Decimal(n))),
    st.sampled_from(TEXTS).map(Text),
    st.sampled_from(["#N/A", "#REF!"]).map(ErrorValue),
    st.builds(
        Formula,
        st.sampled_from(["=S!A1", "=S!A1+1", "=SUM(S!A1:B2)"]),
        st.one_of(
            st.none(),
            st.integers(0, 3).map(lambda n: Number(Decimal(n))),
            st.just(ErrorValue("#DIV/0!")),
        ),
    ),
)


# --- Hypothesis strategies for copied formulas --------------------------------
#
# A copy template is a list of pieces: text, or a reference spec
# (prefix, col_abs, row_abs, row, col, moves).  Rendered at a host, a spec
# places an axis that moves at the host plus (row, col), as a fill from A1
# would, and any other axis at (row + 1, col + 1).  "copy" moves the axes
# without a $, as a real copy does; "all" moves every axis and "none" no
# axis, as a copy edited by hand might.  So one template rendered at
# several hosts gives translated copies and near-misses, and edits to the
# piece list give broken formulas.


def _ref_specs(prefixes):
    return st.tuples(
        st.sampled_from(prefixes),
        st.booleans(),
        st.booleans(),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from(["copy", "copy", "all", "none"]),
    )


_REF_SPECS = _ref_specs(["", "", "Data!", "data!", "'My Sheet'!"])


def _copy_exprs(children):
    def join(parts):
        left, op, right = parts
        return [*left, op, *right]

    def call(parts):
        name, args = parts
        pieces = [name]
        for i, arg in enumerate(args):
            pieces += ([","] if i else []) + arg
        return pieces + [")"]

    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^", "&", "=", "<>", "<=", " + "]), children).map(join),
        children.map(lambda c: ["(", *c, ")"]),
        children.map(lambda c: ["-", *c]),
        children.map(lambda c: [*c, "%"]),
        st.tuples(st.sampled_from(["SUM(", "IF(", "LOG10(", "sum ("]), st.lists(children, min_size=1, max_size=3)).map(call),
    )


_COPY_ATOMS = st.one_of(
    _REF_SPECS.map(lambda ref: [ref]),
    st.tuples(_REF_SPECS, _ref_specs(["", "", "", "Data!"])).map(lambda ends: [ends[0], ":", ends[1]]),
    st.sampled_from(["1", "2.5", "100", '"t"', "TRUE", "#REF!", "7E2", "-1"]).map(lambda text: [text]),
)

# stray text an edit inserts: half-references, quotes, letters that merge
# with a neighbouring reference, and so on
_NOISE = st.sampled_from(["$", "!", ":", "'", '"', "(", ")", ",", "A", "b", "1", "0", " ", "#", ".", "X!"])


def _edited(parts):
    pieces, edits = parts
    pieces = list(pieces)
    for index, insert in edits:
        at = index % (len(pieces) + 1)
        if insert is None:
            del pieces[at : at + 1]
        else:
            pieces.insert(at, insert)
    return pieces


COPY_TEMPLATES = st.tuples(
    st.recursive(_COPY_ATOMS, _copy_exprs, max_leaves=8),
    st.lists(st.tuples(st.integers(0, 40), st.none() | _NOISE), max_size=3),
).map(_edited)


def render_copy(template: list, host: CellAddress) -> str:
    """The formula a copy template gives at host."""
    text = "="
    for piece in template:
        if isinstance(piece, str):
            text += piece
            continue
        prefix, col_abs, row_abs, row, col, moves = piece
        row += host.row if moves == "all" or moves == "copy" and not row_abs else 1
        col += host.col if moves == "all" or moves == "copy" and not col_abs else 1
        text += f"{prefix}{'$' * col_abs}{col_to_letters(col)}{'$' * row_abs}{row}"
    return text


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240301)
