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
    Literal,
    Number,
    Snapshot,
    Text,
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
    ('=...', cached) a formula with a cached value, anything else a literal."""
    if isinstance(raw, (Literal, Formula)):
        return raw
    if isinstance(raw, tuple):
        return Formula(raw[0], val(raw[1]))
    if isinstance(raw, str) and raw.startswith("="):
        return Formula(raw)
    return Literal(val(raw))


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
        return Literal(Number(Decimal(rng.randrange(-1000, 1000)) / 10))
    if roll < 0.55:
        return Literal(Text(rng.choice(["ok", "pending", "total", "tab\tchar", 'quo"te'])))
    if roll < 0.6:
        return Literal(Boolean(rng.random() < 0.5))
    if roll < 0.65:
        return Literal(ErrorValue(rng.choice(["#DIV/0!", "#REF!", "#N/A"])))
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
    st.integers(-3, 3).map(lambda n: Literal(Number(Decimal(n)))),
    st.sampled_from(TEXTS).map(lambda t: Literal(Text(t))),
    st.sampled_from(["#N/A", "#REF!"]).map(lambda code: Literal(ErrorValue(code))),
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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240301)
