"""Replayed ledger history against the brute-force rescans in oracles.py.

Cell series, cell histories and usage metrics are read from the first
stored snapshot plus the change sets; the oracles re-read one stored
snapshot per ingest or per change set, and diff consecutive ones.  Both
must agree on every ledger an ingest sequence can build, and on every
prefix view cut before an INGEST record.  The whole ledger bounded to its
first k entries, as policies read it, must answer as the prefix view of
those entries does.
"""

import tempfile
from decimal import Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONTENTS, T0, hours
from oracles import change_history_by_rescan, series_for_cell_by_rescan, usage_metrics_by_rescan

from gridaudit import controls
from gridaudit.assess import usage_metrics
from gridaudit.grid import CellAddress, ErrorValue, Formula, Number, Snapshot, Text
from gridaudit.ledger import Ledger

ADDRESSES = [CellAddress(sheet, row, col) for sheet in ("S", "T") for row in (1, 2, 3) for col in (1, 2)]

@st.composite
def ingest_sequences(draw):
    """(cells, actor, attestation) per ingest.  An edit step sets or
    removes a few cells; a re-attest step repeats the cells with an
    attestation, which records an empty change set."""
    cells = draw(st.dictionaries(st.sampled_from(ADDRESSES), CONTENTS, max_size=6))
    sequence = [(dict(cells), "alice", None)]
    for _ in range(draw(st.integers(0, 6))):
        actor = draw(st.sampled_from(["alice", "bob"]))
        if draw(st.integers(0, 3)) == 0:
            sequence.append((dict(cells), actor, "signed off"))
            continue
        if draw(st.booleans()):  # rename sheet S in letter case only
            cells = {CellAddress(a.sheet.swapcase(), a.row, a.col) if a.sheet.lower() == "s" else a: c for a, c in cells.items()}
        edits = draw(st.dictionaries(st.sampled_from(ADDRESSES), st.one_of(st.none(), CONTENTS), max_size=4))
        for address, content in edits.items():
            if content is None:
                cells.pop(address, None)
            else:
                cells[address] = content
        sequence.append((dict(cells), actor, draw(st.sampled_from([None, "reviewed"]))))
    return sequence


A1, B1, A2 = CellAddress("S", 1, 1), CellAddress("S", 1, 2), CellAddress("S", 2, 1)
# added and removed cells, formulas with error and empty cached values,
# kind changes and a same-digest re-ingest carrying an attestation
COVERING_SEQUENCE = [
    ({A1: Number(Decimal(1)), B1: Formula("=S!A1", Number(Decimal(1)))}, "alice", None),
    ({A1: Number(Decimal(2)), B1: Formula("=S!A1", ErrorValue("#REF!")), A2: Text("x")}, "bob", None),
    ({A1: Formula("=S!A1+1", None), B1: Formula("=S!A1", Number(Decimal(3))), A2: Text("x")}, "bob", None),
    ({A1: Formula("=S!A1+1", None), B1: Formula("=S!A1", Number(Decimal(3))), A2: Text("x")}, "alice", "signed off"),
    ({A1: Number(Decimal(5)), B1: Formula("=S!A1", Number(Decimal(3)))}, "alice", None),
]


def _build(directory, sequence) -> Ledger:
    ledger = Ledger.open(directory)
    for i, (cells, actor, attestation) in enumerate(sequence):
        ledger.ingest_snapshot(Snapshot("wb1", T0 + hours(i), actor, cells, attestation))
    return Ledger.open(directory)  # read back, so objects come from disk


@settings(max_examples=60, deadline=None)
@given(ingest_sequences())
@example(COVERING_SEQUENCE)
def test_replayed_history_matches_rescans(sequence):
    seen = {address for cells, _, _ in sequence for address in cells}
    with tempfile.TemporaryDirectory() as tmp:
        ledger = _build(tmp, sequence)
        cuts = [r.seq for r in ledger.records if r.kind == "INGEST"] + [len(ledger.records)]
        for view in [ledger] + [Ledger(ledger.directory, ledger.raw_lines[:cut]) for cut in cuts]:
            for address in seen:
                assert view.series_for_cell(address) == series_for_cell_by_rescan(view, address)
                assert view.change_history(address) == change_history_by_rescan(view, address)
            assert usage_metrics(view) == usage_metrics_by_rescan(view)
        # cut k holds the first k entries: the history before entry k
        for k, cut in enumerate(cuts):
            view = Ledger(ledger.directory, ledger.raw_lines[:cut])
            for address in seen:
                assert ledger.series_for_cell(address, k) == series_for_cell_by_rescan(view, address), k
            assert controls._period_events(ledger, k) == controls._period_events(view), k


def test_covering_sequence_has_every_change_shape():
    with tempfile.TemporaryDirectory() as tmp:
        ledger = _build(tmp, COVERING_SEQUENCE)
        kinds = {e.kind.value for changes in ledger.changesets() for e in changes.events}
        assert {"Added", "Removed", "KindChanged", "DataChanged"} <= kinds
        assert any(not changes.events for changes in ledger.changesets())
        assert [r.kind for r in ledger.records].count("ATTEST") == 1


def test_sheet_name_case_change_replays():
    # addresses compare case-insensitively but the digest keeps the stored
    # case, so the change set must carry the rename to replay exactly
    sequence = [
        ({CellAddress("sheet", 1, 1): Number(Decimal(5))}, "alice", None),
        ({CellAddress("Sheet", 1, 1): Number(Decimal(5))}, "bob", None),
        ({CellAddress("Sheet", 1, 1): Number(Decimal(6)), CellAddress("sheet", 2, 1): Text("x")}, "bob", None),
        ({CellAddress("SHEET", 1, 1): Number(Decimal(7)), CellAddress("sheet", 2, 1): Text("x")}, "alice", None),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        ledger = _build(tmp, sequence)
        assert usage_metrics(ledger) == usage_metrics_by_rescan(ledger)
        address = CellAddress("Sheet", 1, 1)
        assert ledger.series_for_cell(address) == series_for_cell_by_rescan(ledger, address)
        assert [v.value for _, v in ledger.series_for_cell(address).points] == [5, 5, 6, 7]
