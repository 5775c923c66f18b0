"""Incremental replay (diffing.replay) against fully rebuilt snapshots, and
how many cell lines replays and ingests render.

A replay re-renders only the cell lines its events touch, so its digest
must equal snapshot_digest of the snapshot rebuilt from scratch, whatever
the sheet names, escapes and address case.  The render counts bound the
work: usage metrics render the first snapshot plus one line per event,
not the whole workbook once per change set.
"""

import random
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CONTENTS, T0, hours, random_snapshot

from gridaudit import grid
from gridaudit.assess import usage_metrics
from gridaudit.controls import ControlPolicy, TrendRule
from gridaudit.diffing import (
    ChangeEvent,
    ChangeKind,
    ChangeSet,
    ConflictingEvent,
    DigestMismatch,
    classify_change,
    replay,
)
from gridaudit.grid import CellAddress, Literal, Number, Snapshot, Text, snapshot_digest
from gridaudit.ledger import Ledger, parse_changeset, serialize_changeset

# pairs of sheet names that differ only in letter case name the same cells
SHEETS = ["S", "s", "Tab\tSheet", "TAB\tSHEET", "new\nline", "back\\slash"]
ADDRESSES = st.builds(CellAddress, st.sampled_from(SHEETS), st.integers(1, 3), st.integers(1, 2))
FORGED = Literal(Text("forged"))  # no strategy draws this content
WORKBOOK = "wb\t1"


@st.composite
def changeset_sequences(draw):
    """(first snapshot, change sets, snapshot rebuilt after each).  Each
    event is drawn against the cells so far: an edit (its address may
    differ in case from the stored key, and may change the cell's kind), a
    case-only sheet rename (Removed plus Added), or the removal of every
    cell on one sheet.  The change sets pass through their ledger
    encoding, as a stored history does."""
    cells = draw(st.dictionaries(ADDRESSES, CONTENTS, max_size=8))
    first = Snapshot(WORKBOOK, T0, "alice", dict(cells))
    rebuilt, changesets = [first], []
    for step in range(1, draw(st.integers(1, 5)) + 1):
        events = []
        for _ in range(draw(st.integers(0, 4))):
            shape = draw(st.sampled_from(["edit", "edit", "rename", "empty-sheet"]))
            stored = sorted(cells, key=CellAddress.sort_key)  # the keys as the dict keeps them
            if shape == "edit":
                address = draw(ADDRESSES)
                before, after = cells.get(address), draw(st.one_of(st.none(), CONTENTS))
                if before == after:
                    continue
                events.append(ChangeEvent(address, classify_change(before, after), before, after))
                if after is None:
                    del cells[address]
                else:
                    cells[address] = after
            elif shape == "rename" and stored:
                old = draw(st.sampled_from(stored))
                new = CellAddress(old.sheet.swapcase(), old.row, old.col)
                content = cells.pop(old)
                cells[new] = content
                events += [ChangeEvent(old, ChangeKind.REMOVED, content, None), ChangeEvent(new, ChangeKind.ADDED, None, content)]
            elif shape == "empty-sheet" and stored:
                sheet = draw(st.sampled_from(stored)).sheet.lower()
                for address in [a for a in stored if a.sheet.lower() == sheet]:
                    events.append(ChangeEvent(address, ChangeKind.REMOVED, cells.pop(address), None))
        after = Snapshot(WORKBOOK, T0 + hours(step), "bob", dict(cells))
        changes = ChangeSet(
            WORKBOOK,
            snapshot_digest(rebuilt[-1]),
            snapshot_digest(after),
            rebuilt[-1].timestamp,
            after.timestamp,
            after.actor,
            tuple(events),
        )
        changesets.append(parse_changeset(serialize_changeset(changes)))
        rebuilt.append(after)
    return first, changesets, rebuilt


def _stored_keys(snapshot):
    return sorted((a.sheet, a.row, a.col) for a in snapshot.cells)


@settings(max_examples=150, deadline=None)
@given(changeset_sequences())
def test_incremental_digest_equals_full_rebuild(sequence):
    first, changesets, rebuilt = sequence
    # replay raises unless each incremental digest equals to_digest, which
    # is snapshot_digest of the rebuilt snapshot
    replayed = list(replay(first, changesets))
    assert [snapshot_digest(s) for s in replayed] == [snapshot_digest(s) for s in rebuilt]
    assert replayed == rebuilt
    assert [_stored_keys(s) for s in replayed] == [_stored_keys(s) for s in rebuilt]
    assert [(s.timestamp, s.actor) for s in replayed] == [(s.timestamp, s.actor) for s in rebuilt]


def _with_event(changesets, i, j, event):
    changes = changesets[i]
    events = changes.events[:j] + (event,) + changes.events[j + 1 :]
    damaged = ChangeSet(changes.workbook_id, changes.from_digest, changes.to_digest,
                        changes.from_time, changes.to_time, changes.actor, events)
    return changesets[:i] + [damaged] + changesets[i + 1 :]


@settings(max_examples=60, deadline=None)
@given(changeset_sequences(), st.data())
def test_wrong_before_is_a_conflicting_event(sequence, data):
    first, changesets, _ = sequence
    positions = [(i, j) for i, changes in enumerate(changesets) for j in range(len(changes.events))]
    assume(positions)
    i, j = data.draw(st.sampled_from(positions))
    event = changesets[i].events[j]
    forged = ChangeEvent(event.address, classify_change(FORGED, event.after), FORGED, event.after)
    replayed = replay(first, _with_event(changesets, i, j, forged))
    assert len([next(replayed) for _ in range(i + 1)]) == i + 1  # the steps before still replay
    with pytest.raises(ConflictingEvent):
        next(replayed)


@settings(max_examples=60, deadline=None)
@given(changeset_sequences(), st.data())
def test_wrong_after_is_a_digest_mismatch(sequence, data):
    first, changesets, _ = sequence
    # the last event of a change set, so no later event reads its after
    steps = [i for i, changes in enumerate(changesets) if changes.events]
    assume(steps)
    i = data.draw(st.sampled_from(steps))
    j = len(changesets[i].events) - 1
    event = changesets[i].events[j]
    forged = ChangeEvent(event.address, classify_change(event.before, FORGED), event.before, FORGED)
    replayed = replay(first, _with_event(changesets, i, j, forged))
    assert len([next(replayed) for _ in range(i + 1)]) == i + 1
    with pytest.raises(DigestMismatch):
        next(replayed)


def test_removing_an_absent_cell_is_a_conflicting_event():
    first = Snapshot(WORKBOOK, T0, "alice", {})
    changes = ChangeSet(WORKBOOK, snapshot_digest(first), snapshot_digest(first), T0, T0 + hours(1), "bob",
                        (ChangeEvent(CellAddress("S", 1, 1), ChangeKind.REMOVED, None, None),))
    with pytest.raises(ConflictingEvent):
        list(replay(first, [changes]))


# --- render counts -------------------------------------------------------------


@pytest.fixture
def renders(monkeypatch):
    """Every cell line rendered while the test runs, one entry each."""
    rendered = []
    render = grid._cell_line

    def counted(address, content):
        rendered.append(address)
        return render(address, content)

    monkeypatch.setattr(grid, "_cell_line", counted)
    return rendered


KPI = CellAddress("Alpha", 40, 1)
POLICY = ControlPolicy(workbook_id="wb1", trend_rules=(TrendRule(KPI), TrendRule(CellAddress("Alpha", 40, 2))))


def _history(directory, ingests):
    """A ledger of 181 cells plus the trend cells, ingested `ingests`
    times with 2-4 cells edited each time, read back from disk as a
    command reads it; also the next snapshot to ingest."""
    rng = random.Random(20240301)
    snapshot = random_snapshot(rng, max_cells=400)
    snapshots = [snapshot]
    for i in range(1, ingests + 1):
        cells = dict(snapshot.cells)
        for _ in range(rng.randrange(2, 5)):
            cells[CellAddress("Alpha", 40, rng.randrange(1, 4))] = Literal(Number(Decimal(rng.randrange(1000))))
        snapshot = Snapshot("wb1", T0 + hours(i), "bob", cells)
        snapshots.append(snapshot)
    ledger = Ledger.open(directory)
    for snapshot in snapshots[:ingests]:
        ledger.ingest_snapshot(snapshot, policy=POLICY)
    return Ledger.open(directory), snapshots[ingests]


def test_usage_metrics_renders_first_snapshot_and_events(tmp_path, renders):
    ledger, _ = _history(tmp_path, 12)
    first = ledger.load_snapshot(ledger.ingests()[0][0])
    events = sum(len(changes.events) for changes in ledger.changesets())
    renders.clear()
    usage_metrics(ledger)
    assert len(renders) <= len(first.cells) + events
    assert len(renders) <= events  # an object read from disk is checked as stored, not re-rendered


def test_ingest_renders_each_snapshot_once(tmp_path, renders):
    ledger, new = _history(tmp_path, 8)
    digests = [digest for digest, _, _ in ledger.ingests()]
    first, previous = (ledger.load_snapshot(d) for d in (digests[0], digests[-1]))
    events = sum(len(changes.events) for changes in ledger.changesets())
    renders.clear()
    ledger = Ledger.open(tmp_path)
    ledger.ingest_snapshot(new, policy=POLICY)
    assert len(renders) <= len(new.cells) + len(previous.cells) + len(first.cells) + events
    # stored objects are checked as stored, and the two trend rules share one replay
    assert len(renders) <= len(new.cells) + events
    assert ledger.ingests()[-1][0] == snapshot_digest(new)
