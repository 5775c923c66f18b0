"""Incremental replay (diffing.replay) against fully rebuilt snapshots, and
how much of the history replays, ingests and whole commands read.

A replay applies each change set in place and re-renders only the cell
lines its events touch, so after each step its digest must equal
snapshot_digest of the snapshot rebuilt from scratch, whatever the sheet
names, escapes and address case.  The counts bound the work: usage
metrics render one line per event, not the whole workbook once per change
set, and one command decodes each log line once, groups the log once,
parses the first object once and decodes each change set once.
"""

import random
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CONTENTS, T0, hours, random_snapshot

from gridaudit import grid
from gridaudit import ledger as ledger_mod
from gridaudit.assess import usage_metrics
from gridaudit.cli import run
from gridaudit.controls import ControlPolicy, TrendRule
from gridaudit.diffing import (
    ChangeEvent,
    ChangeSet,
    ConflictingEvent,
    DigestMismatch,
    replay,
)
from gridaudit.grid import CellAddress, Number, Snapshot, Text, snapshot_digest
from gridaudit.ledger import Ledger, parse_changeset, serialize_changeset

# pairs of sheet names that differ only in letter case name the same cells
SHEETS = ["S", "s", "Tab\tSheet", "TAB\tSHEET", "new\nline", "back\\slash"]
ADDRESSES = st.builds(CellAddress, st.sampled_from(SHEETS), st.integers(1, 3), st.integers(1, 2))
FORGED = Text("forged")  # no strategy draws this content
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
                events.append(ChangeEvent(address, before, after))
                if after is None:
                    del cells[address]
                else:
                    cells[address] = after
            elif shape == "rename" and stored:
                old = draw(st.sampled_from(stored))
                new = CellAddress(old.sheet.swapcase(), old.row, old.col)
                content = cells.pop(old)
                cells[new] = content
                events += [ChangeEvent(old, content, None), ChangeEvent(new, None, content)]
            elif shape == "empty-sheet" and stored:
                sheet = draw(st.sampled_from(stored)).sheet.lower()
                for address in [a for a in stored if a.sheet.lower() == sheet]:
                    events.append(ChangeEvent(address, cells.pop(address), None))
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


def _stored_keys(cells):
    return sorted((a.sheet, a.row, a.col) for a in cells)


def _start(first):
    """A cells dict and CellLines of first's, for replay to apply steps to."""
    return dict(first.cells), grid.CellLines(first.cells)


@settings(max_examples=150, deadline=None)
@given(changeset_sequences())
def test_incremental_digest_equals_full_rebuild(sequence):
    first, changesets, rebuilt = sequence
    cells, lines = _start(first)
    for changes, after in zip(changesets, rebuilt[1:]):
        # replay raises unless the incremental digest equals to_digest,
        # which is snapshot_digest of the rebuilt snapshot
        replay(cells, lines, WORKBOOK, [changes])
        assert lines.digest(WORKBOOK) == snapshot_digest(after)
        assert list(lines) == list(grid.CellLines(after.cells))
        assert cells == after.cells
        assert _stored_keys(cells) == _stored_keys(after.cells)


def _with_event(changesets, i, j, event):
    changes = changesets[i]
    events = changes.events[:j] + (event,) + changes.events[j + 1 :]
    damaged = ChangeSet(changes.workbook_id, changes.from_digest, changes.to_digest,
                        changes.from_time, changes.to_time, changes.actor, events)
    return changesets[:i] + [damaged] + changesets[i + 1 :]


def _fails_at_step(first, changesets, rebuilt, i, error):
    """Replaying changesets raises error at step i, once the steps before
    it have applied."""
    with pytest.raises(error):
        replay(*_start(first), WORKBOOK, changesets)
    cells, lines = _start(first)
    replay(cells, lines, WORKBOOK, changesets[:i])  # the steps before still replay
    assert (cells, lines.digest(WORKBOOK)) == (rebuilt[i].cells, snapshot_digest(rebuilt[i]))
    with pytest.raises(error):
        replay(cells, lines, WORKBOOK, changesets[i:])


@settings(max_examples=60, deadline=None)
@given(changeset_sequences(), st.data())
def test_wrong_before_is_a_conflicting_event(sequence, data):
    first, changesets, rebuilt = sequence
    positions = [(i, j) for i, changes in enumerate(changesets) for j in range(len(changes.events))]
    assume(positions)
    i, j = data.draw(st.sampled_from(positions))
    event = changesets[i].events[j]
    forged = ChangeEvent(event.address, FORGED, event.after)
    _fails_at_step(first, _with_event(changesets, i, j, forged), rebuilt, i, ConflictingEvent)


@settings(max_examples=60, deadline=None)
@given(changeset_sequences(), st.data())
def test_wrong_after_is_a_digest_mismatch(sequence, data):
    first, changesets, rebuilt = sequence
    # the last event of a change set, so no later event reads its after
    steps = [i for i, changes in enumerate(changesets) if changes.events]
    assume(steps)
    i = data.draw(st.sampled_from(steps))
    j = len(changesets[i].events) - 1
    event = changesets[i].events[j]
    forged = ChangeEvent(event.address, event.before, FORGED)
    _fails_at_step(first, _with_event(changesets, i, j, forged), rebuilt, i, DigestMismatch)


def test_removing_an_absent_cell_is_a_conflicting_event():
    first = Snapshot(WORKBOOK, T0, "alice", {})
    changes = ChangeSet(WORKBOOK, snapshot_digest(first), snapshot_digest(first), T0, T0 + hours(1), "bob",
                        (ChangeEvent(CellAddress("S", 1, 1), Number(Decimal(1)), None),))
    with pytest.raises(ConflictingEvent):
        replay(*_start(first), WORKBOOK, [changes])


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
            cells[CellAddress("Alpha", 40, rng.randrange(1, 4))] = Number(Decimal(rng.randrange(1000)))
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


@pytest.mark.parametrize("ingests", [0, 1, 8])
def test_ingest_hashes_the_new_snapshot_once(tmp_path, monkeypatch, ingests):
    """The digest that names the new object is the one the diff and the
    no-op check used: its lines are hashed once per ingest."""
    _, new = _history(tmp_path, ingests)
    expected = snapshot_digest(new)
    digests = []
    digest = grid.CellLines.digest

    def counted(self, workbook_id):
        digests.append(digest(self, workbook_id))
        return digests[-1]

    monkeypatch.setattr(grid.CellLines, "digest", counted)
    ledger = Ledger.open(tmp_path)
    ledger.ingest_snapshot(new, policy=POLICY)
    assert ledger.ingests()[-1][0] == expected
    assert digests.count(expected) == 1


# --- one checked pass per command ----------------------------------------------


@pytest.mark.parametrize("ingests", [5, 10, 20])
def test_each_query_reads_the_history_once(tmp_path, monkeypatch, renders, ingests):
    """profile, report and check group the log once, parse the first
    object once, decode each change set once and render at most one line
    per event; check bounds the ledger it opened instead of building a
    view of the history before the latest ingest.  These and verify
    decode each log line once."""
    directory = str(tmp_path / "ledger")
    ledger, _ = _history(directory, ingests)
    events = sum(len(changes.events) for changes in ledger.changesets())
    policy = tmp_path / "policy.txt"
    policy.write_text("workbook = wb1\n\n[trend]\ncell = Alpha!A40\n")
    lines = len(ledger.raw_lines)
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Ledger, "entries")
    count(grid.CellLines, "cells")
    count(ledger_mod, "parse_changeset")  # LedgerRecord.body looks it up at call time
    count(ledger_mod, "decode_record")  # so does Ledger._decode
    period = ["--from", "2024-01-01T00:00:00Z", "--to", "2025-01-01T00:00:00Z", "--generated-at", "2025-01-02T00:00:00Z"]
    for argv in (
        ["profile", directory],
        ["report", directory, "--policy", str(policy), *period],
        ["check", directory, "--policy", str(policy)],
        ["verify", directory],
    ):
        calls.clear()
        renders.clear()
        assert run(argv) in (0, 1), argv[0]
        assert calls["decode_record"] <= lines, argv[0]
        assert calls["entries"] <= 1, argv[0]
        assert calls["cells"] <= 1, argv[0]
        assert calls["parse_changeset"] <= ingests - 1, argv[0]
        assert len(renders) <= events, argv[0]
