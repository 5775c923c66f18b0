"""Cell-level diffing, classification, replay and volatility metrics."""

import io
import pathlib
import random
import re
import tempfile
from contextlib import redirect_stdout
from datetime import timedelta
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONTENTS, T0, addr, hours, mutate_snapshot, random_snapshot, snap
from oracles import diff_snapshots_by_address

from gridaudit.cli import run
from gridaudit.diffing import (
    ChangeKind,
    ConflictingEvent,
    DigestMismatch,
    NoChange,
    WorkbookMismatch,
    apply_changes,
    classify_change,
    diff_events,
    diff_snapshots,
    volatility_metrics,
)
from gridaudit.grid import (
    BadAddress,
    CellAddress,
    CellLines,
    Formula,
    Number,
    Snapshot,
    parse_snapshot_file,
    read_stored_lines,
    render_content,
    snapshot_digest,
    write_snapshot_file,
)

# sheet names equal but for case, and number spellings that render alike
_ADDRESSES = st.builds(CellAddress, st.sampled_from(["S", "s", "T"]), st.integers(1, 3), st.integers(1, 2))
_CONTENTS = CONTENTS | st.sampled_from(["1", "1.0", "1e0", "10E-1", "-2"]).map(lambda t: Number(Decimal(t)))


class TestClassify:
    def test_added(self):
        assert classify_change(None, Number(Decimal(3))) is ChangeKind.ADDED

    def test_removed(self):
        assert classify_change(Number(Decimal(3)), None) is ChangeKind.REMOVED

    def test_formula_source_change_is_logic(self):
        assert classify_change(Formula("=A1"), Formula("=A2")) is ChangeKind.LOGIC_CHANGED

    def test_literal_to_formula_is_kind_change(self):
        assert classify_change(Number(Decimal(3)), Formula("=A1")) is ChangeKind.KIND_CHANGED

    def test_literal_change_is_data(self):
        assert classify_change(Number(Decimal(3)), Number(Decimal(4))) is ChangeKind.DATA_CHANGED

    def test_cached_value_only_change_is_data(self):
        before = Formula("=A1", Number(Decimal(1)))
        after = Formula("=A1", Number(Decimal(2)))
        assert classify_change(before, after) is ChangeKind.DATA_CHANGED

    def test_equal_contents_rejected(self):
        with pytest.raises(NoChange):
            classify_change(Number(Decimal(3)), Number(Decimal(3)))


class TestDiff:
    def test_identity(self):
        s = snap({"S!A1": 5, "S!B2": "=A1"})
        assert diff_snapshots(s, s).events == ()

    def test_single_data_change(self):
        before = snap({"S!A1": 5})
        after = snap({"S!A1": 6}, at=T0 + hours(1))
        events = diff_snapshots(before, after).events
        assert len(events) == 1
        assert events[0].kind is ChangeKind.DATA_CHANGED
        assert events[0].address == addr("S!A1")

    def test_kind_change_plus_add(self):
        before = snap({"S!A1": "=B1+1"})
        after = snap({"S!A1": 7, "S!B2": 1}, at=T0 + hours(1))
        events = diff_snapshots(before, after).events
        assert [(str(e.address), e.kind) for e in events] == [
            ("S!A1", ChangeKind.KIND_CHANGED),
            ("S!B2", ChangeKind.ADDED),
        ]

    def test_changeset_metadata(self):
        before = snap({"S!A1": 5}, actor="alice")
        after = snap({"S!A1": 6}, at=T0 + hours(2), actor="bob")
        changes = diff_snapshots(before, after)
        assert changes.actor == "bob"
        assert changes.from_digest == snapshot_digest(before)
        assert changes.to_digest == snapshot_digest(after)
        assert changes.from_time == T0 and changes.to_time == T0 + hours(2)

    def test_workbook_mismatch(self):
        with pytest.raises(WorkbookMismatch):
            diff_snapshots(snap({}, wb="a"), snap({}, wb="b"))


class TestApply:
    def test_round_trip(self):
        before = snap({"S!A1": 5, "S!B1": "=A1", "S!C1": "x"})
        after = snap({"S!A1": 6, "S!C1": "x", "S!D4": True}, at=T0 + hours(1))
        rebuilt = apply_changes(before, diff_snapshots(before, after))
        assert rebuilt.cells == after.cells
        assert snapshot_digest(rebuilt) == snapshot_digest(after)

    def test_a_replayed_snapshot_carries_no_sign_off(self):
        before = snap({"S!A1": 5}, att="APP-1 opening")
        after = snap({"S!A1": 6}, at=T0 + hours(1), actor="bob", att="APP-2 change")
        changes = diff_snapshots(before, after)
        rebuilt = apply_changes(before, changes)
        assert (rebuilt.actor, rebuilt.timestamp, rebuilt.attestation) == ("bob", T0 + hours(1), None)

    def test_empty_changeset_is_identity_on_cells(self):
        s = snap({"S!A1": 5})
        rebuilt = apply_changes(s, diff_snapshots(s, s))
        assert rebuilt.cells == s.cells

    def test_sheet_case_rename_replays_exactly(self):
        before = snap({"sheet!A1": 5, "sheet!B1": "=A1", "Other!A1": 1})
        after = snap({"Sheet!A1": 5, "Sheet!B1": "=A1+1", "Other!A1": 1}, at=T0 + hours(1))
        changes = diff_snapshots(before, after)
        assert [(str(e.address), e.kind) for e in changes.events] == [
            ("sheet!A1", ChangeKind.REMOVED),
            ("Sheet!A1", ChangeKind.ADDED),
            ("sheet!B1", ChangeKind.REMOVED),
            ("Sheet!B1", ChangeKind.ADDED),
        ]
        rebuilt = apply_changes(before, changes)
        assert sorted(map(str, rebuilt.cells)) == sorted(map(str, after.cells))
        assert snapshot_digest(rebuilt) == snapshot_digest(after)

    def test_stale_digest_rejected(self):
        before = snap({"S!A1": 5})
        after = snap({"S!A1": 6}, at=T0 + hours(1))
        changes = diff_snapshots(before, after)
        with pytest.raises(DigestMismatch):
            apply_changes(snap({"S!A1": 7}), changes)

    def test_conflicting_event_rejected(self):
        before = snap({"S!A1": 5})
        after = snap({"S!A1": 6}, at=T0 + hours(1))
        changes = diff_snapshots(before, after)
        tampered = type(changes)(
            workbook_id=changes.workbook_id,
            from_digest=snapshot_digest(before),
            to_digest=changes.to_digest,
            from_time=changes.from_time,
            to_time=changes.to_time,
            actor=changes.actor,
            events=tuple(
                type(e)(e.address, Number(Decimal(99)), e.after)
                for e in changes.events
            ),
        )
        with pytest.raises(ConflictingEvent):
            apply_changes(before, tampered)


class TestVolatility:
    def test_one_logic_change_among_four_formulas(self):
        before = snap({"S!A1": "=X1", "S!B1": "=X2", "S!C1": "=X3", "S!D1": "=X4", "S!E9": 5})
        after = snap({"S!A1": "=Y1", "S!B1": "=X2", "S!C1": "=X3", "S!D1": "=X4", "S!E9": 5}, at=T0 + hours(1))
        metrics = volatility_metrics(diff_snapshots(before, after), before)
        assert metrics.structural_volatility == Fraction(1, 4)
        assert metrics.data_volatility == 0

    def test_half_of_literals_changed(self):
        before = snap({f"S!A{i}": i for i in range(1, 11)})
        changed = {f"S!A{i}": (i + 100 if i <= 5 else i) for i in range(1, 11)}
        after = snap(changed, at=T0 + hours(1))
        metrics = volatility_metrics(diff_snapshots(before, after), before)
        assert metrics.data_volatility == Fraction(1, 2)
        assert metrics.structural_volatility == 0

    def test_empty_changeset_zeroes(self):
        s = snap({"S!A1": 1})
        metrics = volatility_metrics(diff_snapshots(s, s), s)
        assert metrics.structural_volatility == 0
        assert metrics.data_volatility == 0

    def test_cells_added_to_an_empty_snapshot_move_neither_volatility(self):
        before = snap({})
        after = snap({"S!A1": 1, "S!B1": "=S!A1", "S!C1": ("=S!B1", 1)}, at=T0 + hours(1))
        metrics = volatility_metrics(diff_snapshots(before, after), before)
        assert metrics.structural_volatility == 0
        assert metrics.data_volatility == 0

    def test_cached_only_change_counts_in_neither(self):
        before = snap({"S!A1": ("=X1", 1), "S!B1": 5})
        after = snap({"S!A1": ("=X1", 2), "S!B1": 5}, at=T0 + hours(1))
        metrics = volatility_metrics(diff_snapshots(before, after), before)
        assert metrics.structural_volatility == 0
        assert metrics.data_volatility == 0


class TestRandomizedProperties:
    def test_reconstruction_over_random_pairs(self, rng):
        for i in range(60):
            before = random_snapshot(rng, at=T0)
            after = mutate_snapshot(rng, before, at=T0 + hours(1))
            changes = diff_snapshots(before, after)
            rebuilt = apply_changes(before, changes)
            assert rebuilt.cells == after.cells
            assert snapshot_digest(rebuilt) == changes.to_digest
            assert diff_snapshots(after, after).events == ()

    def test_support_symmetry(self, rng):
        for _ in range(40):
            a = random_snapshot(rng, at=T0)
            b = mutate_snapshot(rng, a, at=T0 + hours(1))
            forward = {e.address: e for e in diff_snapshots(a, b).events}
            backward = {e.address: e for e in diff_snapshots(b, a).events}
            assert set(forward) == set(backward)
            for address, event in forward.items():
                mirror = backward[address]
                assert event.before == mirror.after and event.after == mirror.before
                if event.kind is ChangeKind.ADDED:
                    assert mirror.kind is ChangeKind.REMOVED
                elif event.kind is ChangeKind.REMOVED:
                    assert mirror.kind is ChangeKind.ADDED
                else:
                    assert mirror.kind is event.kind

    def test_metric_bounds(self, rng):
        for _ in range(40):
            a = random_snapshot(rng, at=T0)
            b = mutate_snapshot(rng, a, at=T0 + hours(1))
            metrics = volatility_metrics(diff_snapshots(a, b), a)
            assert 0 <= metrics.structural_volatility <= 1
            assert 0 <= metrics.data_volatility <= 1


class TestMergeAgainstTheOracle:
    """Both event paths against the diff that keys both cells dicts by
    address and compares content objects: diff_events over two cells
    dicts, directly and as the diff command feeds it from two files, and
    the merge over cell lines."""

    @staticmethod
    def _pair(base, edits):
        before = Snapshot("wb1", T0, "alice", dict(base))
        cells = dict(base)
        for address, content in edits.items():
            cells.pop(address, None)  # so a re-added cell keeps the edit's sheet spelling
            if content is not None:
                cells[address] = content
        return before, Snapshot("wb1", T0 + hours(1), "bob", cells)

    @staticmethod
    def _spelt(events):
        return [(str(e.address), e) for e in events]

    @staticmethod
    def _respelt(text, respelling):
        """text with respelling appended to each integer number line."""
        return "\n".join(line + respelling if re.search(r"\tN\t-?[0-9]+$", line) else line for line in text.split("\n"))

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(_ADDRESSES, _CONTENTS, max_size=8),
        st.dictionaries(_ADDRESSES, st.none() | _CONTENTS, max_size=6),
        st.sampled_from(["", ".0", "e0", "0E-1"]),
    )
    def test_merge_matches_the_oracle(self, base, edits, respelling):
        before, after = self._pair(base, edits)
        expected = diff_snapshots_by_address(before, after)
        # from the two cells dicts, which share every unchanged cell's objects
        changes = diff_snapshots(before, after)
        assert changes == expected
        assert self._spelt(changes.events) == self._spelt(expected.events)
        assert self._spelt(diff_events(before, after)) == self._spelt(expected.events)
        # the diff command over written files, the second one respelt: a
        # number line spelt otherwise is not the first file's line, so it
        # is parsed anew, to the same content, and makes no event
        with tempfile.TemporaryDirectory() as tmp:
            paths = [f"{tmp}/a.snap", f"{tmp}/b.snap"]
            pathlib.Path(paths[0]).write_text(write_snapshot_file(before), encoding="utf-8")
            pathlib.Path(paths[1]).write_text(self._respelt(write_snapshot_file(after), respelling), encoding="utf-8")
            out = io.StringIO()
            with redirect_stdout(out):
                assert run(["diff", *paths]) == 0
        assert out.getvalue() == "".join(
            f"{e.kind.value}\t{e.address}\t{render_content(e.before)}\t{render_content(e.after)}\n"
            for e in expected.events
        )
        # from stored bytes read against the after snapshot's lines, as
        # ingest feeds it; a number line spelt otherwise is not the
        # canonical line, so it is parsed, to the same content, and makes
        # no event
        workbook_id, *_, stored = read_stored_lines(self._respelt(write_snapshot_file(before), respelling))
        lines = CellLines(after.cells)
        previous = Snapshot(workbook_id, T0, "alice", stored.cells(lines.by_line(after.cells)))
        fed = diff_snapshots(previous, after, digests=(stored.digest(workbook_id), lines.digest("wb1")))
        assert workbook_id == "wb1"
        assert self._spelt(fed.events) == self._spelt(expected.events)
        assert (fed.from_digest == expected.from_digest) == (list(stored) == list(CellLines(before.cells)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(_ADDRESSES, _CONTENTS, max_size=8),
        st.dictionaries(_ADDRESSES, st.none() | _CONTENTS, max_size=6),
        st.sampled_from(["", ".0", "e0", "0E-1"]),
        st.sampled_from([None, "blank", "malformed", "repeated", "out-of-order"]),
        st.integers(0, 8),
    )
    def test_cells_read_through_a_map_match_a_full_parse(self, base, edits, respelling, damage, at):
        """CellLines.cells(parsed), as ingest reads the latest object against
        the new snapshot's lines, against cells(): the same cells, each line
        found in the map as the map's very objects, or the same BadAddress
        at the same line.  The map also holds the repeated or moved line,
        so a map entry never hides a line out of order."""
        before, after = self._pair(base, edits)
        head, *lines, end = self._respelt(write_snapshot_file(before), respelling).split("\n")
        parsed = CellLines(after.cells).by_line(after.cells)
        at = min(at, len(lines))
        if damage in ("blank", "malformed"):
            lines.insert(at, "" if damage == "blank" else "S\tA1\tV\tN\tten")
        elif damage == "repeated" and lines:
            at = min(at, len(lines) - 1)
            lines.insert(at, lines[at])
            parse_snapshot_file(f"{head}\n{lines[at]}\n", parsed)
        elif damage == "out-of-order" and len(lines) > 1:
            at = min(at, len(lines) - 2)
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
            parse_snapshot_file(f"{head}\n{lines[at]}\n{lines[at + 1]}\n", parsed)
        full, mapped = (read_stored_lines("\n".join([head, *lines, end]))[-1] for _ in range(2))
        try:
            expected = full.cells()
        except BadAddress as exc:
            with pytest.raises(BadAddress) as caught:
                mapped.cells(parsed)
            assert (caught.value.lineno, str(caught.value)) == (exc.lineno, str(exc))
            return
        cells = mapped.cells(parsed)
        assert [(str(a), c) for a, c in cells.items()] == [(str(a), c) for a, c in expected.items()]
        for line, (address, content) in zip(mapped, cells.items()):
            if line in parsed:
                assert parsed[line][0] is address and parsed[line][1] is content
