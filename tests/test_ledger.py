"""Hash-chained ledger: appends, verification, ingestion, queries."""

import base64
from datetime import timedelta
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import T0, addr, hours, snap
from oracles import sha256_hex

from gridaudit.diffing import ChangeKind, WorkbookMismatch, apply_changes
from gridaudit.grid import Number, Text, decode_content, format_instant, snapshot_digest
from gridaudit.grid import parse_snapshot_file as parse
from gridaudit import ledger as ledger_mod
from gridaudit.ledger import (
    GENESIS_HASH,
    Ledger,
    LedgerCorrupt,
    NonMonotonicTimestamp,
    parse_changeset,
    parse_findings,
    serialize_findings,
)
from gridaudit.controls import ControlPolicy, Mode, RegionRule, parse_policy_file
from gridaudit.grid import parse_region


@pytest.fixture
def ledger(tmp_path) -> Ledger:
    return Ledger.open(tmp_path / "wb1")


def ingest_sequence(ledger, specs):
    """specs: iterable of (hours offset, actor, cells dict [, attestation])."""
    out = []
    for entry in specs:
        offset, actor, cells = entry[:3]
        att = entry[3] if len(entry) > 3 else None
        out.append(
            ledger.ingest_snapshot(snap(cells, at=T0 + hours(offset), actor=actor, att=att))
        )
    return out


class TestAppends:
    def test_genesis_prev_hash(self, ledger):
        record = ledger.append_record("INGEST", b"payload", T0)
        assert record.seq == 0
        assert record.prev_hash == GENESIS_HASH

    def test_chain_links(self, ledger):
        first = ledger.append_record("INGEST", b"a", T0)
        second = ledger.append_record("ATTEST", b"b", T0 + hours(1))
        assert second.prev_hash == first.hash

    def test_hash_matches_independent_sha256(self, ledger):
        record = ledger.append_record("INGEST", b"some-payload", T0)
        expected = sha256_hex(
            f"0\n{GENESIS_HASH}\nINGEST\n".encode()
            + b"some-payload"
            + f"\n{format_instant(T0)}".encode()
        )
        assert record.hash == expected

    def test_rejects_unknown_kind(self, ledger):
        with pytest.raises(ValueError):
            ledger.append_record("NOTE", b"", T0)

    def test_append_only_growth(self, ledger):
        lengths = []
        for i in range(4):
            ledger.append_record("INGEST", bytes([i]), T0 + hours(i))
            lengths.append(len(ledger.records))
        assert lengths == [1, 2, 3, 4]


class TestIngest:
    def test_first_ingest_yields_no_findings(self, ledger):
        findings = ledger.ingest_snapshot(snap({"S!A1": 5}))
        assert findings == []
        assert [r.kind for r in ledger.records] == ["INGEST"]

    def test_identical_reingest_is_noop(self, ledger):
        ledger.ingest_snapshot(snap({"S!A1": 5}))
        findings = ledger.ingest_snapshot(snap({"S!A1": 5}, at=T0 + hours(1), actor="bob"))
        assert findings == []
        assert len(ledger.records) == 1

    def test_second_ingest_records_changeset_and_findings(self, ledger):
        ingest_sequence(ledger, [(0, "alice", {"S!A1": 5}), (1, "bob", {"S!A1": 6})])
        assert [r.kind for r in ledger.records] == ["INGEST", "INGEST", "CHANGESET", "FINDINGS"]
        changes = ledger.changesets()[0]
        assert changes.actor == "bob"
        assert [e.kind for e in changes.events] == [ChangeKind.DATA_CHANGED]

    def test_locked_region_violation_surfaces(self, ledger):
        policy = ControlPolicy(
            workbook_id="wb1",
            region_rules=(RegionRule(parse_region("S!A1:A5"), Mode.LOCKED),),
        )
        ledger.ingest_snapshot(snap({"S!A1": 5}), policy=policy)
        findings = ledger.ingest_snapshot(
            snap({"S!A1": 6}, at=T0 + hours(1), actor="bob"), policy=policy
        )
        assert "LOCKED_REGION_CHANGE" in [f.rule_id for f in findings]
        stored = parse_findings(ledger.records[-1].payload)
        assert stored == findings

    def test_non_monotonic_timestamp_rejected(self, ledger):
        ledger.ingest_snapshot(snap({"S!A1": 5}, at=T0 + hours(2)))
        with pytest.raises(NonMonotonicTimestamp):
            ledger.ingest_snapshot(snap({"S!A1": 6}, at=T0 + hours(2)))
        with pytest.raises(NonMonotonicTimestamp):
            ledger.ingest_snapshot(snap({"S!A1": 6}, at=T0 + hours(1)))

    def test_workbook_mismatch_rejected(self, ledger):
        ledger.ingest_snapshot(snap({"S!A1": 5}))
        with pytest.raises(WorkbookMismatch):
            ledger.ingest_snapshot(snap({"S!A1": 6}, wb="other", at=T0 + hours(1)))

    def test_attestation_appends_attest_record_last(self, ledger):
        ingest_sequence(
            ledger,
            [(0, "alice", {"S!A1": 5}), (1, "bob", {"S!A1": 6}, "month close APP-42")],
        )
        assert [r.kind for r in ledger.records] == [
            "INGEST",
            "INGEST",
            "CHANGESET",
            "FINDINGS",
            "ATTEST",
        ]

    def test_attest_record_decodes_to_its_sign_off(self, ledger):
        sign_off = "month close\tAPP-42 \\ reviewed"  # a tab and a backslash are escaped when stored
        ingest_sequence(ledger, [(0, "alice", {"S!A1": 5}, sign_off)])
        assert ledger.records[-1].payload == b"month close\\tAPP-42 \\\\ reviewed"
        assert ledger.records[-1].body == sign_off

    def test_audit_findings_recorded_on_ingest(self, ledger):
        ingest_sequence(
            ledger,
            [(0, "alice", {"S!A1": 5}), (1, "bob", {"S!A1": 5, "S!B1": "#REF!"})],
        )
        stored = parse_findings(ledger.records[-1].payload)
        assert [f.rule_id for f in stored] == ["ERROR_VALUE"]


class TestVerification:
    def _build(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "alice", {"S!A1": 5}),
                (1, "bob", {"S!A1": 6}),
                (2, "alice", {"S!A1": 6, "S!B1": "=A1"}),
            ],
        )

    def test_fresh_ledger_verifies(self, ledger):
        self._build(ledger)
        result = ledger.verify_chain()
        assert result.ok and result.first_bad_seq is None

    def test_payload_flip_detected(self, ledger, tmp_path):
        self._build(ledger)
        log = ledger.directory / "ledger.log"
        lines = log.read_text().split("\n")
        fields = lines[2].split("\t")
        payload = bytearray(base64.b64decode(fields[4]))
        payload[0] ^= 0x01
        fields[4] = base64.b64encode(bytes(payload)).decode()
        lines[2] = "\t".join(fields)
        log.write_text("\n".join(lines))
        result = Ledger.open(ledger.directory).verify_chain()
        assert not result.ok and result.first_bad_seq == 2

    def test_record_swap_detected(self, ledger):
        self._build(ledger)
        log = ledger.directory / "ledger.log"
        lines = log.read_text().split("\n")
        lines[2], lines[3] = lines[3], lines[2]
        log.write_text("\n".join(lines))
        result = Ledger.open(ledger.directory).verify_chain()
        assert not result.ok and result.first_bad_seq == 2

    def test_noncanonical_base64_detected(self, ledger):
        self._build(ledger)
        log = ledger.directory / "ledger.log"
        lines = log.read_text().split("\n")
        fields = lines[1].split("\t")
        # same decoded bytes, different padding bits
        raw = fields[4]
        assert raw.endswith("=")
        flip_pos = len(raw) - raw.count("=") - 1
        alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
        original = alphabet.index(raw[flip_pos])
        fields[4] = raw[:flip_pos] + alphabet[original ^ 0x01] + raw[flip_pos + 1 :]
        lines[1] = "\t".join(fields)
        log.write_text("\n".join(lines))
        result = Ledger.open(ledger.directory).verify_chain()
        assert not result.ok and result.first_bad_seq == 1

    def test_each_record_is_hashed_once(self, ledger, monkeypatch):
        self._build(ledger)
        calls = []
        original = ledger_mod.record_hash
        monkeypatch.setattr(ledger_mod, "record_hash", lambda *args: calls.append(1) or original(*args))
        assert Ledger.open(ledger.directory).verify_chain().ok
        assert len(calls) == len(ledger.records)

    def test_reason_is_kept_for_every_operation(self, ledger):
        self._build(ledger)
        log = ledger.directory / "ledger.log"
        lines = log.read_text().split("\n")
        lines[3] = "\t".join(lines[3].split("\t")[:5])
        log.write_text("\n".join(lines))
        reopened = Ledger.open(ledger.directory)
        result = reopened.verify_chain()
        assert (result.ok, result.first_bad_seq, result.reason) == (False, 3, "expected 6 fields, found 5")
        with pytest.raises(LedgerCorrupt) as caught:
            reopened.records
        assert (caught.value.seq, caught.value.reason) == (3, "expected 6 fields, found 5")

    def test_reload_round_trip(self, ledger):
        self._build(ledger)
        reloaded = Ledger.open(ledger.directory)
        assert [r.hash for r in reloaded.records] == [r.hash for r in ledger.records]
        assert reloaded.verify_chain().ok


class TestQueries:
    def test_sheet_named_attest_reloads_from_the_object_store(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "a", {"ATTEST!A1": 5, "S!A1": 6}),
                (1, "a", {"ATTEST!A1": 7, "S!A1": 6}),
            ],
        )
        series = Ledger.open(ledger.directory).series_for_cell(addr("ATTEST!A1"))
        assert [v.value for _, v in series.points] == [Decimal(5), Decimal(7)]

    def test_series_for_cell(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "a", {"S!A1": 5}),
                (1, "a", {"S!A1": 6}),
                (2, "a", {"S!A1": 7}),
            ],
        )
        series = ledger.series_for_cell(addr("S!A1"))
        assert [(at, v.value) for at, v in series.points] == [
            (T0, Decimal(5)),
            (T0 + hours(1), Decimal(6)),
            (T0 + hours(2), Decimal(7)),
        ]

    def test_series_skips_gaps_and_errors(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "a", {"S!A1": ("=X1", 10)}),
                (1, "a", {"S!A1": ("=X1", "#N/A")}),
                (2, "a", {"S!A1": ("=X1", 12)}),
                (3, "a", {"S!B9": 1}),
            ],
        )
        series = ledger.series_for_cell(addr("S!A1"))
        assert [v.value for _, v in series.points] == [Decimal(10), Decimal(12)]

    def test_series_for_untouched_cell_empty(self, ledger):
        ingest_sequence(ledger, [(0, "a", {"S!A1": 5})])
        assert ledger.series_for_cell(addr("S!Z9")).points == ()

    def test_change_history(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "alice", {"S!A1": 1, "S!B1": 1}),
                (1, "bob", {"S!A1": 2, "S!B1": 1}),
                (2, "carol", {"S!A1": 2, "S!B1": 2}),
                (3, "dan", {"S!A1": 3, "S!B1": 2}),
                (4, "erin", {"S!A1": 3, "S!B1": 3}),
            ],
        )
        history = ledger.change_history(addr("S!A1"))
        assert [(c.actor, c.at) for c in history] == [
            ("bob", T0 + hours(1)),
            ("dan", T0 + hours(3)),
        ]
        # continuity: each step's after equals the next step's before
        assert history[0].event.after == history[1].event.before

    def test_change_history_untouched(self, ledger):
        ingest_sequence(ledger, [(0, "a", {"S!A1": 5})])
        assert ledger.change_history(addr("S!Q7")) == []

    def test_replayability(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "a", {"S!A1": 1}),
                (1, "a", {"S!A1": 2, "S!B1": "=A1"}),
                (2, "a", {"S!B1": "=A1"}),
                (3, "a", {"S!B1": "=A1+B2", "S!C1": "x"}),
            ],
        )
        current = ledger.load_snapshot(ledger.ingests()[0][0])
        for changes in ledger.changesets():
            current = apply_changes(current, changes)
        assert snapshot_digest(current) == ledger.ingests()[-1][0]

    def test_changeset_payload_round_trip(self, ledger):
        ingest_sequence(
            ledger,
            [
                (0, "a", {"S!A1": 1, "S!B1": "tab\ttext"}),
                (1, "b", {"S!A1": "=Z9", "S!B1": "tab\ttext", "S!C3": False}),
            ],
        )
        record = next(r for r in ledger.records if r.kind == "CHANGESET")
        changes = parse_changeset(record.payload)
        assert changes.workbook_id == "wb1"
        assert {str(e.address) for e in changes.events} == {"S!A1", "S!C3"}

    @pytest.mark.parametrize("decode, payload", [(parse_changeset, b""), (decode_content, "F")])
    def test_truncated_payload_is_a_value_error(self, decode, payload):
        with pytest.raises(ValueError):
            decode(payload)

    def test_findings_payload_round_trip(self):
        from gridaudit.findings import make_finding
        from gridaudit.grid import Region

        findings = [
            make_finding("DEEP_NESTING", addr("S!A1"), "msg with\ttab", "4", "<= 3"),
            make_finding("LOCKED_REGION_CHANGE", Region("S", 1, 1, 5, 5), "locked", "Added"),
        ]
        assert parse_findings(serialize_findings(findings)) == findings


class TestObjectCache:
    def _ledger(self, ledger):
        ingest_sequence(ledger, [(0, "alice", {"S!A1": 1, "S!B1": "x"}), (1, "bob", {"S!A1": 2, "S!B1": "x"})])
        return Ledger.open(ledger.directory)

    def test_each_object_is_parsed_once(self, ledger, monkeypatch):
        reopened = self._ledger(ledger)
        parses = []
        monkeypatch.setattr("gridaudit.grid.parse_snapshot_file", lambda text: parses.append(text) or parse(text))
        first, last = (digest for digest, _, _ in reopened.ingests())
        for _ in range(2):
            assert reopened.workbook_id == "wb1"
            reopened.series_for_cell(addr("S!A1"))
            reopened.change_history(addr("S!A1"))
            reopened.load_snapshot(first)
            reopened.load_snapshot(last)
        assert len(parses) == 2

    def test_each_load_has_cells_of_its_own(self, ledger):
        reopened = self._ledger(ledger)
        digest = reopened.ingests()[0][0]
        loaded = reopened.load_snapshot(digest)
        loaded.cells.clear()
        assert reopened.load_snapshot(digest).cells == snap({"S!A1": 1, "S!B1": "x"}).cells
        assert [v.value for _, v in reopened.series_for_cell(addr("S!A1")).points] == [1, 2]
