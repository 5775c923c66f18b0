"""Hash-chained ledger: appends, verification, ingestion, queries."""

import base64
import re
from datetime import timedelta
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import T0, addr, hours, snap
from golden_fixtures import GOLDEN_DIR, build_escapes_ledger
from oracles import sha256_hex

from gridaudit.diffing import ChangeEvent, ChangeKind, ChangeSet, DigestMismatch, WorkbookMismatch, apply_changes
from gridaudit.findings import RULE_SEVERITY, Finding
from gridaudit.grid import (
    CellAddress,
    Formula,
    Literal,
    Number,
    Region,
    Text,
    _parse_cell_line,
    decode_content,
    format_instant,
    join_fields,
    snapshot_digest,
)
from gridaudit import ledger as ledger_mod
from gridaudit.ledger import (
    GENESIS_HASH,
    Ledger,
    LedgerCorrupt,
    NonMonotonicTimestamp,
    parse_attest,
    parse_changeset,
    parse_findings,
    parse_ingest,
    serialize_changeset,
    serialize_findings,
    serialize_ingest,
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

    @pytest.mark.parametrize("attested", [False, True], ids=["revert", "attested-reingest"])
    def test_a_change_set_starts_at_the_latest_ingest(self, ledger, attested):
        # content seen before (a revert) or ingested again with a sign-off
        # keeps its first object, whose header holds the time it was first seen
        values = [1, 1, 4] if attested else [1, 2, 1, 4]
        for day, value in enumerate(values):
            att = "approved" if attested and day == 1 else None
            ledger.ingest_snapshot(snap({"S!A1": value}, at=T0 + timedelta(days=day), att=att))
        changes = Ledger.open(ledger.directory).changesets()
        assert [(c.from_time, c.to_time) for c in changes] == [
            (T0 + timedelta(days=day), T0 + timedelta(days=day + 1)) for day in range(len(values) - 1)
        ]

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
        # counted per stored cell line: each line of each object read is
        # parsed once per Ledger, whichever query reads it first
        reopened = self._ledger(ledger)
        parses = []
        monkeypatch.setattr(
            "gridaudit.grid._parse_cell_line", lambda lineno, line: parses.append((lineno, line)) or _parse_cell_line(lineno, line)
        )
        first, last = (digest for digest, _, _ in reopened.ingests())
        for _ in range(2):
            assert reopened.workbook_id == "wb1"
            reopened.series_for_cell(addr("S!A1"))
            reopened.change_history(addr("S!A1"))
            reopened.load_snapshot(first)
            reopened.load_snapshot(last)
        stored = [
            (lineno, line)
            for digest in (first, last)
            for lineno, line in enumerate((ledger.directory / "objects" / digest).read_text().split("\n")[1:-1], 2)
        ]
        assert len(stored) == 4
        assert sorted(parses) == sorted(stored)

    @pytest.mark.parametrize("which", ["first", "latest"])
    def test_a_retry_after_a_failed_object_write_writes_the_object(self, ledger, monkeypatch, which):
        specs = [(0, "alice", {"S!A1": 1}), (1, "bob", {"S!A1": 2})]
        if which == "latest":
            ingest_sequence(ledger, specs[:1])
        offset, actor, cells = specs[1 if which == "latest" else 0]
        snapshot = snap(cells, at=T0 + hours(offset), actor=actor)
        write_bytes, writes = Path.write_bytes, []

        def fails_once(path, data):
            writes.append(path.name)
            if len(writes) == 1:
                raise OSError("no space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", fails_once)
        with pytest.raises(OSError):
            ledger.ingest_snapshot(snapshot)
        ledger.ingest_snapshot(snapshot)
        assert len(writes) == 2
        digest = ledger.ingests()[-1][0]
        assert Ledger.open(ledger.directory).load_snapshot(digest).cells == snapshot.cells

    def test_each_load_has_cells_of_its_own(self, ledger):
        reopened = self._ledger(ledger)
        digest = reopened.ingests()[0][0]
        loaded = reopened.load_snapshot(digest)
        loaded.cells.clear()
        assert reopened.load_snapshot(digest).cells == snap({"S!A1": 1, "S!B1": "x"}).cells
        assert [v.value for _, v in reopened.series_for_cell(addr("S!A1")).points] == [1, 2]


class TestEntries:
    def test_one_entry_per_ingest_holds_its_records(self, ledger):
        ingest_sequence(
            ledger,
            [(0, "alice", {"S!A1": 5}, "opening"), (1, "bob", {"S!A1": 6}), (2, "carol", {"S!A1": 7}, "close")],
        )
        kinds = [
            [None if r is None else r.kind for r in (e.ingest, e.changeset, e.findings, e.attest)]
            for e in ledger.entries()
        ]
        assert kinds == [
            ["INGEST", None, None, "ATTEST"],
            ["INGEST", "CHANGESET", "FINDINGS", None],
            ["INGEST", "CHANGESET", "FINDINGS", "ATTEST"],
        ]
        assert [e.ingest.seq for e in ledger.entries()] == [0, 2, 5]

    @pytest.mark.parametrize(
        "kinds, seq, kind",
        [
            (["ATTEST", "INGEST"], 0, "ATTEST"),
            (["INGEST", "ATTEST", "ATTEST"], 2, "ATTEST"),
            (["INGEST", "INGEST", "FINDINGS", "CHANGESET"], 3, "CHANGESET"),
            (["INGEST", "ATTEST", "INGEST", "CHANGESET", "ATTEST", "FINDINGS"], 5, "FINDINGS"),
        ],
    )
    def test_a_record_out_of_place_is_a_digest_mismatch(self, kinds, seq, kind):
        view = Ledger()
        for k in kinds:
            view.append_record(k, b"", T0)
        assert view.verify_chain().ok
        message = f"ledger record {seq} ({kind}) is out of place"
        for query in (view.entries, view.ingests, view.changesets, view.findings_records):
            with pytest.raises(DigestMismatch, match=rf"^{re.escape(message)}$"):
                query()

    def test_every_query_refuses_a_torn_ingest_alike(self, ledger):
        # records: INGEST; INGEST CHANGESET FINDINGS ATTEST; INGEST CHANGESET FINDINGS
        ingest_sequence(ledger, [(0, "alice", {"S!A1": 5}), (1, "bob", {"S!A1": 6}, "APP-1"), (2, "carol", {"S!A1": 7})])
        policy = parse_policy_file("workbook = wb1\n[region]\nrange = S!A1\nmode = LOCKED\n")
        address = addr("S!A1")
        queries = (
            lambda view: view.workbook_id,
            Ledger.ingests,
            Ledger.changesets,
            Ledger.findings_records,
            lambda view: view.series_for_cell(address),
            lambda view: view.change_history(address),
            lambda view: view.check(policy),
        )
        torn = {}
        for cut in range(len(ledger.raw_lines) + 1):
            view = Ledger(ledger.directory, ledger.raw_lines[:cut])
            outcomes = []
            for query in queries:
                try:
                    query(view)
                    outcomes.append(None)
                except DigestMismatch as exc:
                    outcomes.append(str(exc))
                except ValueError as exc:  # only check, and only without a change set
                    assert (query, str(exc)) == (queries[-1], "ledger holds no change sets to check"), cut
                    assert len(view.entries()) < 2, cut
                    outcomes.append(None)
            assert len(set(outcomes)) == 1, (cut, outcomes)
            if outcomes[0] is not None:
                torn[cut] = outcomes[0]
        cut_short = "ledger record {} (INGEST) has no {}: its ingest was cut short"
        assert torn == {
            2: cut_short.format(1, "CHANGESET"),
            3: cut_short.format(1, "FINDINGS"),
            6: cut_short.format(5, "CHANGESET"),
            7: cut_short.format(5, "FINDINGS"),
        }


def test_ledger_bytes_match_the_golden(tmp_path):
    ledger_dir, _ = build_escapes_ledger(tmp_path)
    assert (Path(ledger_dir) / "ledger.log").read_bytes() == (GOLDEN_DIR / "ledger_escapes.log").read_bytes()


# --- the row codec against the codecs that escaped each field by hand ----------

# every character the escapes touch, the letters of the escape codes, and
# the characters that separate a location's parts
TEXT = st.text(st.sampled_from(["a", "t", "n", "r", "-", "!", ":", "\u00e9", " ", "\t", "\n", "\r", "\\"]), max_size=6)
SHEET = TEXT.filter(bool)
DIGEST = st.sampled_from(["0" * 64, "ab" * 32])
ADDRESS = st.builds(CellAddress, SHEET, st.integers(1, 40), st.integers(1, 40))
CONTENT = st.one_of(
    TEXT.map(lambda t: Literal(Text(t))),
    st.integers(-5, 5).map(lambda n: Literal(Number(Decimal(n)))),
    st.builds(Formula, TEXT.map(lambda t: "=" + t), st.none() | TEXT.map(Text)),
)
EVENT = st.one_of(
    st.builds(ChangeEvent, ADDRESS, st.just(ChangeKind.ADDED), st.none(), CONTENT),
    st.builds(ChangeEvent, ADDRESS, st.just(ChangeKind.REMOVED), CONTENT, st.none()),
    st.builds(ChangeEvent, ADDRESS, st.sampled_from([ChangeKind.DATA_CHANGED, ChangeKind.LOGIC_CHANGED]), CONTENT, CONTENT),
)
CHANGESET = st.builds(
    ChangeSet, TEXT, DIGEST, DIGEST, st.just(T0), st.just(T0 + hours(1)), TEXT, st.lists(EVENT, max_size=4).map(tuple)
)
LOCATION = ADDRESS | st.builds(Region, SHEET, st.just(1), st.just(1), st.integers(1, 9), st.integers(1, 9))
FINDING = st.builds(
    Finding,
    st.sampled_from(sorted(RULE_SEVERITY)),
    st.sampled_from(["info", "warning", "critical"]),
    LOCATION,
    TEXT,
    TEXT,
    st.none() | TEXT,
)


class TestRowCodec:
    """Byte for byte and decode for decode, each payload codec matches the
    one it replaced.  Decodes compare by repr, since a CellAddress equals
    another whose sheet differs only in case."""

    @settings(max_examples=200, deadline=None)
    @given(digest=DIGEST, actor=TEXT, attestation=TEXT)
    def test_ingest_and_attest(self, digest, actor, attestation):
        payload = serialize_ingest(digest, T0, actor)
        assert payload == oracles.serialize_ingest_by_field(digest, T0, actor)
        assert parse_ingest(payload) == oracles.parse_ingest_by_field(payload) == (digest, T0, actor)
        payload = join_fields(attestation).encode("utf-8")
        assert payload == oracles.serialize_attest_by_field(attestation)
        assert parse_attest(payload) == oracles.parse_attest_by_field(payload) == attestation

    @settings(max_examples=200, deadline=None)
    @given(changes=CHANGESET)
    def test_changeset(self, changes):
        payload = serialize_changeset(changes)
        assert payload == oracles.serialize_changeset_by_field(changes)
        assert repr(parse_changeset(payload)) == repr(oracles.parse_changeset_by_field(payload)) == repr(changes)

    @settings(max_examples=200, deadline=None)
    @given(findings=st.lists(FINDING, max_size=4))
    def test_findings(self, findings):
        payload = serialize_findings(findings)
        assert payload == oracles.serialize_findings_by_field(findings)
        assert repr(parse_findings(payload)) == repr(oracles.parse_findings_by_field(payload))
