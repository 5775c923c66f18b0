"""Tamper-evident, append-only audit trail for one workbook.

On disk a ledger is one directory:

    ledger.log   one record per line:
                 seq<TAB>prev_hash<TAB>kind<TAB>recorded_at<TAB>base64(payload)<TAB>hash
    objects/     snapshot files named by content digest, verbatim .snap bytes

Each record hash is SHA-256 over (seq, prev_hash, kind, payload bytes,
recorded_at) with newline separators; record 0 links from 64 zeros and
record n links from record n-1's hash, so altering any stored byte or
reordering records breaks verification at or before the altered position.
Building a Ledger checks every line once, in order (decode_record); the
first corrupt line stops the decode and its LedgerCorrupt, which names the
reason, is kept.  verify_chain reports that check without hashing again,
and every other read raises the kept LedgerCorrupt.

Record timestamps come from the ingested snapshot, not a wall clock, so a
ledger built from the same snapshot files is byte-identical every time.

Ingesting appends INGEST, then (after the first snapshot) CHANGESET and
FINDINGS, then ATTEST when the snapshot carries an attestation.  The
trailing ATTEST closes a workflow period including its own changes.
A ledger as of record k is Ledger(directory, raw_lines[:k]); `check`
re-evaluates the latest change set on the ledger before its INGEST.
Appends must be serialized by the caller (one writer per workbook);
readers may run concurrently; opening a ledger writes nothing.

History comes from the first stored snapshot plus the change sets, which
must link each ingested digest to the next.  Usage metrics, cell series
and cell histories replay them, each step checked against its to_digest
(diffing.replay); each payload is decoded once per process
(LedgerRecord.body) and each object parsed once per Ledger.  Objects are
checked against their digest name on load; a snapshot's timestamp, actor
and ATTEST line are outside it.
"""

from __future__ import annotations

import base64
import hashlib
import re
from collections.abc import Iterator
from datetime import datetime
from functools import cached_property
from pathlib import Path

from . import audit as audit_mod
from . import controls as controls_mod
from . import diffing
from .findings import RULE_SEVERITY, Finding
from .grid import (
    CellAddress,
    CellLines,
    CellValue,
    ErrorValue,
    Snapshot,
    _escape,
    _unescape,
    content_value,
    decode_content,
    encode_content,
    format_instant,
    parse_a1,
    parse_instant,
    parse_location,
    parse_stored_snapshot,
    record,
    write_snapshot_file,
)

GENESIS_HASH = "0" * 64
RECORD_KINDS = ("INGEST", "CHANGESET", "FINDINGS", "ATTEST")

_HEX64_RE = re.compile(r"[0-9a-f]{64}")


class LedgerError(Exception):
    pass


class NonMonotonicTimestamp(LedgerError):
    pass


class LedgerCorrupt(LedgerError):
    def __init__(self, seq: int, reason: str):
        super().__init__(f"ledger record {seq} is corrupt: {reason}")
        self.seq = seq
        self.reason = reason


class MissingObject(LedgerError):
    pass


@record
class LedgerRecord:
    seq: int
    prev_hash: str
    kind: str
    recorded_at: datetime
    payload: bytes
    hash: str

    @cached_property
    def body(self):
        """The INGEST, CHANGESET or FINDINGS payload, decoded."""
        return {"INGEST": parse_ingest, "CHANGESET": parse_changeset, "FINDINGS": parse_findings}[self.kind](self.payload)


@record
class ChainVerification:
    ok: bool
    first_bad_seq: int | None
    record_count: int
    reason: str | None = None  # why the first bad record failed its check


@record
class CellSeries:
    address: CellAddress
    points: tuple[tuple[datetime, CellValue], ...]


@record
class AttributedChange:
    """A change event paired with who made it and when."""

    event: diffing.ChangeEvent
    actor: str
    at: datetime


def record_hash(seq_text: str, prev_hash: str, kind: str, payload: bytes, recorded_at_text: str) -> str:
    hasher = hashlib.sha256()
    hasher.update(f"{seq_text}\n{prev_hash}\n{kind}\n".encode("utf-8"))
    hasher.update(payload)
    hasher.update(f"\n{recorded_at_text}".encode("utf-8"))
    return hasher.hexdigest()


def encode_record(record: LedgerRecord) -> str:
    return "\t".join(
        [
            str(record.seq),
            record.prev_hash,
            record.kind,
            format_instant(record.recorded_at),
            base64.b64encode(record.payload).decode("ascii"),
            record.hash,
        ]
    )


def decode_record(index: int, line: str, prev_hash: str) -> LedgerRecord:
    """The record on this line, or LedgerCorrupt naming why the line is
    not valid at this position.  Field text is checked as stored so any
    byte flip breaks either the structure or the hash."""
    if not line.isascii():
        raise LedgerCorrupt(index, "line holds a non-ASCII character or a byte that is not UTF-8")
    fields = line.split("\t")
    if len(fields) != 6:
        raise LedgerCorrupt(index, f"expected 6 fields, found {len(fields)}")
    seq_text, prev_text, kind, at_text, payload_b64, hash_text = fields
    if seq_text != str(index):
        raise LedgerCorrupt(index, f"sequence field {seq_text!r} at position {index}")
    if prev_text != prev_hash:
        raise LedgerCorrupt(index, "previous-hash link broken")
    if kind not in RECORD_KINDS:
        raise LedgerCorrupt(index, f"unknown record kind {kind!r}")
    if not _HEX64_RE.fullmatch(hash_text):
        raise LedgerCorrupt(index, "hash field is not 64 lowercase hex chars")
    try:
        payload = base64.b64decode(payload_b64.encode("ascii"), validate=True)
    except ValueError:  # binascii.Error or UnicodeEncodeError
        raise LedgerCorrupt(index, "payload is not valid base64") from None
    if base64.b64encode(payload).decode("ascii") != payload_b64:
        raise LedgerCorrupt(index, "payload base64 is not canonical")
    try:
        recorded_at = parse_instant(at_text)
    except ValueError:
        raise LedgerCorrupt(index, "unparseable recorded_at") from None
    if record_hash(seq_text, prev_text, kind, payload, at_text) != hash_text:
        raise LedgerCorrupt(index, "record hash does not match contents")
    return LedgerRecord(index, prev_text, kind, recorded_at, payload, hash_text)


# --- payload serializations -------------------------------------------------


def serialize_ingest(digest: str, timestamp: datetime, actor: str) -> bytes:
    return f"{digest}\t{format_instant(timestamp)}\t{_escape(actor)}".encode("utf-8")


def parse_ingest(payload: bytes) -> tuple[str, datetime, str]:
    digest, at, actor = payload.decode("utf-8").split("\t")
    return digest, parse_instant(at), _unescape(actor)


def serialize_changeset(changes: diffing.ChangeSet) -> bytes:
    lines = [
        "\t".join(
            [
                "CS1",
                _escape(changes.workbook_id),
                changes.from_digest,
                changes.to_digest,
                format_instant(changes.from_time),
                format_instant(changes.to_time),
                _escape(changes.actor),
            ]
        )
    ]
    for event in changes.events:
        lines.append(
            "\t".join(
                [
                    _escape(event.address.sheet),
                    event.address.a1,
                    event.kind.value,
                    "-" if event.before is None else _escape(encode_content(event.before)),
                    "-" if event.after is None else _escape(encode_content(event.after)),
                ]
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_changeset(payload: bytes) -> diffing.ChangeSet:
    head_line, *lines = payload.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    head = head_line.split("\t")
    if len(head) != 7 or head[0] != "CS1":
        raise ValueError(f"bad change set header {head_line!r}")
    ChangeEvent, ChangeKind = diffing.ChangeEvent, diffing.ChangeKind
    events = []
    for line in lines:
        sheet, a1, kind, before, after = line.split("\t")
        row, col = parse_a1(a1)
        events.append(
            ChangeEvent(
                address=CellAddress(_unescape(sheet), row, col),
                kind=ChangeKind(kind),
                before=None if before == "-" else decode_content(_unescape(before)),
                after=None if after == "-" else decode_content(_unescape(after)),
            )
        )
    return diffing.ChangeSet(
        workbook_id=_unescape(head[1]),
        from_digest=head[2],
        to_digest=head[3],
        from_time=parse_instant(head[4]),
        to_time=parse_instant(head[5]),
        actor=_unescape(head[6]),
        events=tuple(events),
    )


def serialize_findings(findings: list[Finding]) -> bytes:
    lines = []
    for f in findings:
        fields = [
            f.rule_id,
            f.severity,
            _escape(str(f.location)),
            _escape(f.message),
            _escape(f.observed),
        ]
        if f.expected is not None:
            fields.append(_escape(f.expected))
        lines.append("\t".join(fields))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def parse_findings(payload: bytes) -> list[Finding]:
    findings = []
    lines = payload.decode("utf-8").split("\n")
    for line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) not in (5, 6):
            raise ValueError(f"bad finding line {line!r}")
        if fields[0] not in RULE_SEVERITY:
            raise ValueError(f"unknown rule id {fields[0]!r}")
        findings.append(
            Finding(
                rule_id=fields[0],
                severity=fields[1],
                location=parse_location(_unescape(fields[2])),
                message=_unescape(fields[3]),
                observed=_unescape(fields[4]),
                expected=_unescape(fields[5]) if len(fields) == 6 else None,
            )
        )
    return findings


# --- the ledger itself -------------------------------------------------------


def _own_cells(snapshot: Snapshot) -> Snapshot:
    return Snapshot(snapshot.workbook_id, snapshot.timestamp, snapshot.actor, dict(snapshot.cells), snapshot.attestation)


class Ledger:
    def __init__(self, directory: Path | None = None, raw_lines: list[str] | None = None):
        """A ledger over the log lines, each checked here, once, in order.
        The first corrupt line ends the decode; its LedgerCorrupt is kept
        for verify_chain to report and for records to raise."""
        self.directory = directory
        self.raw_lines: list[str] = [] if raw_lines is None else raw_lines
        self._objects: dict[str, bytes] = {}
        # digest -> the object (parsed, or the snapshot this ledger stored) and its cell lines
        self._parsed: dict[str, tuple[Snapshot, CellLines]] = {}
        self._records: list[LedgerRecord] = []  # the valid records before any corrupt line
        self._corrupt: LedgerCorrupt | None = None
        self._workbook_id: str | None = None
        self._replay_checked_at = -1  # record count when the change sets last replayed
        prev = GENESIS_HASH
        for i, line in enumerate(self.raw_lines):
            try:
                record = decode_record(i, line, prev)
            except LedgerCorrupt as exc:
                self._corrupt = exc
                break
            self._records.append(record)
            prev = record.hash

    @classmethod
    def open(cls, directory: str | Path) -> "Ledger":
        """Load a ledger directory; an absent one reads as empty and is not
        created.  A corrupt ledger opens so verify_chain can report it; any
        other operation on it raises LedgerCorrupt.  A byte that is not
        UTF-8 is kept as a lone surrogate, so its line fails decode_record
        like any other altered byte."""
        directory = Path(directory)
        log = directory / "ledger.log"
        lines = log.read_text(encoding="utf-8", errors="surrogateescape").split("\n") if log.exists() else []
        if lines and lines[-1] == "":
            lines.pop()
        return cls(directory, lines)

    @property
    def records(self) -> list[LedgerRecord]:
        if self._corrupt is not None:
            # a bare re-raise would extend the kept traceback each time
            raise self._corrupt.with_traceback(None)
        return self._records

    @property
    def workbook_id(self) -> str | None:
        if self._workbook_id is None:
            for record in self.records:
                if record.kind == "INGEST":
                    self._workbook_id = self._stored(record.body[0])[0].workbook_id
                    break
        return self._workbook_id

    # --- object store ---

    def store_snapshot(self, snapshot: Snapshot, lines: CellLines | None = None) -> str:
        """Store the snapshot's bytes under its digest; lines, if given,
        are its CellLines, already rendered.  The snapshot stands in for
        the parse of those bytes, which it equals."""
        lines = CellLines(snapshot.cells) if lines is None else lines
        digest = lines.digest(snapshot.workbook_id)
        if digest not in self._objects:
            self._objects[digest] = write_snapshot_file(snapshot, lines).encode("utf-8")
            self._parsed[digest] = (_own_cells(snapshot), lines)
            if self.directory is not None:
                path = self.directory / "objects" / digest
                if not path.exists():
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(self._objects[digest])
        return digest

    def load_snapshot(self, digest: str) -> Snapshot:
        """The stored snapshot named by digest, with a cells dict of its own."""
        return _own_cells(self._stored(digest)[0])

    def _stored(self, digest: str) -> tuple[Snapshot, CellLines]:
        """The object named by digest with its cell lines, parsed once per
        ledger.  An object read from disk must hash to its name."""
        if digest in self._parsed:
            return self._parsed[digest]
        path = None if self.directory is None else self.directory / "objects" / digest
        if path is None or not path.exists():
            raise MissingObject(f"no stored snapshot for digest {digest[:12]}...")
        data = path.read_bytes()
        try:
            snapshot, lines = parse_stored_snapshot(data.decode("utf-8"))
        except ValueError as exc:  # undecodable bytes or a malformed snapshot file
            raise diffing.DigestMismatch(f"stored object {digest[:12]}... does not parse: {exc}") from exc
        # hashed as stored, so a line that parses to the same cell but is
        # not the canonical one fails too
        if lines.digest(snapshot.workbook_id) != digest:
            raise diffing.DigestMismatch(f"stored object {digest[:12]}... does not hash to its name")
        self._objects[digest] = data
        self._parsed[digest] = (snapshot, lines)
        return self._parsed[digest]

    # --- appends ---

    def append_record(self, kind: str, payload: bytes, recorded_at: datetime) -> LedgerRecord:
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        records = self.records  # raises on corruption before appending
        prev = records[-1].hash if records else GENESIS_HASH
        seq = len(records)
        at_text = format_instant(recorded_at)
        record = LedgerRecord(
            seq=seq,
            prev_hash=prev,
            kind=kind,
            recorded_at=parse_instant(at_text),
            payload=payload,
            hash=record_hash(str(seq), prev, kind, payload, at_text),
        )
        line = encode_record(record)
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            with (self.directory / "ledger.log").open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        self.raw_lines.append(line)
        self._records.append(record)
        return record

    # --- queries ---

    def ingests(self) -> list[tuple[str, datetime, str]]:
        """(digest, timestamp, actor) per INGEST record, in order."""
        return [r.body for r in self.records if r.kind == "INGEST"]

    def changesets(self) -> list[diffing.ChangeSet]:
        """The change sets, each leading from one ingested digest to the
        next; a missing or unlinked change set raises DigestMismatch."""
        changesets = [r.body for r in self.records if r.kind == "CHANGESET"]
        digests = [digest for digest, _, _ in self.ingests()]
        if [(c.from_digest, c.to_digest) for c in changesets] != list(zip(digests, digests[1:])):
            raise diffing.DigestMismatch("change sets do not link the ingested snapshots")
        return changesets

    def snapshots(self) -> Iterator[Snapshot]:
        """The snapshot at each ingest: the first stored one, then each
        change set replayed on it (diffing.replay checks every step)."""
        ingests = self.ingests()
        if ingests:
            first = ingests[0][0]
            yield from diffing.replay(self.load_snapshot(first), self.changesets(), self._stored(first)[1])

    def _replayed_changesets(self) -> list[diffing.ChangeSet]:
        """changesets(), each checked to replay to its to_digest; the replay
        runs once per ledger length, not once per query."""
        if self._replay_checked_at != len(self._records):
            for _ in self.snapshots():
                pass
            self._replay_checked_at = len(self._records)
        return self.changesets()

    def verify_chain(self) -> ChainVerification:
        """The outcome of the check every line passed through when this
        ledger was built; nothing is hashed again."""
        if self._corrupt is None:
            return ChainVerification(True, None, len(self.raw_lines))
        return ChainVerification(False, self._corrupt.seq, len(self.raw_lines), self._corrupt.reason)

    def series_for_cell(self, address: CellAddress) -> CellSeries:
        """Value history of one cell across ingested snapshots, oldest
        first: the cell in the first stored snapshot, then its content
        after each change set.  Cells that are absent, have no value, or
        hold an error value leave a gap.  Change sets that do not replay
        raise ConflictingEvent or DigestMismatch."""
        ingests = self.ingests()
        if not ingests:
            return CellSeries(address, ())
        content = self._stored(ingests[0][0])[0].cells.get(address)
        states = [(ingests[0][1], content)]
        for changes in self._replayed_changesets():
            for event in changes.events:
                if event.address == address:
                    content = event.after
            states.append((changes.to_time, content))
        values = [(at, content_value(c)) for at, c in states if c is not None]
        points = tuple((at, v) for at, v in values if v is not None and not isinstance(v, ErrorValue))
        return CellSeries(address, points)

    def change_history(self, address: CellAddress) -> list[AttributedChange]:
        """Every event at the address, oldest first, once the change sets
        replay (as for series_for_cell)."""
        history = []
        for changes in self._replayed_changesets():
            for event in changes.events:
                if event.address == address:
                    history.append(AttributedChange(event, changes.actor, changes.to_time))
        return history

    def findings_records(self) -> list[tuple[LedgerRecord, list[Finding]]]:
        return [(r, r.body) for r in self.records if r.kind == "FINDINGS"]

    # --- ingestion ---

    def ingest_snapshot(
        self,
        snapshot: Snapshot,
        cfg: "audit_mod.AuditConfig | None" = None,
        policy: "controls_mod.ControlPolicy | None" = None,
    ) -> list[Finding]:
        """Record a new snapshot: stores its bytes, appends INGEST, and
        when a prior snapshot exists diffs against it, evaluates the
        static audit plus any control policy, and appends CHANGESET and
        FINDINGS records.  Returns the new findings.

        Re-ingesting content whose digest equals the latest is a no-op
        unless it carries an attestation (a sign-off is worth recording
        even without cell edits)."""
        existing = self.workbook_id
        if existing is not None and snapshot.workbook_id != existing:
            raise diffing.WorkbookMismatch(
                f"ledger tracks {existing!r}, snapshot is {snapshot.workbook_id!r}"
            )
        if policy is not None and policy.workbook_id != snapshot.workbook_id:
            raise diffing.WorkbookMismatch(
                f"policy is for {policy.workbook_id!r}, snapshot is {snapshot.workbook_id!r}"
            )
        lines = CellLines(snapshot.cells)
        digest = lines.digest(snapshot.workbook_id)
        ingests = self.ingests()
        previous = None
        if ingests:
            last_digest, last_at, _ = ingests[-1]
            if digest == last_digest and not snapshot.attestation:
                return []
            if snapshot.timestamp <= last_at:
                raise NonMonotonicTimestamp(
                    f"snapshot at {format_instant(snapshot.timestamp)} does not "
                    f"advance past {format_instant(last_at)}"
                )
            previous = self.load_snapshot(last_digest)
        self.store_snapshot(snapshot, lines)

        findings: list[Finding] = []
        changes: diffing.ChangeSet | None = None
        if previous is not None:
            changes = diffing.diff_snapshots(previous, snapshot, digests=(last_digest, digest))
            findings.extend(audit_mod.audit_workbook(snapshot, cfg))
            if policy is not None:
                findings.extend(controls_mod.evaluate_policies(changes, policy, self))

        self.append_record("INGEST", serialize_ingest(digest, snapshot.timestamp, snapshot.actor), snapshot.timestamp)
        if changes is not None:
            self.append_record("CHANGESET", serialize_changeset(changes), snapshot.timestamp)
            self.append_record("FINDINGS", serialize_findings(findings), snapshot.timestamp)
        if snapshot.attestation:
            self.append_record("ATTEST", _escape(snapshot.attestation).encode("utf-8"), snapshot.timestamp)
        return findings
