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

A payload is rows of fields (grid.join_fields and grid.split_fields: each
field escaped as in a snapshot file, the fields joined with tabs).  INGEST
(digest, timestamp, actor) and ATTEST (the sign-off) are one row without a
newline.  CHANGESET (a CS1 header, then sheet, A1, kind, before and after
content or "-" per event) and FINDINGS (rule id, severity, location,
message, observed[, expected]) end every row with a newline.

Ingesting appends INGEST, then (after the first snapshot) CHANGESET and
FINDINGS, then ATTEST when the snapshot carries an attestation; entries()
groups each ingest's records and finds any record out of that order.  The
trailing ATTEST closes a workflow period including its own changes, and
its text is the ingest's sign-off, at ingest and in check().  Policies
read the history before entry k through a bound on this same ledger
(series_for_cell(address, k), controls._period_events(ledger, k)), so no
second Ledger is built: check() re-evaluates the latest change set, entry
k = len(entries) - 1, as its ingest did, on the entries before it and
with its ATTEST's sign-off.
ingest_snapshot holds the writer lock (an flock on ledger.log) and reads
the log again under it, so a stale or prefix Ledger appends after the
latest record; append_record, which it calls, takes no lock.  Readers may
run concurrently; opening a ledger writes nothing.  A log whose last line
lacks its newline (a write cut short) fails at that line.  Every reader,
ingest_snapshot included, reads entries through one structure check
(_whole_entries), run once per ledger length: a CHANGESET or FINDINGS in
the first entry is out of place, and an ingest after the first without
its CHANGESET or FINDINGS (a writer stopped between appends) was cut
short.  Both raise DigestMismatch; entries() alone returns such a log.

History comes from the first stored snapshot plus the change sets, which
must link each ingested digest to the next.  changesets() links them and
replays them in place on one cells dict and one CellLines, each step
checked against its to_digest (diffing.replay), once per ledger length;
usage metrics, cell series and cell histories all read that one list.
Each payload is decoded once per Ledger (LedgerRecord.body).

Every object read goes through one check, once per Ledger (_object): the
name must be a digest before it becomes a path, and the header must parse
and the cell lines, as stored, hash to the name.  A snapshot's timestamp,
actor and ATTEST line are outside that hash, so no verdict reads them
from objects/.  The checked lines are the only source of an object's
cells: CellLines.cells parses each once per Ledger, and a blank,
malformed, repeated or out-of-order line raises DigestMismatch.  An ingest
reads the latest object that way too, against a map of the new snapshot's
rendered lines: a stored line found there is taken as the new snapshot's
very cell, unparsed, and diffing.diff_snapshots passes it unexamined, so
only the stored lines that changed are parsed.  Its workbook id, like
workbook_id's, comes from an object's header, which the hash covers.
"""

from __future__ import annotations

import base64
import os
import re
from contextlib import contextmanager, nullcontext, suppress
from functools import cached_property
from pathlib import Path

from . import audit as audit_mod
from . import controls as controls_mod
from . import diffing
from .findings import Finding
from .grid import (
    CellAddress,
    CellContent,
    CellLines,
    CellValue,
    ErrorValue,
    Snapshot,
    SnapshotError,
    content_value,
    datetime,
    decode_content,
    encode_content,
    format_instant,
    join_fields,
    parse_a1,
    parse_instant,
    parse_location,
    read_stored_lines,
    record,
    sha256,
    split_fields,
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
        """The payload, decoded by the one parser for its kind."""
        parse = {"INGEST": parse_ingest, "CHANGESET": parse_changeset, "FINDINGS": parse_findings, "ATTEST": parse_attest}
        return parse[self.kind](self.payload)


@record
class Entry:
    """The records one ingest appended, in the order it appends them; a
    kind it did not append is None."""

    ingest: LedgerRecord
    changeset: LedgerRecord | None = None
    findings: LedgerRecord | None = None
    attest: LedgerRecord | None = None


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
    hasher = sha256()
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
    return join_fields(digest, format_instant(timestamp), actor).encode("utf-8")


def parse_ingest(payload: bytes) -> tuple[str, datetime, str]:
    digest, at, actor = split_fields(payload.decode("utf-8"))
    return digest, parse_instant(at), actor


def parse_attest(payload: bytes) -> str:
    (text,) = split_fields(payload.decode("utf-8"))
    return text


def serialize_changeset(changes: diffing.ChangeSet) -> bytes:
    times = map(format_instant, (changes.from_time, changes.to_time))
    rows = [join_fields("CS1", changes.workbook_id, changes.from_digest, changes.to_digest, *times, changes.actor)]
    for e in changes.events:
        contents = ("-" if c is None else encode_content(c) for c in (e.before, e.after))
        rows.append(join_fields(e.address.sheet, e.address.a1, e.kind.value, *contents))
    return "".join(row + "\n" for row in rows).encode("utf-8")


def parse_changeset(payload: bytes) -> diffing.ChangeSet:
    head_line, *lines = payload.decode("utf-8").removesuffix("\n").split("\n")
    head = split_fields(head_line)
    if len(head) != 7 or head[0] != "CS1":
        raise ValueError(f"bad change set header {head_line!r}")
    events = []
    for line in lines:
        sheet, a1, kind, before, after = split_fields(line)
        contents = (None if t == "-" else decode_content(t) for t in (before, after))
        events.append(diffing.ChangeEvent(CellAddress(sheet, *parse_a1(a1)), diffing.ChangeKind(kind), *contents))
    _, workbook_id, from_digest, to_digest, *times, actor = head
    return diffing.ChangeSet(workbook_id, from_digest, to_digest, *map(parse_instant, times), actor, tuple(events))


def serialize_findings(findings: list[Finding]) -> bytes:
    rows = []
    for f in findings:
        texts = (f.message, f.observed) if f.expected is None else (f.message, f.observed, f.expected)
        rows.append(join_fields(f.rule_id, f.severity, str(f.location), *texts) + "\n")
    return "".join(rows).encode("utf-8")


def parse_findings(payload: bytes) -> list[Finding]:
    findings = []
    for line in filter(None, payload.decode("utf-8").split("\n")):
        fields = split_fields(line)
        if len(fields) not in (5, 6):
            raise ValueError(f"bad finding line {line!r}")
        rule_id, severity, location, *texts = fields
        findings.append(Finding(rule_id, severity, parse_location(location), *texts))
    return findings


# --- the ledger itself -------------------------------------------------------


def _own_cells(snapshot: Snapshot) -> Snapshot:
    return Snapshot(snapshot.workbook_id, snapshot.timestamp, snapshot.actor, dict(snapshot.cells), snapshot.attestation)


@contextmanager
def _exclusive_lock(directory: Path):
    """Writer lock for a ledger directory, held on the log file itself.

    If the body raises in a directory that this call made, the empty
    ledger it leaves is removed, so a rejected first ingest leaves no
    directory for a read-only command to mistake for an empty ledger.  A
    writer that was waiting on the removed log locks a new one."""
    import fcntl  # only here: only writers lock

    made = [path for path in (directory, *directory.parents) if not path.exists()]
    log = directory / "ledger.log"
    while True:
        try:
            directory.mkdir(parents=True, exist_ok=True)
            fh = log.open("a", encoding="utf-8")
        except FileNotFoundError:
            if directory.is_dir():  # not removed just now by a rejected first ingest
                raise
            continue
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        with suppress(FileNotFoundError):
            if os.path.samestat(os.fstat(fh.fileno()), log.stat()):
                break
        fh.close()
    with fh:
        try:
            yield
        except BaseException:
            if made:
                _remove_empty_ledger(directory, made)
            raise
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _remove_empty_ledger(directory: Path, made: list[Path]) -> None:
    """Remove the empty log and objects/ that a failed first ingest left,
    then the directories in made, deepest first.  rmdir refuses a directory
    that holds anything, so nothing written is removed."""
    log, objects = directory / "ledger.log", directory / "objects"
    with suppress(OSError):
        if not log.stat().st_size:
            if objects.exists():
                objects.rmdir()
            log.unlink()
            for path in made:
                path.rmdir()


class Ledger:
    def __init__(self, directory: Path | None = None, raw_lines: list[str] | None = None):
        """A ledger over the log lines, each checked here, once, in order.
        The first corrupt line ends the decode; its LedgerCorrupt is kept
        for verify_chain to report and for records to raise."""
        self.directory = directory
        self._objects: dict[str, bytes] = {}
        # digest -> the object's header as a Snapshot, with its cells once
        # parsed, and its cell lines
        self._stored: dict[str, tuple[Snapshot, CellLines]] = {}
        self._decode([] if raw_lines is None else raw_lines)

    def _decode(self, raw_lines: list[str], torn: bool = False) -> None:
        """Make raw_lines this ledger's log, checking each line in order; if
        torn, the last line lacked its newline and fails whatever it holds."""
        self.raw_lines = raw_lines
        self._records: list[LedgerRecord] = []  # the valid records before any corrupt line
        self._corrupt: LedgerCorrupt | None = None
        # (record count, result) of _whole_entries and of changesets, each
        # computed once per ledger length
        self._entries: tuple[int, list[Entry]] = (-1, [])
        self._history: tuple[int, list[diffing.ChangeSet]] = (-1, [])
        prev = GENESIS_HASH
        for i, line in enumerate(raw_lines):
            try:
                if torn and i == len(raw_lines) - 1:
                    raise LedgerCorrupt(i, "final line does not end in a newline (a write cut short)")
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
        other operation on it raises LedgerCorrupt."""
        ledger = cls(Path(directory))
        ledger._reload()
        return ledger

    def _reload(self) -> None:
        """Decode ledger.log again unless raw_lines hold its text.  A byte that
        is not UTF-8 becomes a lone surrogate and fails its line's decode."""
        log = self.directory / "ledger.log"
        text = log.read_text(encoding="utf-8", errors="surrogateescape") if log.exists() else ""
        if text != "".join(line + "\n" for line in self.raw_lines):
            *lines, tail = text.split("\n")
            self._decode([*lines, tail] if tail else lines, torn=bool(tail))

    @property
    def records(self) -> list[LedgerRecord]:
        if self._corrupt is not None:
            # a bare re-raise would extend the kept traceback each time
            raise self._corrupt.with_traceback(None)
        return self._records

    def entries(self) -> list[Entry]:
        """One Entry per INGEST record, in order; no payload is decoded.
        A record before the first INGEST, or whose kind repeats within one
        ingest or comes out of order, raises DigestMismatch."""
        groups: list[list[LedgerRecord]] = []
        for r in self.records:
            if r.kind == "INGEST":
                groups.append([r])
            elif groups and RECORD_KINDS.index(r.kind) > RECORD_KINDS.index(groups[-1][-1].kind):
                groups[-1].append(r)
            else:
                raise diffing.DigestMismatch(f"ledger record {r.seq} ({r.kind}) is out of place")
        return [Entry(ingest, **{r.kind.lower(): r for r in rest}) for ingest, *rest in groups]

    def _whole_entries(self) -> list[Entry]:
        """entries(), checked once per ledger length; every query reads
        entries here.  The first ingest has nothing to diff against, so a
        CHANGESET or FINDINGS in its entry is out of place; an ingest after
        the first that lacks either, as a writer stopped between appends
        leaves it, never recorded its change set.  Both raise
        DigestMismatch."""
        if self._entries[0] != len(self.records):
            entries = self.entries()
            extra = (entries[0].changeset or entries[0].findings) if entries else None
            if extra:
                raise diffing.DigestMismatch(f"ledger record {extra.seq} ({extra.kind}) is out of place")
            for e in entries[1:]:
                if e.changeset is None or e.findings is None:
                    missing = "CHANGESET" if e.changeset is None else "FINDINGS"
                    raise diffing.DigestMismatch(f"ledger record {e.ingest.seq} (INGEST) has no {missing}: its ingest was cut short")
            self._entries = (len(self._records), entries)
        return self._entries[1]

    @property
    def workbook_id(self) -> str | None:
        """The workbook id in the first object's header; no cell line is
        parsed for it."""
        entries = self._whole_entries()
        return self._object(entries[0].ingest.body[0])[0].workbook_id if entries else None

    # --- object store ---

    def store_snapshot(self, snapshot: Snapshot, lines: CellLines, digest: str) -> str:
        """Store the snapshot's bytes under digest, which is
        lines.digest(snapshot.workbook_id), and return it; lines are its
        CellLines, already rendered.  Only its header and lines are kept:
        its cells are built from the lines when first read, as any object's
        are (_parsed), so the next ingest on this ledger reads them against
        its own new lines.  The bytes go to a temp file first and are
        renamed onto the digest name, so a write cut short never leaves a
        torn object under that name; the temp file of a write that raises
        is removed, and the object is cached only once it is written, so a
        retry writes it again."""
        if digest not in self._objects:
            data = write_snapshot_file(snapshot, lines).encode("utf-8")
            if self.directory is not None:
                path = self.directory / "objects" / digest
                if not path.exists():
                    path.parent.mkdir(parents=True, exist_ok=True)
                    temp = path.with_suffix(".tmp")
                    try:
                        temp.write_bytes(data)
                    except BaseException:
                        temp.unlink(missing_ok=True)
                        raise
                    os.replace(temp, path)
            self._objects[digest] = data
            header = Snapshot(snapshot.workbook_id, snapshot.timestamp, snapshot.actor, attestation=snapshot.attestation)
            self._stored[digest] = (header, lines)
        return digest

    def load_snapshot(self, digest: str) -> Snapshot:
        """The stored snapshot named by digest, with a cells dict of its own."""
        return _own_cells(self._parsed(digest))

    def _parsed(self, digest: str, parsed: dict[str, tuple[CellAddress, CellContent]] | None = None) -> Snapshot:
        """The object named by digest with its cells, built from its checked
        lines once per ledger (CellLines.cells, which leaves every address of
        those lines parsed); a bad line raises DigestMismatch.  parsed, if
        given, goes to CellLines.cells when the cells are built: each line
        it maps is taken from it, not parsed.  Once built, the cells are
        returned as they are."""
        snapshot, lines = self._object(digest)
        if not snapshot.cells:  # not parsed yet, or no cells to parse
            try:
                snapshot.cells.update(lines.cells(parsed))
            except SnapshotError as exc:
                raise diffing.DigestMismatch(f"stored object {digest[:12]}... does not parse: {exc}") from exc
        return snapshot

    def _object(self, digest: str) -> tuple[Snapshot, CellLines]:
        """The header of the object named by digest, as a Snapshot whose
        cells _parsed fills, and its cell lines as stored
        (grid.read_stored_lines).  It is checked once per ledger: a name
        that is not a digest is refused before it becomes a path, the
        object must exist, and its header must parse and its lines, as
        stored, hash to its name."""
        if digest not in self._stored:
            if not _HEX64_RE.fullmatch(digest):
                seq = next((e.ingest.seq for e in self.entries() if e.ingest.body[0] == digest), "?")
                raise diffing.DigestMismatch(f"ledger record {seq} names object {digest!r}, which is not a digest")
            path = None if self.directory is None else self.directory / "objects" / digest
            if path is None or not path.exists():
                raise MissingObject(f"no stored snapshot for digest {digest[:12]}...")
            data = path.read_bytes()
            try:
                workbook_id, timestamp, actor, attestation, lines = read_stored_lines(data.decode("utf-8"))
            except ValueError as exc:  # undecodable bytes or a malformed header
                raise diffing.DigestMismatch(f"stored object {digest[:12]}... does not parse: {exc}") from exc
            # hashed as stored, so a line that parses to the same cell but is
            # not the canonical one fails too
            if lines.digest(workbook_id) != digest:
                raise diffing.DigestMismatch(f"stored object {digest[:12]}... does not hash to its name")
            self._objects[digest] = data
            self._stored[digest] = (Snapshot(workbook_id, timestamp, actor, attestation=attestation), lines)
        return self._stored[digest]

    # --- appends ---

    def append_record(self, kind: str, payload: bytes, recorded_at: datetime) -> LedgerRecord:
        """Append one record after this ledger's records: the unlocked
        primitive that ingest_snapshot calls while it holds the writer lock.
        Any other caller must be the ledger's only writer."""
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
        return [e.ingest.body for e in self._whole_entries()]

    def changesets(self) -> list[diffing.ChangeSet]:
        """The change sets, each leading from one ingested digest to the
        next (else DigestMismatch), replayed in place from the first stored
        snapshot with every step checked (diffing.replay); they are linked
        and replayed once per ledger length."""
        entries = self._whole_entries()
        if self._history[0] != len(self._records):
            changesets = [e.changeset.body for e in entries[1:]]
            if entries:
                # load_snapshot parses every line, as the replay's edits need
                first = self.load_snapshot(entries[0].ingest.body[0])
                digests = [e.ingest.body[0] for e in entries]
                if [(c.from_digest, c.to_digest) for c in changesets] != list(zip(digests, digests[1:])):
                    raise diffing.DigestMismatch("change sets do not link the ingested snapshots")
                diffing.replay(first.cells, self._object(digests[0])[1].copy(), first.workbook_id, changesets)
            self._history = (len(self._records), changesets)
        return self._history[1]

    def verify_chain(self) -> ChainVerification:
        """The outcome of the check every line passed through when this
        ledger was built; nothing is hashed again."""
        if self._corrupt is None:
            return ChainVerification(True, None, len(self.raw_lines))
        return ChainVerification(False, self._corrupt.seq, len(self.raw_lines), self._corrupt.reason)

    def series_for_cell(self, address: CellAddress, before: int | None = None) -> CellSeries:
        """Value history of one cell across the first `before` ingested
        snapshots (all of them when before is None), oldest first: the cell
        in the first stored snapshot, then its content after each change
        set between them.  Cells that are absent, have no value, or hold an
        error value leave a gap.  Change sets that do not replay, any of
        the ledger's, raise ConflictingEvent or DigestMismatch."""
        ingests = self.ingests()[:before]
        if not ingests:
            return CellSeries(address, ())
        content = self._parsed(ingests[0][0]).cells.get(address)
        states = [(ingests[0][1], content)]
        for changes in self.changesets()[: len(ingests) - 1]:
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
        for changes in self.changesets():
            for event in changes.events:
                if event.address == address:
                    history.append(AttributedChange(event, changes.actor, changes.to_time))
        return history

    def findings_records(self) -> list[tuple[LedgerRecord, list[Finding]]]:
        return [(e.findings, e.findings.body) for e in self._whole_entries() if e.findings is not None]

    def check(self, policy: "controls_mod.ControlPolicy") -> list[Finding]:
        """The policy's findings for the latest change set, evaluated as its
        ingest evaluated them: on this ledger bounded to the entries before
        the latest (every entry after the first has a change set), with the
        sign-off of its ATTEST record.  A ledger without a change set
        raises ValueError."""
        entries = self._whole_entries()
        if len(entries) < 2:
            raise ValueError("ledger holds no change sets to check")
        changeset, attest = entries[-1].changeset, entries[-1].attest
        return controls_mod.evaluate_policies(changeset.body, policy, self, attest and attest.body, len(entries) - 1)

    # --- ingestion ---

    def ingest_snapshot(
        self,
        snapshot: Snapshot,
        cfg: "audit_mod.AuditConfig | None" = None,
        policy: "controls_mod.ControlPolicy | None" = None,
    ) -> list[Finding]:
        """Record a new snapshot, under the writer lock and on ledger.log as
        read under it when the ledger has a directory: diff it against the
        latest one, if any, and evaluate the static audit plus any control
        policy, then store its bytes and append its records.  Returns the
        new findings; a refused ingest writes nothing.

        Re-ingesting content whose digest equals the latest is a no-op
        unless it carries an attestation (a sign-off is worth recording
        even without cell edits)."""
        with nullcontext() if self.directory is None else _exclusive_lock(self.directory):
            if self.directory is not None:
                self._reload()
            entries = self._whole_entries()
            if entries:
                # the workbook id in the latest object's header (ingest keeps
                # one id per ledger); no cell line is parsed for it
                last_digest, last_at, last_actor = entries[-1].ingest.body
                latest = self._object(last_digest)[0]
                if snapshot.workbook_id != latest.workbook_id:
                    raise diffing.WorkbookMismatch(
                        f"ledger tracks {latest.workbook_id!r}, snapshot is {snapshot.workbook_id!r}"
                    )
            if policy is not None and policy.workbook_id != snapshot.workbook_id:
                raise diffing.WorkbookMismatch(
                    f"policy is for {policy.workbook_id!r}, snapshot is {snapshot.workbook_id!r}"
                )
            lines = CellLines(snapshot.cells)
            digest = lines.digest(snapshot.workbook_id)
            changes: diffing.ChangeSet | None = None
            findings: list[Finding] = []
            if entries:
                if digest == last_digest and not snapshot.attestation:
                    return []
                if snapshot.timestamp <= last_at:
                    raise NonMonotonicTimestamp(
                        f"snapshot at {format_instant(snapshot.timestamp)} does not "
                        f"advance past {format_instant(last_at)}"
                    )
                # the latest object read against the new snapshot's lines: each
                # line the two share is the new snapshot's very cell, which the
                # diff passes unexamined.  The change set starts at the latest
                # INGEST record's time: the object's header keeps the time its
                # content was first seen
                cells = self._parsed(last_digest, lines.by_line(snapshot.cells)).cells
                previous = Snapshot(latest.workbook_id, last_at, last_actor, cells)
                changes = diffing.diff_snapshots(previous, snapshot, digests=(last_digest, digest))
                findings.extend(audit_mod.audit_workbook(snapshot, cfg))
                if policy is not None:
                    findings.extend(controls_mod.evaluate_policies(changes, policy, self, snapshot.attestation))

            self.store_snapshot(snapshot, lines, digest)
            self.append_record("INGEST", serialize_ingest(digest, snapshot.timestamp, snapshot.actor), snapshot.timestamp)
            if changes is not None:
                self.append_record("CHANGESET", serialize_changeset(changes), snapshot.timestamp)
                self.append_record("FINDINGS", serialize_findings(findings), snapshot.timestamp)
            if snapshot.attestation:
                self.append_record("ATTEST", join_fields(snapshot.attestation).encode("utf-8"), snapshot.timestamp)
            return findings
