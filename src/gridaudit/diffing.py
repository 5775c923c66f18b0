"""Cell-level differences between consecutive snapshots.

Diffing is address-based: a row or column insertion shows up as a block of
added/removed/changed cells, never as inferred moves.  Formula equality is
source-text equality, so refactors that preserve meaning are still logged;
a cached-value-only change on a formula cell counts as data movement, not
a logic change.  A ChangeEvent is built from its address and two sides,
and its kind is the one classify_change gives those sides, so no event
holds a kind its sides do not have.

Every diff reads the two snapshots' cells dicts (diff_events), and a cell
that both hold as the very same address and content objects is passed
unexamined.  Two files parsed against one map of line text share such a
cell for every line they share: `diff` parses its two files that way
(grid.parse_snapshot_file), and ingest parses the latest stored object
against the new snapshot's rendered lines (grid.CellLines.cells), so a
stored line is parsed only where it differs from the new snapshot.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from typing import TYPE_CHECKING

from .grid import (
    CellAddress,
    CellContent,
    CellLines,
    Formula,
    IntegrityError,
    Snapshot,
    datetime,
    record,
)

if TYPE_CHECKING:
    from fractions import Fraction


class ChangeKind(Enum):
    ADDED = "Added"
    REMOVED = "Removed"
    DATA_CHANGED = "DataChanged"
    LOGIC_CHANGED = "LogicChanged"
    KIND_CHANGED = "KindChanged"


class DiffError(ValueError):
    pass


class WorkbookMismatch(DiffError):
    pass


class NoChange(DiffError):
    pass


class DigestMismatch(DiffError, IntegrityError):
    pass


class ConflictingEvent(DiffError, IntegrityError):
    pass


@record
class ChangeEvent:
    address: CellAddress
    before: CellContent | None
    after: CellContent | None

    def __post_init__(self):
        """Set kind, classify_change's for the two sides, which is not a
        field: equality, hash and repr read the fields it follows from."""
        object.__setattr__(self, "kind", classify_change(self.before, self.after))

    def alters_logic(self) -> bool:
        """True when the event creates, edits or deletes formula logic."""
        if self.kind in (ChangeKind.LOGIC_CHANGED, ChangeKind.KIND_CHANGED):
            return True
        if self.kind is ChangeKind.ADDED:
            return isinstance(self.after, Formula)
        if self.kind is ChangeKind.REMOVED:
            return isinstance(self.before, Formula)
        return False


@record
class ChangeSet:
    workbook_id: str
    from_digest: str
    to_digest: str
    from_time: datetime
    to_time: datetime
    actor: str
    events: tuple[ChangeEvent, ...]


@record
class VolatilityMetrics:
    structural_volatility: Fraction
    data_volatility: Fraction


def classify_change(before: CellContent | None, after: CellContent | None) -> ChangeKind:
    if before is None and after is None:
        raise ValueError("classify_change needs at least one side")
    if before == after:
        raise NoChange("contents are equal")
    if before is None:
        return ChangeKind.ADDED
    if after is None:
        return ChangeKind.REMOVED
    if not isinstance(before, Formula) and not isinstance(after, Formula):
        return ChangeKind.DATA_CHANGED
    if isinstance(before, Formula) and isinstance(after, Formula):
        if before.source != after.source:
            return ChangeKind.LOGIC_CHANGED
        return ChangeKind.DATA_CHANGED  # same logic, new cached value
    return ChangeKind.KIND_CHANGED


def diff_snapshots(before: Snapshot, after: Snapshot, *, digests: tuple[str, str] | None = None) -> ChangeSet:
    """The change set from before to after: one event per address whose
    content differs, in CellAddress.sort_key order (diff_events gives the
    events and their rules), with both snapshots' digests.  digests, if
    given, are the two snapshots' digests, already known; else they are
    hashed here."""
    events = diff_events(before, after)
    if digests is None:
        digests = CellLines(before.cells).digest(before.workbook_id), CellLines(after.cells).digest(after.workbook_id)
    return ChangeSet(
        workbook_id=before.workbook_id,
        from_digest=digests[0],
        to_digest=digests[1],
        from_time=before.timestamp,
        to_time=after.timestamp,
        actor=after.actor,
        events=tuple(events),
    )


def diff_events(before: Snapshot, after: Snapshot) -> list[ChangeEvent]:
    """The events of diff_snapshots, from the two snapshots' cells dicts;
    nothing is rendered or hashed.  Snapshots of different workbooks raise
    WorkbookMismatch.

    A cell that both dicts hold as the very same address and content
    objects is unchanged and is not compared: that is every line two files
    share when grid.parse_snapshot_file parsed them against one map.  Only
    the addresses left are sorted and classified.  A cell whose sheet name
    changed only in letter case is Removed under the old name and Added
    under the new one, so replay restores the stored names (addresses
    compare case-insensitively, digests do not).  Content equal to its
    twin's, though spelt otherwise (5 and 5.0), makes no event."""
    if before.workbook_id != after.workbook_id:
        raise WorkbookMismatch(f"cannot diff {before.workbook_id!r} against {after.workbook_id!r}")
    old, new = before.cells, after.cells
    # keyed by object identity, which hashes in C: an address's own hash
    # is a Python call per cell
    old_at = {id(address): content for address, content in old.items()}
    new_at = {id(address): content for address, content in new.items()}
    olds = {a: (a, c) for a, c in old.items() if new_at.get(id(a)) is not c}
    news = {a: (a, c) for a, c in new.items() if old_at.get(id(a)) is not c}
    events: list[ChangeEvent] = []
    for address in sorted(olds.keys() | news.keys(), key=CellAddress.sort_key):
        old_address, old_content = olds.get(address, (None, None))
        new_address, new_content = news.get(address, (None, None))
        if old_address is not None and new_address is not None and old_address.sheet != new_address.sheet:
            events.append(ChangeEvent(old_address, old_content, None))
            events.append(ChangeEvent(new_address, None, new_content))
        elif old_content != new_content:
            events.append(ChangeEvent(new_address or old_address, old_content, new_content))
    return events


def apply_changes(before: Snapshot, changes: ChangeSet) -> Snapshot:
    """Replay a change set on its base snapshot: one step of replay, on a
    cells dict of its own.  The result carries the change set's end time
    and actor, no attestation (a change set carries no sign-off), and
    reproduces to_digest exactly."""
    lines = CellLines(before.cells)
    if changes.from_digest != lines.digest(before.workbook_id):
        raise DigestMismatch(f"change set starts at {changes.from_digest[:12]}..., snapshot digest differs")
    cells = dict(before.cells)
    replay(cells, lines, before.workbook_id, [changes])
    return Snapshot(before.workbook_id, changes.to_time, changes.actor, cells)


def replay(
    cells: dict[CellAddress, CellContent], lines: CellLines, workbook_id: str, changesets: Iterable[ChangeSet]
) -> None:
    """Apply each change set in turn, in place, to one snapshot's cells and
    their CellLines, which must hash to the first change set's
    from_digest.  Each step checks every event's before content (else
    ConflictingEvent), re-renders only the lines its events touch and
    hashes the result against to_digest (else DigestMismatch); a step that
    raises leaves the steps before it applied."""
    for changes in changesets:
        for event in changes.events:
            if cells.get(event.address) != event.before:
                raise ConflictingEvent(f"unexpected content at {event.address}")
            if event.after is not None:
                cells[event.address] = event.after
                lines.set(event.address, event.after)
            else:
                del cells[event.address]
                lines.remove(event.address)
        if lines.digest(workbook_id) != changes.to_digest:
            raise DigestMismatch("replayed snapshot does not reproduce to_digest")


def volatility_metrics(changes: ChangeSet, before: Snapshot) -> VolatilityMetrics:
    """volatility_ratios over the before snapshot's cells."""
    formula_count = sum(isinstance(content, Formula) for content in before.cells.values())
    return volatility_ratios(changes, formula_count, len(before.cells))


def volatility_ratios(changes: ChangeSet, formula_count: int, cell_count: int) -> VolatilityMetrics:
    """Change-rate ratios over a before snapshot of cell_count cells,
    formula_count of them formulas.

    structural_volatility: formula cells whose logic changed, flipped kind
    or were removed, over formula cells in before.  data_volatility: the
    same over literal cells.  Added cells and cached-value-only changes
    count in neither volatility since neither the logic nor a literal of
    before moved.
    """
    from fractions import Fraction  # only here: `diff` and `history` never need it

    literal_count = cell_count - formula_count
    structural = data = 0
    for event in changes.events:
        if event.kind is ChangeKind.ADDED:
            continue
        if not isinstance(event.before, Formula):
            data += 1
        elif event.kind is not ChangeKind.DATA_CHANGED:
            structural += 1
    return VolatilityMetrics(
        structural_volatility=Fraction(structural, formula_count) if formula_count else Fraction(0),
        data_volatility=Fraction(data, literal_count) if literal_count else Fraction(0),
    )
