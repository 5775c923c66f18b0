"""Cell-level differences between consecutive snapshots.

Diffing is address-based: a row or column insertion shows up as a block of
added/removed/changed cells, never as inferred moves.  Formula equality is
source-text equality, so refactors that preserve meaning are still logged;
a cached-value-only change on a formula cell counts as data movement, not
a logic change.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from datetime import datetime
from enum import Enum
from typing import TYPE_CHECKING

from .grid import (
    CellAddress,
    CellContent,
    CellLines,
    Formula,
    Literal,
    Snapshot,
    record,
    snapshot_digest,
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


class DigestMismatch(DiffError):
    pass


class ConflictingEvent(DiffError):
    pass


@record
class ChangeEvent:
    address: CellAddress
    kind: ChangeKind
    before: CellContent | None
    after: CellContent | None

    def __post_init__(self):
        if self.kind is ChangeKind.ADDED and self.before is not None:
            raise ValueError("Added events carry no before content")
        if self.kind is ChangeKind.REMOVED and self.after is not None:
            raise ValueError("Removed events carry no after content")
        if self.kind not in (ChangeKind.ADDED, ChangeKind.REMOVED) and (
            self.before is None or self.after is None
        ):
            raise ValueError(f"{self.kind.value} events need both sides")

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
    added_fraction: Fraction


def classify_change(before: CellContent | None, after: CellContent | None) -> ChangeKind:
    if before is None and after is None:
        raise ValueError("classify_change needs at least one side")
    if before == after:
        raise NoChange("contents are equal")
    if before is None:
        return ChangeKind.ADDED
    if after is None:
        return ChangeKind.REMOVED
    if isinstance(before, Literal) and isinstance(after, Literal):
        return ChangeKind.DATA_CHANGED
    if isinstance(before, Formula) and isinstance(after, Formula):
        if before.source != after.source:
            return ChangeKind.LOGIC_CHANGED
        return ChangeKind.DATA_CHANGED  # same logic, new cached value
    return ChangeKind.KIND_CHANGED


def diff_snapshots(before: Snapshot, after: Snapshot, *, digests: tuple[str, str] | None = None) -> ChangeSet:
    """One event per address whose content differs between the snapshots.
    A cell whose sheet name changed only in letter case is Removed under
    the old name and Added under the new one, so replay restores the
    stored names (addresses compare case-insensitively, digests do not).
    digests, if given, are the two snapshots' digests, already known."""
    if before.workbook_id != after.workbook_id:
        raise WorkbookMismatch(
            f"cannot diff {before.workbook_id!r} against {after.workbook_id!r}"
        )
    # keyed by address, valued with the stored address to keep its case
    old_cells = {address: (address, content) for address, content in before.cells.items()}
    new_cells = {address: (address, content) for address, content in after.cells.items()}
    events = []
    for address in sorted(set(old_cells) | set(new_cells), key=CellAddress.sort_key):
        old_at, old = old_cells.get(address, (None, None))
        new_at, new = new_cells.get(address, (None, None))
        if old_at is not None and new_at is not None and old_at.sheet != new_at.sheet:
            events.append(ChangeEvent(old_at, ChangeKind.REMOVED, old, None))
            events.append(ChangeEvent(new_at, ChangeKind.ADDED, None, new))
        elif old != new:
            events.append(ChangeEvent(new_at or old_at, classify_change(old, new), old, new))
    from_digest, to_digest = digests or (snapshot_digest(before), snapshot_digest(after))
    return ChangeSet(
        workbook_id=before.workbook_id,
        from_digest=from_digest,
        to_digest=to_digest,
        from_time=before.timestamp,
        to_time=after.timestamp,
        actor=after.actor,
        events=tuple(events),
    )


def apply_changes(before: Snapshot, changes: ChangeSet) -> Snapshot:
    """Replay a change set on its base snapshot.  The result carries the
    change set's end time and actor and reproduces to_digest exactly."""
    lines = CellLines(before.cells)
    if changes.from_digest != lines.digest(before.workbook_id):
        raise DigestMismatch(
            f"change set starts at {changes.from_digest[:12]}..., "
            f"snapshot digest differs"
        )
    return list(replay(before, [changes], lines))[-1]


def replay(first: Snapshot, changesets: Iterable[ChangeSet], lines: CellLines | None = None) -> Iterator[Snapshot]:
    """first, then the result of each change set in turn, each with a
    cells dict of its own.  first must hash to the first change set's
    from_digest; lines, if given, are its CellLines (left unchanged).
    Each step checks every event's before content (else
    ConflictingEvent), re-renders only the lines its events touch and
    hashes the result against to_digest (else DigestMismatch) before the
    result is yielded."""
    yield first
    cells = dict(first.cells)
    lines = CellLines(cells) if lines is None else lines.copy()
    for changes in changesets:
        for event in changes.events:
            if cells.get(event.address) != event.before:
                raise ConflictingEvent(f"unexpected content at {event.address}")
            if event.after is not None:
                cells[event.address] = event.after
                lines.set(event.address, event.after)
            elif event.before is not None:
                del cells[event.address]
                lines.remove(event.address)
            else:
                raise ConflictingEvent(f"nothing to remove at {event.address}")
        if lines.digest(first.workbook_id) != changes.to_digest:
            raise DigestMismatch("replayed snapshot does not reproduce to_digest")
        yield Snapshot(first.workbook_id, changes.to_time, changes.actor, dict(cells), first.attestation)


def volatility_metrics(changes: ChangeSet, before: Snapshot) -> VolatilityMetrics:
    """Change-rate ratios over the before snapshot.

    structural_volatility: formula cells whose logic changed, flipped kind
    or were removed, over formula cells in before.  data_volatility: the
    same over literal cells.  added_fraction: added cells over before cell
    count (over 1 when before is empty).  Cached-value-only changes count
    in neither volatility since neither the logic nor a literal moved.
    """
    from fractions import Fraction  # only here: `diff` and `history` never need it

    formula_count = sum(isinstance(content, Formula) for content in before.cells.values())
    literal_count = len(before.cells) - formula_count
    structural = 0
    data = 0
    added = 0
    for event in changes.events:
        if event.kind is ChangeKind.ADDED:
            added += 1
        elif not isinstance(event.before, Formula):
            data += 1
        elif event.kind is not ChangeKind.DATA_CHANGED:
            structural += 1
    return VolatilityMetrics(
        structural_volatility=Fraction(structural, formula_count) if formula_count else Fraction(0),
        data_volatility=Fraction(data, literal_count) if literal_count else Fraction(0),
        added_fraction=Fraction(added, len(before.cells)) if before.cells else Fraction(added),
    )
