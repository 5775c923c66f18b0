"""Declared control policies evaluated against each change set.

Five rule families, all configuration-driven and all pure functions of
(change set, policy, ledger, sign-off, bound):

* region modes: LOCKED, DATA_ONLY, FORMULA_MAINTAINED, FREE
* cadence windows: when changes inside a region are allowed (UTC)
* value bounds: numeric ranges for data entry regions
* trend deviation: rolling z-score on monitored KPI cells (trend.py)
* task order: declared steps must be touched in sequence each period

Overlapping region rules are each enforced: a cell under both a LOCKED
and a DATA_ONLY rule is checked against both, so adding a rule can only
add findings.  A workflow period resets at each ATTEST record.

The bound k is the index of the ledger entry whose change set is judged:
trend and task-order rules read only the entries before it, through
Ledger.series_for_cell(address, k) and _period_events(ledger, k), so the
ledger already open answers for any point in its history.  An ingest
evaluates before it appends, so it passes no bound and they read every
entry.
"""

from __future__ import annotations

import re
from decimal import Decimal
from enum import IntEnum
from typing import TYPE_CHECKING

from .diffing import ChangeEvent, ChangeKind, ChangeSet, WorkbookMismatch
from .findings import Finding, make_finding
from .grid import (
    MAX_EXPONENT,
    Number,
    Region,
    canonical_decimal,
    content_value,
    format_instant,
    in_number_range,
    render_value,
    parse_qualified_address,
    parse_region,
    record,
)
from .trend import TrendRule, TrendVerdict, trend_deviation  # TrendVerdict only re-exported

if TYPE_CHECKING:
    from .ledger import Ledger


class Mode(IntEnum):
    """Region change modes; higher value is stricter."""

    FREE = 0
    FORMULA_MAINTAINED = 1
    DATA_ONLY = 2
    LOCKED = 3


_TICKET_RE = re.compile(r"\b[A-Z][A-Z0-9]+-[0-9]+\b")
_DAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


@record
class RegionRule:
    region: Region
    mode: Mode
    ticket_required: bool = False


@record
class CadenceWindow:
    days: frozenset[int]  # 0=Mon .. 6=Sun
    start_hour: int  # inclusive
    end_hour: int  # exclusive

    def __post_init__(self):
        if not self.days or not all(0 <= d <= 6 for d in self.days):
            raise ValueError("cadence window needs weekdays in Mon..Sun")
        if not (0 <= self.start_hour < self.end_hour <= 24):
            raise ValueError("cadence hours must satisfy 0 <= start < end <= 24")

    def admits(self, at) -> bool:
        return at.weekday() in self.days and self.start_hour <= at.hour < self.end_hour

    def __str__(self) -> str:
        days = ",".join(_DAY_NAMES[d] for d in sorted(self.days))
        return f"{days} {self.start_hour}-{self.end_hour}"


@record
class CadenceRule:
    region: Region
    windows: tuple[CadenceWindow, ...]

    def __post_init__(self):
        if not self.windows:
            raise ValueError("cadence rule needs at least one window")


@record
class BoundRule:
    region: Region
    minimum: Decimal | None = None
    maximum: Decimal | None = None

    def __post_init__(self):
        if not all(b is None or in_number_range(b) for b in (self.minimum, self.maximum)):
            raise ValueError(f"bounds must be finite numbers with exponents within ±{MAX_EXPONENT}")
        if self.minimum is not None and self.maximum is not None and self.minimum > self.maximum:
            raise ValueError("min must not exceed max")

    def bounds_text(self) -> str:
        parts = []
        if self.minimum is not None:
            parts.append(f">= {canonical_decimal(self.minimum)}")
        if self.maximum is not None:
            parts.append(f"<= {canonical_decimal(self.maximum)}")
        return " and ".join(parts) if parts else "numeric"


@record
class WorkflowStep:
    step_id: str
    region: Region


def _overlap(a: Region, b: Region) -> bool:
    return (
        a.sheet.lower() == b.sheet.lower()
        and a.top <= b.bottom
        and b.top <= a.bottom
        and a.left <= b.right
        and b.left <= a.right
    )


@record
class Workflow:
    steps: tuple[WorkflowStep, ...]

    def __post_init__(self):
        ids = [s.step_id for s in self.steps]
        if len(set(ids)) != len(ids):
            raise ValueError("workflow step ids must be unique")
        for i, a in enumerate(self.steps):
            for b in self.steps[i + 1 :]:
                if _overlap(a.region, b.region):
                    raise ValueError(
                        f"workflow steps {a.step_id!r} and {b.step_id!r} overlap"
                    )


@record
class ControlPolicy:
    workbook_id: str
    region_rules: tuple[RegionRule, ...] = ()
    cadence_rules: tuple[CadenceRule, ...] = ()
    bound_rules: tuple[BoundRule, ...] = ()
    trend_rules: tuple[TrendRule, ...] = ()
    workflow: Workflow | None = None


def _check_regions(changes: ChangeSet, policy: ControlPolicy, attestation: str | None) -> list[Finding]:
    findings = []
    for rule in policy.region_rules:
        if rule.mode is Mode.LOCKED:
            rule_id, tail, expected = "LOCKED_REGION_CHANGE", f"in locked region {rule.region}", "no change"
        elif rule.mode is Mode.DATA_ONLY:
            rule_id, expected = "DATA_ONLY_LOGIC_CHANGE", "data changes only"
            tail = f"alters logic in data-only region {rule.region}"
        elif rule.mode is Mode.FORMULA_MAINTAINED and not (
            attestation and (not rule.ticket_required or _TICKET_RE.search(attestation))
        ):
            expected = "a ticket-referencing attestation" if rule.ticket_required else "attestation"
            rule_id, tail = "UNATTESTED_LOGIC_CHANGE", f"in maintained region {rule.region} without {expected}"
        else:
            continue  # FREE, or a maintained region whose change is attested
        for event in changes.events:
            if rule.region.contains(event.address) and (rule.mode is Mode.LOCKED or event.alters_logic()):
                findings.append(
                    make_finding(
                        rule_id,
                        event.address,
                        f"{event.kind.value} {tail}",
                        observed=event.kind.value,
                        expected=expected,
                    )
                )
    return findings


def check_cadence(changes: ChangeSet, policy: ControlPolicy) -> list[Finding]:
    """Every (event, cadence rule) pair gets exactly one pass/fail: fail
    when the change-set end time falls outside all of the rule's windows."""
    findings = []
    for rule in policy.cadence_rules:
        if any(w.admits(changes.to_time) for w in rule.windows):
            continue
        allowed = "; ".join(str(w) for w in rule.windows)
        for event in changes.events:
            if rule.region.contains(event.address):
                findings.append(
                    make_finding(
                        "CADENCE_VIOLATION",
                        event.address,
                        f"change at {format_instant(changes.to_time)} outside allowed windows for {rule.region}",
                        observed=format_instant(changes.to_time),
                        expected=allowed,
                    )
                )
    return findings


def check_bounds(changes: ChangeSet, policy: ControlPolicy) -> list[Finding]:
    """Data entering a bounded region must be numeric and inside the
    inclusive bounds.  Only Added and DataChanged events are data entry."""
    findings = []
    for rule in policy.bound_rules:
        for event in changes.events:
            if event.kind not in (ChangeKind.ADDED, ChangeKind.DATA_CHANGED):
                continue
            if event.after is None or not rule.region.contains(event.address):
                continue
            value = content_value(event.after)
            if value is None:
                continue
            if not isinstance(value, Number):
                findings.append(
                    make_finding(
                        "TYPE_VIOLATION",
                        event.address,
                        f"non-numeric value in bounded region {rule.region}",
                        observed=render_value(value),
                        expected=rule.bounds_text(),
                    )
                )
                continue
            below = rule.minimum is not None and value.value < rule.minimum
            above = rule.maximum is not None and value.value > rule.maximum
            if below or above:
                findings.append(
                    make_finding(
                        "BOUND_VIOLATION",
                        event.address,
                        f"value {canonical_decimal(value.value)} outside bounds for {rule.region}",
                        observed=canonical_decimal(value.value),
                        expected=rule.bounds_text(),
                    )
                )
    return findings


def _check_trends(
    changes: ChangeSet, policy: ControlPolicy, ledger: "Ledger | None", before: int | None = None
) -> list[Finding]:
    if ledger is None or not policy.trend_rules:
        return []
    after = {e.address: e.after for e in changes.events}
    findings = []
    for rule in policy.trend_rules:
        content = after.get(rule.address)
        value = None if content is None else content_value(content)
        if not isinstance(value, Number):
            continue
        verdict = trend_deviation(ledger.series_for_cell(rule.address, before), value.value, rule)
        if verdict.violated:
            if verdict.stddev > 0:
                detail = (
                    f"z={verdict.z:.6f} exceeds {rule.z_threshold:g} "
                    f"(mean={verdict.mean:.6f}, stddev={verdict.stddev:.6f})"
                )
            else:
                detail = f"departs from constant history {verdict.mean:.6f}"
            findings.append(
                make_finding(
                    "TREND_DEVIATION",
                    rule.address,
                    f"new value {canonical_decimal(value.value)} {detail}",
                    observed=canonical_decimal(value.value),
                    expected=f"|z| <= {rule.z_threshold:g}",
                )
            )
    return findings


def _period_events(ledger: "Ledger", before: int | None = None) -> list[ChangeEvent]:
    """Events in change sets recorded since the last ATTEST record, which
    closes its own ingest's changes too, among the ledger's first `before`
    entries (all of them when before is None); the entries are the
    ledger's checked ones, as every query reads them."""
    entries = ledger._whole_entries()[:before]
    since = max((i + 1 for i, e in enumerate(entries) if e.attest is not None), default=0)
    return [event for e in entries[since:] if e.changeset is not None for event in e.changeset.body.events]


def _touched_steps(workflow: Workflow, events) -> set[int]:
    return {i for i, step in enumerate(workflow.steps) if any(step.region.contains(e.address) for e in events)}


def check_task_order(
    ledger: "Ledger | None", workflow: Workflow | None, changes: ChangeSet, before: int | None = None
) -> list[Finding]:
    """Steps must first be touched in declared order within a period.
    Re-touching a completed step is allowed (rework); events outside all
    step regions are ignored.  One finding per out-of-order step touch,
    naming the steps skipped."""
    if workflow is None:
        return []
    touched = _touched_steps(workflow, _period_events(ledger, before)) if ledger is not None else set()
    findings = []
    for k in sorted(_touched_steps(workflow, changes.events)):
        missing = [j for j in range(k) if j not in touched]
        if missing:
            skipped = ", ".join(workflow.steps[j].step_id for j in missing)
            findings.append(
                make_finding(
                    "TASK_ORDER_VIOLATION",
                    workflow.steps[k].region,
                    f"step {workflow.steps[k].step_id!r} touched before: {skipped}",
                    observed=workflow.steps[k].step_id,
                    expected=f"complete first: {skipped}",
                )
            )
        touched.add(k)
    return findings


def evaluate_policies(
    changes: ChangeSet, policy: ControlPolicy, ledger: "Ledger | None" = None,
    attestation: str | None = None, before: int | None = None,
) -> list[Finding]:
    """All control findings for one change set, deduplicated and ordered
    by location then rule id.  attestation is the change set's sign-off,
    the text of the ATTEST record its ingest appends.  Trend and task-order
    rules read the ledger's first `before` entries, the history before the
    change set's own entry: Ledger.check passes the latest entry's index,
    and an ingest, which evaluates before it appends, passes None for all
    of them."""
    if changes.workbook_id != policy.workbook_id:
        raise WorkbookMismatch(
            f"change set is for {changes.workbook_id!r}, policy for {policy.workbook_id!r}"
        )
    findings: list[Finding] = []
    findings.extend(_check_regions(changes, policy, attestation))
    findings.extend(check_cadence(changes, policy))
    findings.extend(check_bounds(changes, policy))
    findings.extend(_check_trends(changes, policy, ledger, before))
    findings.extend(check_task_order(ledger, policy.workflow, changes, before))
    return sorted(dict.fromkeys(findings), key=Finding.sort_key)


# --- policy file -------------------------------------------------------------


class PolicyError(ValueError):
    pass


def _weekday(name: str, text: str) -> int:
    try:
        return _DAY_NAMES.index(name.strip().capitalize())
    except ValueError:
        raise PolicyError(f"unknown weekday in {text!r}") from None


def _parse_days(text: str) -> frozenset[int]:
    days: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        lo, dash, hi = part.partition("-")
        a = _weekday(lo, text)
        b = _weekday(hi, text) if dash else a
        if a > b:
            raise PolicyError(f"weekday range {part!r} runs backwards")
        days.update(range(a, b + 1))
    return frozenset(days)


def _parse_window(text: str) -> CadenceWindow:
    parts = text.rsplit(None, 1)
    if len(parts) != 2 or "-" not in parts[1]:
        raise PolicyError(f"window must look like 'Mon-Fri 9-17': {text!r}")
    start, _, end = parts[1].partition("-")
    try:
        window = CadenceWindow(_parse_days(parts[0]), int(start), int(end))
    except ValueError as exc:
        raise PolicyError(f"bad window {text!r}: {exc}") from exc
    return window


def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "yes", "1"):
        return True
    if text.lower() in ("false", "no", "0"):
        return False
    raise PolicyError(f"expected a boolean, got {text!r}")


def _parse_mode(text: str) -> Mode:
    try:
        return Mode[text.upper()]
    except KeyError:
        raise PolicyError(f"[region] stanza has unknown mode {text!r}") from None


# stanza kind -> the rule it builds, and each key it takes -> the rule's
# field and the parser of the key's text.  A key the stanza leaves out
# leaves its field to the rule's default; a field without one needs its key.
_RULE_FIELDS = {
    "region": (RegionRule, {
        "range": ("region", parse_region),
        "mode": ("mode", _parse_mode),
        "ticket_required": ("ticket_required", _parse_bool),
    }),
    "bounds": (BoundRule, {"range": ("region", parse_region), "min": ("minimum", Decimal), "max": ("maximum", Decimal)}),
    "trend": (TrendRule, {
        "cell": ("address", parse_qualified_address),
        "window": ("window", int),
        "z_threshold": ("z_threshold", float),
        "min_points": ("min_points", int),
    }),
}
# stanza kind -> the keys it takes; only the keys in _REPEATABLE may repeat
_STANZA_KEYS = {
    **{kind: tuple(fields) for kind, (_, fields) in _RULE_FIELDS.items()},
    "cadence": ("range", "window"),
    "workflow": ("step",),
}
_REPEATABLE = {("cadence", "window"), ("workflow", "step")}


def _build_rule(kind: str, entries: list[tuple[str, str]]):
    if kind not in _STANZA_KEYS:
        raise PolicyError(f"unknown stanza [{kind}]")
    single: dict[str, str] = {}
    for key, value in entries:
        if key not in _STANZA_KEYS[kind]:
            raise PolicyError(f"[{kind}] stanza has unknown key {key!r}")
        if key in single and (kind, key) not in _REPEATABLE:
            raise PolicyError(f"[{kind}] stanza repeats key {key!r}")
        single[key] = value
    try:
        if kind in _RULE_FIELDS:
            rule, fields = _RULE_FIELDS[kind]
            given = {}
            for key, (field, parse) in fields.items():
                if key in single or field not in vars(rule):  # a class attribute is a record's default
                    given[field] = parse(single[key])
            return rule(**given)
        if kind == "cadence":
            windows = tuple(_parse_window(v) for k, v in entries if k == "window")
            return CadenceRule(region=parse_region(single["range"]), windows=windows)
        steps = []  # [workflow], the one kind left
        for _, v in entries:
            step_id, _, region = v.partition(" ")
            if not region:
                raise PolicyError(f"workflow step needs `id region`: {v!r}")
            steps.append(WorkflowStep(step_id, parse_region(region.strip())))
        return Workflow(tuple(steps))
    except KeyError as exc:
        raise PolicyError(f"[{kind}] stanza is missing key {exc.args[0]!r}") from exc
    except (ValueError, ArithmeticError) as exc:
        if isinstance(exc, PolicyError):
            raise
        raise PolicyError(f"bad [{kind}] stanza: {exc}") from exc


def parse_policy_file(text: str) -> ControlPolicy:
    """Parse the policy configuration format:

        workbook = wb-1

        [region]
        range = Sheet1!B2:D10
        mode = LOCKED
        ticket_required = false

        [cadence]
        range = Sheet1!A1:Z100
        window = Mon-Fri 9-17

        [bounds]
        range = Sheet1!B2:B10
        min = 0
        max = 100

        [trend]
        cell = Sheet1!B2
        window = 20
        z_threshold = 3.0

        [workflow]
        step = load Sheet1!A1:A10
        step = publish Sheet1!C1:C10

    One rule per stanza; stanza kinds may repeat, but within a stanza only
    `[cadence] window` and `[workflow] step` may.  Regions are written
    `Sheet1!A1:D20`, hours are whole UTC hours with the end exclusive.
    """
    workbook_id: str | None = None
    stanzas: list[tuple[str, list[tuple[str, str]]]] = []
    current: list[tuple[str, str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = []
            stanzas.append((line[1:-1].strip().lower(), current))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PolicyError(f"line {lineno}: expected `key = value` or `[stanza]`")
        key, value = key.strip().lower(), value.strip()
        if current is None:
            if key != "workbook":
                raise PolicyError(f"line {lineno}: expected `workbook = <id>` before stanzas")
            if workbook_id is not None:
                raise PolicyError(f"line {lineno}: `workbook` is declared twice")
            workbook_id = value
        else:
            current.append((key, value))
    if not workbook_id:
        raise PolicyError("policy file must declare `workbook = <id>`")

    rules: dict[str, list] = {kind: [] for kind in _STANZA_KEYS}
    for kind, entries in stanzas:
        rule = _build_rule(kind, entries)
        if kind == "workflow" and rules["workflow"]:
            raise PolicyError("at most one [workflow] stanza is allowed")
        rules[kind].append(rule)
    return ControlPolicy(
        workbook_id=workbook_id,
        region_rules=tuple(rules["region"]),
        cadence_rules=tuple(rules["cadence"]),
        bound_rules=tuple(rules["bounds"]),
        trend_rules=tuple(rules["trend"]),
        workflow=rules["workflow"][0] if rules["workflow"] else None,
    )
