"""Workbook usage classification, risk scoring and compliance reporting.

Usage metrics aggregate the full ledger: who touched the workbook, how
long it has lived, and how much structure versus data moves between
snapshots.  The classifier separates long-lived multi-user operational
workbooks from volatile single-author modeling workbooks; its thresholds
are configurable and echoed in report output so reviewers can audit them.

Reports collect the findings recorded during a period, map each finding
onto the internal-control sections it implicates (103, 302, 304, 404),
verify the ledger hash chain, and render deterministically as plain text
or JSON.
"""

from __future__ import annotations

from datetime import datetime
from fractions import Fraction
from typing import TYPE_CHECKING

from .diffing import volatility_metrics
from .findings import CRITICAL, RULE_SEVERITY, Finding, finding_line
from .grid import format_instant, record
from .ledger import Ledger

if TYPE_CHECKING:
    from .controls import ControlPolicy

SOX_SECTIONS = (103, 302, 304, 404)

_SECTION_TITLES = {
    103: "auditing and internal-control evaluation",
    302: "quarterly certification and change disclosure",
    304: "restatement-risk exposure",
    404: "management assessment of internal controls",
}

# rule ids that describe a change to formula logic
_LOGIC_CHANGE_RULES = frozenset({"UNATTESTED_LOGIC_CHANGE", "DATA_ONLY_LOGIC_CHANGE"})
# rule ids about the values feeding reported figures
_REPORTED_FIGURE_RULES = frozenset(
    {"BOUND_VIOLATION", "TYPE_VIOLATION", "TREND_DEVIATION", "ERROR_VALUE"}
)

MODELING = "Modeling"
OPERATIONAL = "Operational"
INDETERMINATE = "Indeterminate"


class UnknownRule(ValueError):
    pass


class EmptyLedger(ValueError):
    pass


@record
class UsageMetrics:
    distinct_actors: int
    persistence_days: float
    mean_structural_volatility: Fraction
    mean_data_volatility: Fraction
    ingest_count: int


@record
class ClassifierConfig:
    operational_actor_min: int = 2
    persistence_days_min: float = 30.0
    operational_max_structural: Fraction = Fraction(1, 10)
    modeling_min_structural: Fraction = Fraction(1, 4)


@record
class RiskProfile:
    metrics: UsageMetrics
    classification: str
    risk_score: float
    rationale: tuple[str, ...]


@record
class ComplianceReport:
    workbook_id: str
    period_start: datetime
    period_end: datetime
    generated_at: datetime
    record_count: int
    chain_verified: bool
    findings_by_sox: dict[int, list[Finding]]
    material_weaknesses: list[Finding]
    profile: RiskProfile
    classifier: ClassifierConfig
    policy: ControlPolicy | None


def usage_metrics(ledger: Ledger) -> UsageMetrics:
    """Aggregate over the whole ledger.  Volatility means cover every
    consecutive snapshot pair (replayed from the first stored snapshot)
    and are zero with fewer than two ingests."""
    ingests = ledger.ingests()
    actors = {actor for _, _, actor in ingests}
    persistence = 0.0
    if len(ingests) >= 2:
        span = ingests[-1][1] - ingests[0][1]
        persistence = span.total_seconds() / 86400.0
    structural: list[Fraction] = []
    data: list[Fraction] = []
    snapshots = ledger.snapshots()
    before = next(snapshots, None)
    for changes in ledger.changesets():
        metrics = volatility_metrics(changes, before)
        structural.append(metrics.structural_volatility)
        data.append(metrics.data_volatility)
        before = next(snapshots)  # checks the change set's replay
    return UsageMetrics(
        distinct_actors=len(actors),
        persistence_days=persistence,
        mean_structural_volatility=sum(structural, Fraction(0)) / len(structural) if structural else Fraction(0),
        mean_data_volatility=sum(data, Fraction(0)) / len(data) if data else Fraction(0),
        ingest_count=len(ingests),
    )


def classify_usage(metrics: UsageMetrics, cfg: ClassifierConfig | None = None) -> str:
    """Deterministic rubric: multiple actors, or long persistence with a
    stable structure, reads as operational; a single actor with heavy
    structural revision reads as modeling; anything else is indeterminate."""
    cfg = cfg or ClassifierConfig()
    sv = metrics.mean_structural_volatility
    if metrics.distinct_actors >= cfg.operational_actor_min or (
        metrics.persistence_days >= cfg.persistence_days_min
        and sv <= cfg.operational_max_structural
    ):
        return OPERATIONAL
    if metrics.distinct_actors <= 1 and sv >= cfg.modeling_min_structural:
        return MODELING
    return INDETERMINATE


def classification_rationale(metrics: UsageMetrics, cfg: ClassifierConfig | None = None) -> tuple[str, ...]:
    cfg = cfg or ClassifierConfig()
    sv = metrics.mean_structural_volatility
    lines = []
    if metrics.distinct_actors >= cfg.operational_actor_min:
        lines.append(
            f"{metrics.distinct_actors} distinct actors >= {cfg.operational_actor_min}: handover between individuals"
        )
    else:
        lines.append(f"{metrics.distinct_actors} distinct actor(s): no multi-user handover observed")
    if metrics.persistence_days >= cfg.persistence_days_min and sv <= cfg.operational_max_structural:
        lines.append(
            f"persisted {metrics.persistence_days:.1f} days with stable structure"
            f" (volatility {float(sv):.4f} <= {float(cfg.operational_max_structural):.4f})"
        )
    if metrics.distinct_actors <= 1 and sv >= cfg.modeling_min_structural:
        lines.append(
            f"structural volatility {float(sv):.4f} >= {float(cfg.modeling_min_structural):.4f}: heavy revision by one author"
        )
    lines.append(f"classification: {classify_usage(metrics, cfg)}")
    return tuple(lines)


def risk_score(metrics: UsageMetrics, findings: list[Finding]) -> float:
    """Documented additive weights, clamped to [0, 100] and monotone in
    every input: 15 per distinct actor up to 4, 25 times mean data
    volatility, 10 for persistence past 30 days, 5 per critical finding."""
    critical = sum(1 for f in findings if f.severity == CRITICAL)
    score = (
        15.0 * min(metrics.distinct_actors, 4)
        + 25.0 * float(metrics.mean_data_volatility)
        + (10.0 if metrics.persistence_days >= 30.0 else 0.0)
        + 5.0 * critical
    )
    return max(0.0, min(100.0, score))


def build_profile(ledger: Ledger, findings: list[Finding], cfg: ClassifierConfig | None = None) -> RiskProfile:
    metrics = usage_metrics(ledger)
    return RiskProfile(
        metrics=metrics,
        classification=classify_usage(metrics, cfg),
        risk_score=risk_score(metrics, findings),
        rationale=classification_rationale(metrics, cfg),
    )


def map_finding_to_sox(finding: Finding) -> frozenset[int]:
    """Sections a finding implicates.  Everything lands in 103 and 404
    (control evaluation and assessment).  Logic-change findings add 302
    (significant-change disclosure).  Critical findings about the values
    feeding reported figures add 304 (restatement risk)."""
    if finding.rule_id not in RULE_SEVERITY:
        raise UnknownRule(f"unknown rule id {finding.rule_id!r}")
    sections = {103, 404}
    if finding.rule_id in _LOGIC_CHANGE_RULES:
        sections.add(302)
    if finding.severity == CRITICAL and finding.rule_id in _REPORTED_FIGURE_RULES:
        sections.add(304)
    return frozenset(sections)


def findings_in_period(ledger: Ledger, start: datetime, end: datetime) -> list[Finding]:
    """Findings whose change-set end time falls inside [start, end].  An
    ingest stamps its FINDINGS record with that end time."""
    return [
        finding
        for record, findings in ledger.findings_records()
        if start <= record.recorded_at <= end
        for finding in findings
    ]


def build_report(
    ledger: Ledger,
    policy: ControlPolicy | None,
    period: tuple[datetime, datetime],
    generated_at: datetime,
    classifier: ClassifierConfig | None = None,
) -> ComplianceReport:
    start, end = period
    if start >= end:
        raise ValueError("period start must precede period end")
    chain = ledger.verify_chain()
    if not chain.record_count:
        raise EmptyLedger("cannot report on an empty ledger")
    classifier = classifier or ClassifierConfig()
    findings = findings_in_period(ledger, start, end) if chain.ok else []
    if not chain.ok:
        findings.append(
            Finding(
                rule_id="LEDGER_TAMPER",
                severity=CRITICAL,
                location=f"record {chain.first_bad_seq}",
                message="ledger hash chain fails verification; record history is not trustworthy",
                observed=f"first bad record seq {chain.first_bad_seq}",
                expected="intact hash chain",
            )
        )
    by_section: dict[int, list[Finding]] = {s: [] for s in SOX_SECTIONS}
    for finding in findings:
        for section in sorted(map_finding_to_sox(finding)):
            by_section[section].append(finding)
    workbook = ledger.workbook_id if chain.ok else None
    return ComplianceReport(
        workbook_id=workbook or (policy.workbook_id if policy else "unknown"),
        period_start=start,
        period_end=end,
        generated_at=generated_at,
        record_count=chain.record_count,
        chain_verified=chain.ok,
        findings_by_sox=by_section,
        material_weaknesses=[f for f in findings if f.severity == CRITICAL],
        profile=build_profile(ledger, findings, classifier) if chain.ok else RiskProfile(
            metrics=UsageMetrics(0, 0.0, Fraction(0), Fraction(0), 0),
            classification=INDETERMINATE,
            risk_score=min(100.0, 5.0 * sum(1 for f in findings if f.severity == CRITICAL)),
            rationale=("ledger failed verification; usage metrics withheld",),
        ),
        classifier=classifier,
        policy=policy,
    )


def _policy_lines(policy: ControlPolicy | None) -> list[str]:
    if policy is None:
        return ["  none declared"]
    lines = []
    for rule in policy.region_rules:
        ticket = "yes" if rule.ticket_required else "no"
        lines.append(f"  region {rule.region} mode={rule.mode.name} ticket_required={ticket}")
    for rule in policy.cadence_rules:
        windows = "; ".join(str(w) for w in rule.windows)
        lines.append(f"  cadence {rule.region} windows: {windows}")
    for rule in policy.bound_rules:
        lines.append(f"  bounds {rule.region} {rule.bounds_text()}")
    for rule in policy.trend_rules:
        lines.append(
            f"  trend {rule.address} window={rule.window} z_threshold={rule.z_threshold:g} min_points={rule.min_points}"
        )
    if policy.workflow is not None:
        steps = " -> ".join(s.step_id for s in policy.workflow.steps)
        lines.append(f"  workflow {steps} (resets at attestation)")
    return lines or ["  none declared"]


def render_report_text(report: ComplianceReport) -> str:
    m = report.profile.metrics
    lines = [
        "SPREADSHEET INTEGRITY COMPLIANCE REPORT",
        f"workbook:       {report.workbook_id}",
        f"period:         {format_instant(report.period_start)} .. {format_instant(report.period_end)}",
        f"generated:      {format_instant(report.generated_at)}",
        f"ledger records: {report.record_count}",
        f"chain verified: {'yes' if report.chain_verified else 'NO'}",
        "",
        "USAGE PROFILE",
        f"  ingests:                    {m.ingest_count}",
        f"  distinct actors:            {m.distinct_actors}",
        f"  persistence days:           {m.persistence_days:.4f}",
        f"  mean structural volatility: {float(m.mean_structural_volatility):.4f}",
        f"  mean data volatility:       {float(m.mean_data_volatility):.4f}",
        f"  classification:             {report.profile.classification}",
        f"  risk score:                 {report.profile.risk_score:.1f}",
        "  thresholds:                 "
        f"actors >= {report.classifier.operational_actor_min}; "
        f"persistence >= {report.classifier.persistence_days_min:g} days "
        f"with structural <= {float(report.classifier.operational_max_structural):.4f}; "
        f"modeling structural >= {float(report.classifier.modeling_min_structural):.4f}",
        "  rationale:",
    ]
    lines.extend(f"    - {reason}" for reason in report.profile.rationale)
    lines.append("")
    lines.append("DECLARED CONTROLS")
    lines.extend(_policy_lines(report.policy))
    for section in SOX_SECTIONS:
        lines.append("")
        lines.append(f"SECTION {section}: {_SECTION_TITLES[section]}")
        section_findings = report.findings_by_sox[section]
        if section_findings:
            lines.extend(f"  {finding_line(f)}" for f in section_findings)
        else:
            lines.append("  no findings")
    lines.append("")
    lines.append("MATERIAL WEAKNESSES")
    if report.material_weaknesses:
        lines.extend(f"  {finding_line(f)}" for f in report.material_weaknesses)
    else:
        lines.append("  none")
    lines.append("")
    lines.append("NOTES")
    lines.append("  Findings carry severity only; nothing here asserts intent or labels fraud.")
    lines.append("  Restatement-risk flags are heuristics, not legal determinations.")
    lines.append("  Classification thresholds are configurable and recorded above.")
    return "\n".join(lines) + "\n"


def _finding_dict(finding: Finding) -> dict:
    return {
        "rule_id": finding.rule_id,
        "severity": finding.severity,
        "location": str(finding.location),
        "message": finding.message,
        "observed": finding.observed,
        "expected": finding.expected,
    }


def render_report_json(report: ComplianceReport) -> str:
    import json  # only here: a text report or a profile does not need it

    m = report.profile.metrics
    doc = {
        "workbook_id": report.workbook_id,
        "period": {
            "start": format_instant(report.period_start),
            "end": format_instant(report.period_end),
        },
        "generated_at": format_instant(report.generated_at),
        "ledger_records": report.record_count,
        "chain_verified": report.chain_verified,
        "usage": {
            "ingest_count": m.ingest_count,
            "distinct_actors": m.distinct_actors,
            "persistence_days": round(m.persistence_days, 6),
            "mean_structural_volatility": round(float(m.mean_structural_volatility), 6),
            "mean_data_volatility": round(float(m.mean_data_volatility), 6),
            "classification": report.profile.classification,
            "risk_score": round(report.profile.risk_score, 2),
            "rationale": list(report.profile.rationale),
        },
        "thresholds": {
            "operational_actor_min": report.classifier.operational_actor_min,
            "persistence_days_min": report.classifier.persistence_days_min,
            "operational_max_structural": round(float(report.classifier.operational_max_structural), 6),
            "modeling_min_structural": round(float(report.classifier.modeling_min_structural), 6),
        },
        "findings_by_section": {
            str(section): [_finding_dict(f) for f in report.findings_by_sox[section]]
            for section in SOX_SECTIONS
        },
        "material_weaknesses": [_finding_dict(f) for f in report.material_weaknesses],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
