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

from fractions import Fraction
from typing import TYPE_CHECKING

from .diffing import volatility_ratios
from .findings import CRITICAL, RULE_SEVERITY, Finding, finding_line
from .grid import Formula, datetime, format_instant, record
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
    change set, each over the formula and cell counts of its before
    snapshot: counted in the first stored snapshot, then carried through
    each change set's events.  They are zero with fewer than two ingests."""
    ingests = ledger.ingests()
    actors = {actor for _, _, actor in ingests}
    persistence = 0.0
    if len(ingests) >= 2:
        span = ingests[-1][1] - ingests[0][1]
        persistence = span.total_seconds() / 86400.0
    structural: list[Fraction] = []
    data: list[Fraction] = []
    changesets = ledger.changesets()  # each replayed and checked
    cells = ledger.load_snapshot(ingests[0][0]).cells.values() if changesets else ()
    formula_count, cell_count = sum(isinstance(c, Formula) for c in cells), len(cells)
    for changes in changesets:
        metrics = volatility_ratios(changes, formula_count, cell_count)
        structural.append(metrics.structural_volatility)
        data.append(metrics.data_volatility)
        for event in changes.events:
            formula_count += isinstance(event.after, Formula) - isinstance(event.before, Formula)
            cell_count += (event.after is not None) - (event.before is not None)
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
    return _classify(metrics, cfg or ClassifierConfig())[0]


def _classify(metrics: UsageMetrics, cfg: ClassifierConfig) -> tuple[str, tuple[str, ...]]:
    """The classification and the rationale lines behind it, from one
    evaluation of the rubric's three predicates."""
    sv = metrics.mean_structural_volatility
    handover = metrics.distinct_actors >= cfg.operational_actor_min
    stable = metrics.persistence_days >= cfg.persistence_days_min and sv <= cfg.operational_max_structural
    revised = metrics.distinct_actors <= 1 and sv >= cfg.modeling_min_structural
    if handover:
        lines = [f"{metrics.distinct_actors} distinct actors >= {cfg.operational_actor_min}: handover between individuals"]
    else:
        lines = [f"{metrics.distinct_actors} distinct actor(s): no multi-user handover observed"]
    if stable:
        lines.append(
            f"persisted {metrics.persistence_days:.1f} days with stable structure"
            f" (volatility {float(sv):.4f} <= {float(cfg.operational_max_structural):.4f})"
        )
    if revised:
        lines.append(
            f"structural volatility {float(sv):.4f} >= {float(cfg.modeling_min_structural):.4f}: heavy revision by one author"
        )
    classification = OPERATIONAL if handover or stable else MODELING if revised else INDETERMINATE
    lines.append(f"classification: {classification}")
    return classification, tuple(lines)


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
    classification, rationale = _classify(metrics, cfg or ClassifierConfig())
    return RiskProfile(
        metrics=metrics,
        classification=classification,
        risk_score=risk_score(metrics, findings),
        rationale=rationale,
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
    withheld = UsageMetrics(0, 0.0, Fraction(0), Fraction(0), 0)  # a failed chain reads no usage metric
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
            metrics=withheld,
            classification=INDETERMINATE,
            risk_score=risk_score(withheld, findings),
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


def _json_scalar(value, quote) -> str:
    """One scalar exactly as json.dumps writes it; quote is its string
    encoder, encode_basestring_ascii."""
    if isinstance(value, str):
        return quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (float("inf"), float("-inf")):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"not a JSON scalar: {value!r}")


def _json_array(items: list[str], pad: str) -> list[str]:
    """The pieces of a JSON array of rendered items, laid out as
    json.dumps(indent=2) lays it out with its closing bracket at pad."""
    if not items:
        return ["[]"]
    sep = ",\n  " + pad
    pieces = ["[\n  " + pad]
    for item in items:
        pieces += (item, sep)
    pieces[-1] = "\n" + pad + "]"
    return pieces


def _json_object(fields: dict[str, str | list[str]], pad: str) -> list[str]:
    """The pieces of a non-empty JSON object in sorted key order, laid out as
    json.dumps(indent=2, sort_keys=True) lays it out with its closing
    brace at pad.  A value is rendered text or the pieces of one; the
    keys are plain ASCII names, which JSON writes as they are."""
    pieces = []
    sep = "{"
    for key, value in sorted(fields.items()):
        pieces.append(f'{sep}\n  {pad}"{key}": ')
        pieces += [value] if isinstance(value, str) else value
        sep = ","
    pieces.append("\n" + pad + "}")
    return pieces


def _finding_json(finding: Finding, pad: str, quote) -> str:
    """One finding's JSON object as one string, its closing brace at pad."""
    i = "\n  " + pad
    return (
        f'{{{i}"expected": {_json_scalar(finding.expected, quote)},'
        f'{i}"location": {quote(str(finding.location))},'
        f'{i}"message": {_json_scalar(finding.message, quote)},'
        f'{i}"observed": {_json_scalar(finding.observed, quote)},'
        f'{i}"rule_id": {quote(finding.rule_id)},'
        f'{i}"severity": {quote(finding.severity)}\n{pad}}}'
    )


def render_report_json(report: ComplianceReport) -> str:
    """The report as `json.dumps(document, indent=2, sort_keys=True)` plus
    a newline would write it, written directly.  Each finding's object is
    built once per depth it appears at, and the pieces are joined once:
    json.dumps with indent runs the pure-Python encoder, whose small
    chunks peak at several times the output."""
    # only here: a text report or a profile does not need it.  json.encoder
    # takes its string encoder from the C module _json, and importing it
    # there skips loading the json package's decoder and scanner
    try:
        from _json import encode_basestring_ascii as quote
    except ImportError:  # an interpreter without the C accelerator
        from json.encoder import encode_basestring_ascii as quote

    built: dict[int, str] = {}  # id(finding) -> its object in a section list

    def in_section(finding: Finding) -> str:
        text = built.get(id(finding))
        if text is None:
            text = built[id(finding)] = _finding_json(finding, "      ", quote)
        return text

    m = report.profile.metrics
    cfg = report.classifier
    pieces = _json_object({
        "workbook_id": quote(report.workbook_id),
        "period": _json_object({
            "start": quote(format_instant(report.period_start)),
            "end": quote(format_instant(report.period_end)),
        }, "  "),
        "generated_at": quote(format_instant(report.generated_at)),
        "ledger_records": _json_scalar(report.record_count, quote),
        "chain_verified": _json_scalar(report.chain_verified, quote),
        "usage": _json_object({
            "ingest_count": _json_scalar(m.ingest_count, quote),
            "distinct_actors": _json_scalar(m.distinct_actors, quote),
            "persistence_days": _json_scalar(round(m.persistence_days, 6), quote),
            "mean_structural_volatility": _json_scalar(round(float(m.mean_structural_volatility), 6), quote),
            "mean_data_volatility": _json_scalar(round(float(m.mean_data_volatility), 6), quote),
            "classification": quote(report.profile.classification),
            "risk_score": _json_scalar(round(report.profile.risk_score, 2), quote),
            "rationale": _json_array([quote(line) for line in report.profile.rationale], "    "),
        }, "  "),
        "thresholds": _json_object({
            "operational_actor_min": _json_scalar(cfg.operational_actor_min, quote),
            "persistence_days_min": _json_scalar(cfg.persistence_days_min, quote),
            "operational_max_structural": _json_scalar(round(float(cfg.operational_max_structural), 6), quote),
            "modeling_min_structural": _json_scalar(round(float(cfg.modeling_min_structural), 6), quote),
        }, "  "),
        "findings_by_section": _json_object({
            str(section): _json_array([in_section(f) for f in report.findings_by_sox[section]], "    ")
            for section in SOX_SECTIONS
        }, "  "),
        "material_weaknesses": _json_array(
            [_finding_json(f, "    ", quote) for f in report.material_weaknesses], "  "
        ),
    }, "")
    pieces.append("\n")
    return "".join(pieces)
