"""gridaudit: spreadsheet integrity monitoring.

Audits workbook snapshots for error-prone logic, tracks every cell-level
change between snapshots in a tamper-evident hash-chained ledger, enforces
declared control policies (region lockdown, cadence, bounds, KPI trends,
task order) and renders compliance reports mapped onto internal-control
sections 103, 302, 304 and 404.
"""

from .audit import AuditConfig, audit_workbook
from .assess import (
    ClassifierConfig,
    ComplianceReport,
    RiskProfile,
    UsageMetrics,
    build_report,
    classify_usage,
    map_finding_to_sox,
    render_report_json,
    render_report_text,
    risk_score,
    usage_metrics,
)
from .controls import (
    ControlPolicy,
    Mode,
    TrendRule,
    Workflow,
    evaluate_policies,
    parse_policy_file,
    trend_deviation,
)
from .diffing import ChangeEvent, ChangeKind, ChangeSet, apply_changes, classify_change, diff_snapshots, volatility_metrics
from .findings import Finding
from .formula import normalize_relative, parse_formula, print_formula, references_of
from .grid import (
    CellAddress,
    Region,
    Snapshot,
    parse_snapshot_file,
    snapshot_digest,
    write_snapshot_file,
)
from .ledger import Ledger

__all__ = [
    "AuditConfig",
    "CellAddress",
    "ChangeEvent",
    "ChangeKind",
    "ChangeSet",
    "ClassifierConfig",
    "ComplianceReport",
    "ControlPolicy",
    "Finding",
    "Ledger",
    "Mode",
    "Region",
    "RiskProfile",
    "Snapshot",
    "TrendRule",
    "UsageMetrics",
    "Workflow",
    "apply_changes",
    "audit_workbook",
    "build_report",
    "classify_change",
    "classify_usage",
    "diff_snapshots",
    "evaluate_policies",
    "map_finding_to_sox",
    "normalize_relative",
    "parse_formula",
    "parse_policy_file",
    "parse_snapshot_file",
    "print_formula",
    "references_of",
    "render_report_json",
    "render_report_text",
    "risk_score",
    "snapshot_digest",
    "trend_deviation",
    "usage_metrics",
    "volatility_metrics",
    "write_snapshot_file",
]
