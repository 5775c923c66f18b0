"""Findings: one detected integrity problem, plus the closed rule registry.

Every finding carries a rule id drawn from the registry below.  Severities
are fixed per rule so downstream consumers (exit codes, material-weakness
lists, restatement-risk mapping) behave deterministically.
"""

from __future__ import annotations


from .grid import CellAddress, Region, record

INFO = "info"
WARNING = "warning"
CRITICAL = "critical"

# rule id -> default severity
RULE_SEVERITY: dict[str, str] = {
    # static logic audit
    "COPY_INCONSISTENT": WARNING,
    "DEEP_NESTING": WARNING,
    "EMBEDDED_CONSTANT": WARNING,
    "ERROR_VALUE": CRITICAL,
    "PARSE_FAILURE": WARNING,
    # control policy evaluation
    "LOCKED_REGION_CHANGE": CRITICAL,
    "DATA_ONLY_LOGIC_CHANGE": CRITICAL,
    "UNATTESTED_LOGIC_CHANGE": CRITICAL,
    "CADENCE_VIOLATION": WARNING,
    "BOUND_VIOLATION": CRITICAL,
    "TYPE_VIOLATION": CRITICAL,
    "TREND_DEVIATION": CRITICAL,
    "TASK_ORDER_VIOLATION": WARNING,
    # ledger integrity
    "LEDGER_TAMPER": CRITICAL,
}


@record
class Finding:
    rule_id: str
    severity: str
    location: CellAddress | Region | str  # str only for workbook-level findings
    message: str
    observed: str
    expected: str | None = None

    def __post_init__(self):
        if self.rule_id not in RULE_SEVERITY:
            raise ValueError(f"unknown rule id {self.rule_id!r}")
        if self.severity not in (INFO, WARNING, CRITICAL):
            raise ValueError(f"unknown severity {self.severity!r}")

    def sort_key(self) -> tuple:
        if isinstance(self.location, str):
            return (self.location.lower(), 0, 0, self.rule_id)
        return (*self.location.sort_key(), self.rule_id)


def make_finding(
    rule_id: str,
    location: CellAddress | Region,
    message: str,
    observed: str,
    expected: str | None = None,
) -> Finding:
    """Finding with the rule's registry severity."""
    return Finding(rule_id, RULE_SEVERITY[rule_id], location, message, observed, expected)


def finding_line(finding: Finding) -> str:
    """severity<TAB>rule_id<TAB>location<TAB>message, as the CLI prints findings."""
    return f"{finding.severity}\t{finding.rule_id}\t{finding.location}\t{finding.message}"


def has_critical(findings: list[Finding]) -> bool:
    return any(f.severity == CRITICAL for f in findings)
