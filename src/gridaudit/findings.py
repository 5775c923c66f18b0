"""Findings: one detected integrity problem, plus the closed rule registry.

Every finding carries a rule id drawn from the registry below, and its
severity is the rule's: Finding looks it up when it is built and takes
none from its caller, so downstream consumers (exit codes,
material-weakness lists, restatement-risk mapping) behave
deterministically and no finding holds a severity its rule does not have.
"""

from __future__ import annotations


from .grid import CellAddress, Region, record

WARNING = "warning"
CRITICAL = "critical"

# rule id -> severity
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
    location: CellAddress | Region | str  # str only for workbook-level findings
    message: str
    observed: str
    expected: str | None = None

    def __post_init__(self):
        """Set severity, the rule's, which is not a field: equality, hash
        and repr read the fields it follows from."""
        if self.rule_id not in RULE_SEVERITY:
            raise ValueError(f"unknown rule id {self.rule_id!r}")
        object.__setattr__(self, "severity", RULE_SEVERITY[self.rule_id])

    def sort_key(self) -> tuple:
        if isinstance(self.location, str):
            return (self.location.lower(), 0, 0, self.rule_id)
        return (*self.location.sort_key(), self.rule_id)


def finding_line(finding: Finding) -> str:
    """severity<TAB>rule_id<TAB>location<TAB>message, as the CLI prints findings."""
    return f"{finding.severity}\t{finding.rule_id}\t{finding.location}\t{finding.message}"


def has_critical(findings: list[Finding]) -> bool:
    return any(f.severity == CRITICAL for f in findings)
