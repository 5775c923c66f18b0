"""gridaudit: spreadsheet integrity monitoring.

Audits workbook snapshots for error-prone logic, tracks every cell-level
change between snapshots in a tamper-evident hash-chained ledger, enforces
declared control policies (region lockdown, cadence, bounds, KPI trends,
task order) and renders compliance reports mapped onto internal-control
sections 103, 302, 304 and 404.

Importing the package loads no submodule: each exported name is looked up
in its submodule on first use, and `formula`, `audit`, `controls`,
`assess`, `ledger`, `diffing` and `trend` compile only when one of their
attributes is first read.  A command compiles only the modules it runs:
`verify` compiles `ledger` but not `diffing`, `audit` compiles no
`ledger`, `profile` compiles no `controls`, and `trend` compiles `trend`
but not `controls`, the policy engine that `check`, `ingest` and `report`
load.  `grid` binds the C `datetime` types from `_datetime`, so no command
runs the pure-Python body of `datetime.py`, and only `ingest` imports
`fcntl`, to lock the ledger.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec


def _lazy_submodule(name: str):
    """Put submodule `name` into sys.modules as a stub whose code runs on
    its first attribute access.

    A module that loads before a stub is needed must bind the stub as a
    module (`from . import audit`) and read its attributes only inside
    functions: any attribute read loads it, and `from .audit import name`
    is one.  An `except` tuple counts as inside a function, because it is
    evaluated only when an exception propagates.  A command handler reads
    the lazy modules it needs before it reads a snapshot, since compiling
    a module with a snapshot in memory raises the command's peak memory.

    The stubs exist because the benchmark shim reads these modules from
    sys.modules right after `import gridaudit.cli`; once a production
    trace replaces the shim, plain function-local imports can replace
    them."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


formula = _lazy_submodule("formula")
audit = _lazy_submodule("audit")
controls = _lazy_submodule("controls")
assess = _lazy_submodule("assess")
ledger = _lazy_submodule("ledger")
diffing = _lazy_submodule("diffing")
trend = _lazy_submodule("trend")

# exported name -> the submodule that defines it
_SUBMODULE_OF = {
    name: module
    for module, names in (
        ("audit", ("AuditConfig", "audit_workbook")),
        ("assess", (
            "ClassifierConfig",
            "ComplianceReport",
            "RiskProfile",
            "UsageMetrics",
            "build_report",
            "classify_usage",
            "map_finding_to_sox",
            "render_report_json",
            "render_report_text",
            "risk_score",
            "usage_metrics",
        )),
        ("controls", (
            "ControlPolicy",
            "Mode",
            "Workflow",
            "evaluate_policies",
            "parse_policy_file",
        )),
        ("diffing", (
            "ChangeEvent",
            "ChangeKind",
            "ChangeSet",
            "apply_changes",
            "classify_change",
            "diff_snapshots",
            "volatility_metrics",
        )),
        ("findings", ("Finding",)),
        ("formula", ("normalize_relative", "parse_formula", "print_formula", "references_of")),
        ("grid", (
            "CellAddress",
            "Region",
            "Snapshot",
            "parse_snapshot_file",
            "snapshot_digest",
            "write_snapshot_file",
        )),
        ("ledger", ("Ledger",)),
        ("trend", ("TrendRule", "trend_deviation")),
    )
    for name in names
}


def __getattr__(name: str):
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_SUBMODULE_OF})


__all__ = sorted(_SUBMODULE_OF)
