"""Static audit of one snapshot for error-prone logic.

`audit_workbook` is the only pass over a snapshot.  It visits every cell
once, in address order: it records error values and reads each
formula's copy key (`formula.copy_key`).  It parses each distinct copy
form once, renders its copy form (`formula.copy_form`, host-relative
R1C1 with sheet names lowered) and checks that one tree for deep IF
nesting and buried numeric constants; copies with the same key reuse
those results.  A form prints as the first cell of that form by address
writes it, so the findings depend on the cells alone, not on the order
they come in.  Finally it compares each formula's form with the
majority form of its copy runs across all sheets.

Rules:

* COPY_INCONSISTENT: within each maximal horizontal and vertical run of
  contiguous formula cells, cells whose R1C1 form deviates from a
  qualified majority form
* DEEP_NESTING: IF nesting beyond a threshold
* EMBEDDED_CONSTANT: numeric constants buried inside formula logic
* ERROR_VALUE: literal or cached error values
* PARSE_FAILURE: formulas that do not parse, so one bad cell cannot
  abort a workbook audit

The `detect_*` functions are views of that pass: each keeps one rule's
findings.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal
from fractions import Fraction

from .findings import Finding, make_finding
from .formula import (
    Call,
    FormulaAst,
    FormulaError,
    NumberLit,
    Unary,
    copy_form,
    copy_key,
    fold,
    normalize_relative,
    parse_formula,
)
from .grid import (
    CellAddress,
    ErrorValue,
    Formula,
    Snapshot,
    canonical_decimal,
    content_value,
    record,
)

DEFAULT_CONSTANT_WHITELIST = frozenset(
    {Decimal(0), Decimal(1), Decimal(-1), Decimal(100)}
)


@record
class AuditConfig:
    if_depth_threshold: int = 3
    min_run_length: int = 3
    majority_fraction: Fraction = Fraction(2, 3)
    constant_whitelist: frozenset[Decimal] = DEFAULT_CONSTANT_WHITELIST

    def __post_init__(self):
        if self.if_depth_threshold < 1:
            raise ValueError("if_depth_threshold must be >= 1")
        if self.min_run_length < 3:
            raise ValueError("min_run_length must be >= 3")
        if not Fraction(1, 2) < self.majority_fraction <= 1:
            raise ValueError("majority_fraction must be in (1/2, 1]")


class ConfigError(ValueError):
    pass


def load_audit_config(text: str) -> AuditConfig:
    """Parse a `key = value` config file; absent keys keep defaults and a
    key may be given once."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: repeats key {key!r}")
        try:
            if key == "if_depth_threshold" or key == "min_run_length":
                values[key] = int(value)
            elif key == "majority_fraction":
                values[key] = Fraction(value)
            elif key == "constant_whitelist":
                constants = [Decimal(part.strip()) for part in value.split(",") if part.strip()]
                if not all(c.is_finite() for c in constants):
                    raise ConfigError(f"line {lineno}: constant_whitelist takes finite numbers only")
                values[key] = frozenset(constants)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except (ValueError, ArithmeticError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    try:
        return AuditConfig(**values)  # type: ignore[arg-type]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _runs(positions: list[int], min_len: int) -> list[list[int]]:
    """Maximal runs of consecutive integers, keeping those >= min_len."""
    runs: list[list[int]] = []
    current: list[int] = []
    for p in sorted(positions):
        if current and p == current[-1] + 1:
            current.append(p)
        else:
            if len(current) >= min_len:
                runs.append(current)
            current = [p]
    if len(current) >= min_len:
        runs.append(current)
    return runs


def _run_findings(
    cells: list[CellAddress], forms: dict[CellAddress, str], cfg: AuditConfig
) -> list[Finding]:
    counts = Counter(forms[a] for a in cells)
    (top_form, top_count), *rest = counts.most_common()
    if rest and rest[0][1] == top_count:
        return []  # tie: no expected form exists
    if Fraction(top_count, len(cells)) < cfg.majority_fraction:
        return []
    return [
        make_finding(
            "COPY_INCONSISTENT",
            address,
            f"formula deviates from the majority form of its run ({top_count}/{len(cells)} cells agree)",
            observed=forms[address],
            expected=top_form,
        )
        for address in cells
        if forms[address] != top_form
    ]


def _copy_findings(forms: dict[CellAddress, str], cfg: AuditConfig) -> list[Finding]:
    """Minority cells in horizontal and vertical copy runs on every sheet.
    A run qualifies when it has at least min_run_length contiguous formula
    cells and a unique majority form with share >= majority_fraction.  A
    cell flagged on both axes yields a single finding (row axis wins)."""
    by_row: dict[tuple[str, int], dict[int, CellAddress]] = {}
    by_col: dict[tuple[str, int], dict[int, CellAddress]] = {}
    for a in forms:
        by_row.setdefault((a.sheet.lower(), a.row), {})[a.col] = a
        by_col.setdefault((a.sheet.lower(), a.col), {})[a.row] = a
    found: dict[CellAddress, Finding] = {}
    for groups in (by_row, by_col):
        for index in groups.values():
            for run in _runs(list(index), cfg.min_run_length):
                for finding in _run_findings([index[p] for p in run], forms, cfg):
                    found.setdefault(finding.location, finding)
    return list(found.values())


def if_nesting_depth(node: FormulaAst) -> int:
    """Maximum depth of IF calls nested within IF calls, counting self."""

    def combine(node: FormulaAst, depths) -> int:
        inner = max(depths, default=0)
        return inner + 1 if isinstance(node, Call) and node.name == "IF" else inner

    return fold(node, combine)


def _embedded_constants(node: FormulaAst) -> list[Decimal]:
    """Numeric literals inside a tree; a literal directly under unary minus
    counts once, with its sign."""

    def combine(node: FormulaAst, parts) -> list[Decimal]:
        if isinstance(node, NumberLit):
            return [node.value]
        if isinstance(node, Unary) and node.op == "neg" and isinstance(node.child, NumberLit):
            return [-node.child.value]
        found: list[Decimal] = []
        for part in parts:
            found += part
        return found

    return fold(node, combine)


def _tree_findings(tree: FormulaAst, cfg: AuditConfig) -> list[tuple[str, str, str, str | None]]:
    """(rule id, message, observed, expected) of the IF-nesting and
    embedded-constant findings for one parsed formula; none depends on the
    host cell.  A bare literal cell (`=42`, `=-42`) is data, not buried
    logic, so its constant passes."""
    findings = []
    depth = if_nesting_depth(tree)
    if depth > cfg.if_depth_threshold:
        findings.append((
            "DEEP_NESTING",
            f"IF nesting depth {depth} exceeds threshold {cfg.if_depth_threshold}",
            str(depth),
            f"<= {cfg.if_depth_threshold}",
        ))
    bare = tree.child if isinstance(tree, Unary) and tree.op == "neg" else tree
    if isinstance(bare, NumberLit):
        return findings
    offenders = [c for c in _embedded_constants(tree) if c not in cfg.constant_whitelist]
    if offenders:
        rendered = ", ".join(canonical_decimal(c) for c in offenders)
        findings.append((
            "EMBEDDED_CONSTANT",
            f"formula embeds constant(s) {rendered} outside the whitelist",
            rendered,
            None,
        ))
    return findings


def audit_workbook(snapshot: Snapshot, cfg: AuditConfig | None = None) -> list[Finding]:
    """Run every static check in one pass over the cells and return
    findings ordered by (sheet, row, col, rule id)."""
    cfg = cfg or AuditConfig()
    findings: list[Finding] = []
    forms: dict[CellAddress, str] = {}
    # copy key -> (printed form, tree findings), so each copy form is parsed once
    by_key: dict[tuple, tuple[str, list[tuple]]] = {}
    # copy form -> that form as the first cell of it by address writes it
    printed: dict[str, str] = {}
    for address in sorted(snapshot.cells, key=CellAddress.sort_key):
        cell = snapshot.cells[address]
        value = content_value(cell)
        if isinstance(value, ErrorValue):
            where = "cached" if isinstance(cell, Formula) else "literal"
            findings.append(
                make_finding(
                    "ERROR_VALUE",
                    address,
                    f"cell holds {where} error value {value.code}",
                    observed=value.code,
                )
            )
        if not isinstance(cell, Formula):
            continue
        try:
            key = copy_key(cell.source, address)
        except FormulaError:
            key = None  # parse_formula raises the same error below, so None is never stored
        if key not in by_key:
            try:
                tree = parse_formula(cell.source)
            except FormulaError as exc:
                # never cached: the message carries this source's own offsets
                message = f"formula could not be parsed: {exc}"
                findings.append(make_finding("PARSE_FAILURE", address, message, observed=cell.source))
                # a broken cell still breaks its run's uniformity rather than splitting it
                forms[address] = f"!unparsed:{cell.source}"
                continue
            form = printed.setdefault(copy_form(tree, address), normalize_relative(tree, address))
            by_key[key] = (form, _tree_findings(tree, cfg))
        forms[address], shapes = by_key[key]
        findings += [make_finding(rule_id, address, *fields) for rule_id, *fields in shapes]
    findings.extend(_copy_findings(forms, cfg))
    return sorted(findings, key=Finding.sort_key)


def detect_copy_inconsistencies(
    snapshot: Snapshot, sheet: str, cfg: AuditConfig | None = None
) -> list[Finding]:
    return [
        f for f in audit_workbook(snapshot, cfg)
        if f.rule_id == "COPY_INCONSISTENT" and f.location.sheet.lower() == sheet.lower()
    ]


def detect_deep_nesting(snapshot: Snapshot, cfg: AuditConfig | None = None) -> list[Finding]:
    return [f for f in audit_workbook(snapshot, cfg) if f.rule_id == "DEEP_NESTING"]


def detect_embedded_constants(snapshot: Snapshot, cfg: AuditConfig | None = None) -> list[Finding]:
    return [f for f in audit_workbook(snapshot, cfg) if f.rule_id == "EMBEDDED_CONSTANT"]


def detect_error_values(snapshot: Snapshot) -> list[Finding]:
    return [f for f in audit_workbook(snapshot) if f.rule_id == "ERROR_VALUE"]


def detect_parse_failures(snapshot: Snapshot) -> list[Finding]:
    return [f for f in audit_workbook(snapshot) if f.rule_id == "PARSE_FAILURE"]
