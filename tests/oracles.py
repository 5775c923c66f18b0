"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths (and hashlib, for
the digest checks) so that each assertion is a genuine cross-check:

* a from-scratch SHA-256 whose round constants are derived from prime
  square/cube roots rather than typed in
* exact trend statistics via Fraction arithmetic and high-precision
  Decimal square roots
* a step-by-step task-order simulation
* a character-by-character unescape, the reference for grid._unescape
* brute-force ledger history: one stored snapshot re-read per ingest or
  per change set, and consecutive stored snapshots diffed by address,
  the reference for the replayed change-set history
* a static audit that parses and checks every formula cell on its own,
  the reference for the audit's one parse per copy form
* ledger payload codecs that escape and split each field by hand, the
  reference for the ledger's one row codec
* a diff that keys both snapshots' cells by address and compares content
  objects, the reference for the merge over cell lines
* a JSON report built as one document and written by json.dumps, the
  reference for the report's direct emitter
"""

from __future__ import annotations

import struct
from decimal import Decimal, localcontext
from fractions import Fraction

# --- SHA-256 from the definition ---------------------------------------------


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def _icbrt(n: int) -> int:
    lo, hi = 0, 1
    while hi**3 <= n:
        hi <<= 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**3 <= n:
            lo = mid
        else:
            hi = mid
    return lo


def _isqrt(n: int) -> int:
    import math

    return math.isqrt(n)


# H: fractional bits of sqrt of the first 8 primes; K: of cbrt of the first 64
_H0 = tuple(_isqrt(p << 64) & 0xFFFFFFFF for p in _first_primes(8))
_K = tuple(_icbrt(p << 96) & 0xFFFFFFFF for p in _first_primes(64))


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & 0xFFFFFFFF


def sha256_hex(data: bytes) -> str:
    h = list(_H0)
    bit_len = len(data) * 8
    data += b"\x80"
    data += b"\x00" * ((56 - len(data) % 64) % 64)
    data += struct.pack(">Q", bit_len)
    for start in range(0, len(data), 64):
        w = list(struct.unpack(">16I", data[start : start + 64]))
        for i in range(16, 64):
            s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
            s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & 0xFFFFFFFF)
        a, b, c, d, e, f, g, hh = h
        for i in range(64):
            s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
            ch = (e & f) ^ (~e & g)
            t1 = (hh + s1 + ch + _K[i] + w[i]) & 0xFFFFFFFF
            s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
            maj = (a & b) ^ (a & c) ^ (b & c)
            t2 = (s0 + maj) & 0xFFFFFFFF
            hh, g, f, e, d, c, b, a = g, f, e, (d + t1) & 0xFFFFFFFF, c, b, a, (t1 + t2) & 0xFFFFFFFF
        h = [(x + y) & 0xFFFFFFFF for x, y in zip(h, (a, b, c, d, e, f, g, hh))]
    return "".join(f"{x:08x}" for x in h)


# --- exact trend statistics ---------------------------------------------------


def exact_trend_stats(history, new_value) -> tuple[Decimal, Decimal, Decimal]:
    """(mean, sample stddev, z) computed exactly in Fraction space with a
    50-digit Decimal square root."""
    values = [Fraction(v) for v in history]
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    with localcontext() as ctx:
        ctx.prec = 50
        mean_d = Decimal(mean.numerator) / Decimal(mean.denominator)
        sd = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
        new = Fraction(new_value)
        new_d = Decimal(new.numerator) / Decimal(new.denominator)
        z = (new_d - mean_d) / sd if sd != 0 else Decimal(0)
    return mean_d, sd, z


def relative_close(actual: float, expected: Decimal, tolerance: Decimal = Decimal("1e-9")) -> bool:
    scale = max(abs(expected), Decimal(1))
    return abs(Decimal(actual) - expected) <= tolerance * scale


# --- task-order simulation ----------------------------------------------------


# --- escapes one character at a time -----------------------------------------


def unescape_by_char(text: str) -> str:
    table = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in table:
                raise ValueError(f"bad escape in {text!r}")
            out.append(table[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def simulate_task_order(step_count: int, touch_sequence) -> list[bool]:
    """Expected per-session violation flags: a session touching step k
    violates when any of 0..k-1 has not yet been touched this period."""
    touched: set[int] = set()
    flags = []
    for k in touch_sequence:
        flags.append(any(j not in touched for j in range(k)))
        touched.add(k)
    return flags


# --- ledger history by rescanning every stored snapshot ------------------------


def series_for_cell_by_rescan(ledger, address):
    """One point per ingest whose stored snapshot holds a non-error value
    at the address, read by loading that snapshot."""
    from gridaudit.grid import ErrorValue, content_value
    from gridaudit.ledger import CellSeries

    points = []
    for digest, at, _actor in ledger.ingests():
        cell = ledger.load_snapshot(digest).cells.get(address)
        if cell is None:
            continue
        value = content_value(cell)
        if value is None or isinstance(value, ErrorValue):
            continue
        points.append((at, value))
    return CellSeries(address, tuple(points))


def usage_metrics_by_rescan(ledger):
    """Usage metrics with each change set's before-snapshot loaded from
    the object store by its from_digest."""
    from gridaudit.assess import UsageMetrics
    from gridaudit.diffing import volatility_metrics

    ingests = ledger.ingests()
    persistence = 0.0
    if len(ingests) >= 2:
        persistence = (ingests[-1][1] - ingests[0][1]).total_seconds() / 86400.0
    structural, data = [], []
    for changes in ledger.changesets():
        metrics = volatility_metrics(changes, ledger.load_snapshot(changes.from_digest))
        structural.append(metrics.structural_volatility)
        data.append(metrics.data_volatility)
    return UsageMetrics(
        distinct_actors=len({actor for _, _, actor in ingests}),
        persistence_days=persistence,
        mean_structural_volatility=sum(structural, Fraction(0)) / len(structural) if structural else Fraction(0),
        mean_data_volatility=sum(data, Fraction(0)) / len(data) if data else Fraction(0),
        ingest_count=len(ingests),
    )


def change_history_by_rescan(ledger, address):
    """Every event at the address, oldest first, from diffing each pair of
    consecutive ingested snapshots, each loaded by its digest, by address
    (diff_snapshots_by_address); attributed to the later ingest."""
    from gridaudit.ledger import AttributedChange

    ingests = ledger.ingests()
    history = []
    for (before, _, _), (after, at, actor) in zip(ingests, ingests[1:]):
        changes = diff_snapshots_by_address(ledger.load_snapshot(before), ledger.load_snapshot(after))
        history += [AttributedChange(event, actor, at) for event in changes.events if event.address == address]
    return history


# --- static audit, one parse per cell ------------------------------------------


def audit_by_cell(snapshot, cfg=None):
    """audit_workbook's findings, with every formula cell parsed, rendered
    in R1C1 form and checked on its own: no copy key and no cache.  Cells
    are visited in address order, and a form is kept as the first of them
    whose copy form (R1C1 with sheet names lowered) agrees with it writes
    it."""
    from gridaudit.audit import AuditConfig, _copy_findings, _tree_findings
    from gridaudit.findings import Finding, make_finding
    from gridaudit.formula import FormulaError, copy_form, normalize_relative, parse_formula
    from gridaudit.grid import CellAddress, ErrorValue, Formula, content_value

    cfg = cfg or AuditConfig()
    findings, forms, printed = [], {}, {}
    for address in sorted(snapshot.cells, key=CellAddress.sort_key):
        cell = snapshot.cells[address]
        value = content_value(cell)
        if isinstance(value, ErrorValue):
            where = "cached" if isinstance(cell, Formula) else "literal"
            findings.append(
                make_finding("ERROR_VALUE", address, f"cell holds {where} error value {value.code}", value.code)
            )
        if not isinstance(cell, Formula):
            continue
        try:
            tree = parse_formula(cell.source)
        except FormulaError as exc:
            message = f"formula could not be parsed: {exc}"
            findings.append(make_finding("PARSE_FAILURE", address, message, cell.source))
            forms[address] = f"!unparsed:{cell.source}"
            continue
        forms[address] = printed.setdefault(copy_form(tree, address), normalize_relative(tree, address))
        findings += [make_finding(rule_id, address, *fields) for rule_id, *fields in _tree_findings(tree, cfg)]
    findings += _copy_findings(forms, cfg)
    return sorted(findings, key=Finding.sort_key)


# --- ledger payload codecs, one escape per field ---------------------------------


def serialize_ingest_by_field(digest, timestamp, actor) -> bytes:
    from gridaudit.grid import _escape, format_instant

    return f"{digest}\t{format_instant(timestamp)}\t{_escape(actor)}".encode("utf-8")


def parse_ingest_by_field(payload: bytes):
    from gridaudit.grid import _unescape, parse_instant

    digest, at, actor = payload.decode("utf-8").split("\t")
    return digest, parse_instant(at), _unescape(actor)


def serialize_attest_by_field(text: str) -> bytes:
    from gridaudit.grid import _escape

    return _escape(text).encode("utf-8")


def parse_attest_by_field(payload: bytes) -> str:
    from gridaudit.grid import _unescape

    return _unescape(payload.decode("utf-8"))


def serialize_changeset_by_field(changes) -> bytes:
    from gridaudit.grid import _escape, encode_content, format_instant

    lines = [
        "\t".join(
            [
                "CS1",
                _escape(changes.workbook_id),
                changes.from_digest,
                changes.to_digest,
                format_instant(changes.from_time),
                format_instant(changes.to_time),
                _escape(changes.actor),
            ]
        )
    ]
    for event in changes.events:
        lines.append(
            "\t".join(
                [
                    _escape(event.address.sheet),
                    event.address.a1,
                    event.kind.value,
                    "-" if event.before is None else _escape(encode_content(event.before)),
                    "-" if event.after is None else _escape(encode_content(event.after)),
                ]
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_changeset_by_field(payload: bytes):
    from gridaudit.diffing import ChangeEvent, ChangeKind, ChangeSet
    from gridaudit.grid import CellAddress, _unescape, decode_content, parse_a1, parse_instant

    head_line, *lines = payload.decode("utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    head = head_line.split("\t")
    if len(head) != 7 or head[0] != "CS1":
        raise ValueError(f"bad change set header {head_line!r}")
    events = []
    for line in lines:
        sheet, a1, kind, before, after = line.split("\t")
        row, col = parse_a1(a1)
        events.append(
            ChangeEvent(
                address=CellAddress(_unescape(sheet), row, col),
                kind=ChangeKind(kind),
                before=None if before == "-" else decode_content(_unescape(before)),
                after=None if after == "-" else decode_content(_unescape(after)),
            )
        )
    return ChangeSet(
        workbook_id=_unescape(head[1]),
        from_digest=head[2],
        to_digest=head[3],
        from_time=parse_instant(head[4]),
        to_time=parse_instant(head[5]),
        actor=_unescape(head[6]),
        events=tuple(events),
    )


def serialize_findings_by_field(findings) -> bytes:
    from gridaudit.grid import _escape

    lines = []
    for f in findings:
        fields = [f.rule_id, f.severity, _escape(str(f.location)), _escape(f.message), _escape(f.observed)]
        if f.expected is not None:
            fields.append(_escape(f.expected))
        lines.append("\t".join(fields))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def parse_findings_by_field(payload: bytes):
    from gridaudit.findings import RULE_SEVERITY, Finding
    from gridaudit.grid import _unescape, parse_location

    findings = []
    for line in payload.decode("utf-8").split("\n"):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) not in (5, 6):
            raise ValueError(f"bad finding line {line!r}")
        if fields[0] not in RULE_SEVERITY:
            raise ValueError(f"unknown rule id {fields[0]!r}")
        findings.append(
            Finding(
                rule_id=fields[0],
                severity=fields[1],
                location=parse_location(_unescape(fields[2])),
                message=_unescape(fields[3]),
                observed=_unescape(fields[4]),
                expected=_unescape(fields[5]) if len(fields) == 6 else None,
            )
        )
    return findings


# --- diff by address, content against content ------------------------------------


def diff_snapshots_by_address(before, after):
    """diff_snapshots' change set, from both cells dicts keyed by address
    and compared content against content: no cell lines."""
    from gridaudit.diffing import ChangeEvent, ChangeKind, ChangeSet, WorkbookMismatch, classify_change
    from gridaudit.grid import CellAddress, snapshot_digest

    if before.workbook_id != after.workbook_id:
        raise WorkbookMismatch(f"cannot diff {before.workbook_id!r} against {after.workbook_id!r}")
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
    return ChangeSet(
        workbook_id=before.workbook_id,
        from_digest=snapshot_digest(before),
        to_digest=snapshot_digest(after),
        from_time=before.timestamp,
        to_time=after.timestamp,
        actor=after.actor,
        events=tuple(events),
    )


# --- JSON report as one document through json.dumps --------------------------


def _finding_dict(finding) -> dict:
    return {
        "rule_id": finding.rule_id,
        "severity": finding.severity,
        "location": str(finding.location),
        "message": finding.message,
        "observed": finding.observed,
        "expected": finding.expected,
    }


def report_json_by_dumps(report) -> str:
    """The JSON report as one document of dicts and lists, written by
    json.dumps(indent=2, sort_keys=True) with a trailing newline."""
    import json

    from gridaudit.assess import SOX_SECTIONS
    from gridaudit.grid import format_instant

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
