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
  per change set, the reference for the replayed change-set history
* a static audit that parses and checks every formula cell on its own,
  the reference for the audit's one parse per copy form
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


# --- static audit, one parse per cell ------------------------------------------


def audit_by_cell(snapshot, cfg=None):
    """audit_workbook's findings, with every formula cell parsed, rendered
    in R1C1 form and checked on its own: no copy key and no cache."""
    from gridaudit.audit import AuditConfig, _copy_findings, _tree_findings
    from gridaudit.findings import Finding, make_finding
    from gridaudit.formula import FormulaError, normalize_relative, parse_formula
    from gridaudit.grid import ErrorValue, Formula, content_value

    cfg = cfg or AuditConfig()
    findings, forms = [], {}
    for address, cell in snapshot.cells.items():
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
        forms[address] = normalize_relative(tree, address)
        findings += [make_finding(rule_id, address, *fields) for rule_id, *fields in _tree_findings(tree, cfg)]
    findings += _copy_findings(forms, cfg)
    return sorted(findings, key=Finding.sort_key)
