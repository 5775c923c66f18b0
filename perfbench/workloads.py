"""Seeded, stdlib-only input generator for the gridaudit benchmark.

Each workload writes `.snap` snapshot files and a policy file into a
directory and returns a plan: the CLI commands to run and the outputs
each one must produce.  The expectations are worked out here from the
generator's own model of the workbook (plain dicts of cell text), never
by calling gridaudit, so a wrong answer from the program shows up as a
failed check instead of being copied into the expectation.

The same (workload, seed, size) always writes the same bytes.
"""

from __future__ import annotations

import random
import statistics
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

T0 = datetime(2024, 1, 1, 10, 0, tzinfo=timezone.utc)  # a Monday
GENERATED_AT = "2030-01-01T00:00:00Z"
PERIOD = ("2023-12-01T00:00:00Z", "2029-12-31T00:00:00Z")
ACTORS = ("alice", "bob", "carol")

# Sizes per workload.  "full" is what the benchmark measures; "smoke" runs
# every command and check in a few seconds for the benchmark's own test.
SIZES = {
    "static-wide": {
        "full": {"formulas": 480, "sheets": (1, 4, 16)},
        "smoke": {"formulas": 96, "sheets": (1, 4, 16)},
    },
    "history-long": {
        "full": {"rows": 60, "ingests": 30},
        "smoke": {"rows": 10, "ingests": 8},
    },
    "bulk-ingest": {
        "full": {"rows": 800, "ingests": 8},
        "smoke": {"rows": 40, "ingests": 5},
    },
}


def col_letters(col: int) -> str:
    out = ""
    while col:
        col, rem = divmod(col - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def a1(col: int, row: int) -> str:
    return f"{col_letters(col)}{row}"


def instant(dt: datetime) -> str:
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


class Book:
    """A workbook as the generator models it: (sheet, row, col) -> the
    content fields of a snapshot cell line."""

    def __init__(self, workbook_id: str):
        self.workbook_id = workbook_id
        self.cells: dict[tuple[str, int, int], tuple[str, ...]] = {}

    def number(self, sheet: str, row: int, col: int, value) -> None:
        self.cells[(sheet, row, col)] = ("V", "N", str(value))

    def text(self, sheet: str, row: int, col: int, value: str) -> None:
        self.cells[(sheet, row, col)] = ("V", "T", value)

    def formula(self, sheet: str, row: int, col: int, source: str) -> None:
        self.cells[(sheet, row, col)] = ("F", source)

    def copy(self) -> "Book":
        other = Book(self.workbook_id)
        other.cells = dict(self.cells)
        return other

    def formula_count(self) -> int:
        return sum(1 for c in self.cells.values() if c[0] == "F")

    def render(self, at: datetime, actor: str, attestation: str | None = None) -> str:
        lines = [f"SNAP1\t{self.workbook_id}\t{instant(at)}\t{actor}"]
        if attestation:
            lines.append(f"ATTEST\t{attestation}")
        for (sheet, row, col), content in self.cells.items():
            lines.append("\t".join((sheet, a1(col, row), *content)))
        return "\n".join(lines) + "\n"


def changed_cells(before: Book, after: Book) -> int:
    """Addresses whose content differs: the `diff` line count."""
    keys = before.cells.keys() | after.cells.keys()
    return sum(1 for k in keys if before.cells.get(k) != after.cells.get(k))


def union_cells(before: Book, after: Book) -> int:
    return len(before.cells.keys() | after.cells.keys())


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _report_steps(ledger: str, policy: str) -> list[dict]:
    base = ["report", ledger, "--from", PERIOD[0], "--to", PERIOD[1], "--policy", policy,
            "--generated-at", GENERATED_AT]
    return [
        {"op": "report", "argv": base},
        {"op": "report", "argv": base + ["--format", "json"]},
    ]


# --- static-wide --------------------------------------------------------------
#
# Why: one fixed formula count laid out over 1, 4 and 16 sheets isolates the
# formula parser and the audit detectors, including the cost that grows with
# sheet count.  Copy runs carry seeded faults so COPY_INCONSISTENT has an
# exact expected answer.  Each workbook also goes into its own two-ingest
# ledger (base, then its edited twin), so ledger commands run here with no
# history: they measure the floor a ledger optimisation cannot move.

_WIDE_TEMPLATES = (
    # (normal form, two faulty variants); {c} column letters, {d} data row,
    # {e} the row two below the data row
    ("={c}{d}*2", ("={c}{d}*3", "={c}{e}*2")),
    ("=IF({c}{d}>500,{c}{d}-500,0)", ("=IF({c}{d}>500,{c}{d}-499,0)", "=IF({c}{e}>500,{c}{d}-500,0)")),
    ("={c}{d}*Sheet1!$B$2", ("={c}{d}/Sheet1!$B$2", "={c}{d}*Sheet1!$C$2")),
    ("=SUM({c}{d}:{c}{e})", ("=SUM({c}{d}:{c}{d})", "=MAX({c}{d}:{c}{e})")),
)


def _wide_book(rng: random.Random, sheets: int, formulas: int) -> tuple[Book, list[str]]:
    """Copy runs of 5..30 formulas on every other row, each over a data row
    below it, with one or two seeded faults per run (as acceptance
    criterion 3 builds them)."""
    book = Book(f"wide-{sheets}")
    faults: list[str] = []
    per_sheet = formulas // sheets
    runs = 0
    for s in range(1, sheets + 1):
        sheet = f"Sheet{s}"
        left = per_sheet
        row = 1
        while left:
            length = min(left, rng.randrange(5, 31))
            if left - length < 5:
                length = left
            left -= length
            # templates in rotation, so every seed has the same mix of formula shapes
            normal, variants = _WIDE_TEMPLATES[runs % len(_WIDE_TEMPLATES)]
            runs += 1
            count = 1 if length < 6 else rng.choice((1, 2))
            bad = set(rng.sample(range(length), count))
            for i in range(length):
                col = i + 1
                form = rng.choice(variants) if i in bad else normal
                c = col_letters(col)
                book.formula(sheet, row, col, form.format(c=c, d=row + 1, e=row + 3))
                book.number(sheet, row + 1, col, rng.randrange(1, 1000))
                if i in bad:
                    faults.append(f"{sheet}!{a1(col, row)}")
            row += 2
    return book, faults


WATCHED = ("Sheet1", 2, 1)  # a data cell every layout has; the twin edits it


def _wide_twin(rng: random.Random, base: Book) -> Book:
    """Data edits on ~5% of the data cells and on WATCHED, logic edits on
    a few formulas of Sheet1 (so the twin's ingest has a critical finding
    to report), two added cells and one removed data cell."""
    twin = base.copy()
    data = [k for k, c in base.cells.items() if c[0] == "V"]
    logic = [k for k, c in base.cells.items() if c[0] == "F" and k[0] == "Sheet1"]
    for key in sorted({*rng.sample(data, max(1, len(data) // 20)), WATCHED}):
        twin.cells[key] = ("V", "N", str(int(base.cells[key][2]) + rng.randrange(1, 50)))
    for key in rng.sample(logic, 3):
        twin.cells[key] = ("F", base.cells[key][1] + "+1")
    twin.number("Sheet1", 999, 1, 7)
    twin.formula("Sheet1", 999, 2, "=A999*2")
    del twin.cells[rng.choice([k for k in data if twin.cells[k] == base.cells[k]])]
    return twin


def _static_wide(rng: random.Random, out: Path, p: dict) -> dict:
    steps: list[dict] = []
    queries: list[list[dict]] = []
    input_bytes = 0
    for sheets in p["sheets"]:
        base, faults = _wide_book(rng, sheets, p["formulas"])
        twin = _wide_twin(rng, base)
        stem = f"wide{sheets:02d}"
        base_path, twin_path = f"{stem}.snap", f"{stem}-twin.snap"
        input_bytes += _write(out / base_path, base.render(T0, "alice"))
        input_bytes += _write(out / twin_path, twin.render(T0 + timedelta(days=1), "bob"))
        policy = f"{stem}.policy"
        _write(
            out / policy,
            f"workbook = {base.workbook_id}\n\n"
            "[region]\nrange = Sheet1!A1:AD999\nmode = FORMULA_MAINTAINED\nticket_required = true\n\n"
            "[bounds]\nrange = Sheet1!A1:AD999\nmin = 0\n",
        )
        ledger = f"ledger-{stem}"
        cell = f"Sheet1!{a1(WATCHED[2], WATCHED[1])}"
        steps += [
            {"op": "audit", "argv": ["audit", base_path], "exit": 0, "formulas": base.formula_count(),
             "faults": sorted(faults)},
            {"op": "diff", "argv": ["diff", base_path, twin_path], "exit": 0,
             "lines": changed_cells(base, twin), "cells": union_cells(base, twin)},
            {"op": "ingest", "argv": ["ingest", ledger, base_path, "--policy", policy], "exit": 0,
             "fresh": ledger},
            {"op": "ingest", "argv": ["ingest", ledger, twin_path, "--policy", policy], "exit": 1},
        ]
        queries.append([
            *[dict(s, exit=1) for s in _report_steps(ledger, policy)],
            {"op": "verify", "argv": ["verify", ledger], "exit": 0, "records": 4},
            {"op": "trend", "argv": ["trend", ledger, cell], "exit": 0, "lines": 3},
            {"op": "history", "argv": ["history", ledger, cell], "exit": 0, "lines": 1},
            {"op": "profile", "argv": ["profile", ledger], "exit": 0, "ingests": 2, "actors": 2},
            {"op": "check", "argv": ["check", ledger, "--policy", policy], "exit": 1},
        ])
    # each cycle audits, diffs and ingests every layout, then queries one
    # layout's ledger in turn: the queries cost about the same on each
    return {"cycle": steps, "ingest_pass": [], "queries": queries, "input_bytes": input_bytes}


# --- history-long -------------------------------------------------------------
#
# Why: a month-close workbook (a few hundred cells, half formulas) ingested
# many times with small deltas under a policy using every rule family.
# Per-ingest formula work stays small, so the cost that grows with history
# dominates: ledger decoding, trend series and workflow periods rebuilt from
# every earlier record, and report/profile scans.  This is where ingest
# cost should stop depending on history length.


def _next_day(at: datetime, weekend: bool) -> datetime:
    at += timedelta(days=1)
    if not weekend:
        while at.weekday() >= 5:
            at += timedelta(days=1)
    elif at.weekday() < 5:
        at += timedelta(days=5 - at.weekday())  # the coming Saturday
    return at


def _schedule(rng: random.Random, slots: list[int], counts: dict[str, int]) -> dict[int, str]:
    """Put each seeded violation on its own ingest, drawn from `slots`.  The
    counts are fixed, so every seed carries the same amount of each kind
    and only where it lands changes."""
    picks = iter(rng.sample(slots, sum(counts.values())))
    return {next(picks): kind for kind, k in counts.items() for _ in range(k)}


def _trend_violated(history: list[str], new: str, window=20, z=3.0, min_points=5) -> bool:
    """The policy's trend rule restated: z-score of the new value against
    the last `window` prior values, sample standard deviation."""
    prior = [float(Decimal(v)) for v in history][-window:]
    if len(prior) < min_points:
        return False
    mean = statistics.fmean(prior)
    sd = statistics.stdev(prior)
    if sd > 0:
        return abs((float(Decimal(new)) - mean) / sd) > z
    return float(Decimal(new)) != mean


def _history_long(rng: random.Random, out: Path, p: dict) -> dict:
    rows, n = p["rows"], p["ingests"]
    sheet = "Close"
    book = Book("close-book")
    for r in range(1, rows + 1):
        book.text(sheet, r, 1, f"acct-{r:03d}")
        book.number(sheet, r, 2, rng.randrange(100, 100000))
        book.number(sheet, r, 3, rng.randrange(100, 100000))
        book.formula(sheet, r, 4, f"=B{r}-C{r}")
        book.formula(sheet, r, 5, f"=IF(C{r}=0,0,D{r}/C{r})")
        book.formula(sheet, r, 6, f"=ROUND(E{r}*100,1)")
    total = rows + 2
    for col in (2, 3, 4):
        c = col_letters(col)
        book.formula(sheet, total, col, f"=SUM({c}1:{c}{rows})")
    for r in range(1, 6):
        book.text(sheet, r, 7, "open")
    kpis = {(sheet, 1, 8): [], (sheet, 2, 8): []}
    for key, centre in zip(kpis, (1000, 250)):
        book.number(*key, f"{centre}.00")
    policy = "close.policy"
    _write(
        out / policy,
        "workbook = close-book\n\n"
        f"[region]\nrange = Close!A1:A{rows}\nmode = LOCKED\n\n"
        f"[region]\nrange = Close!B1:C{rows}\nmode = DATA_ONLY\n\n"
        f"[region]\nrange = Close!D1:F{rows}\nmode = FORMULA_MAINTAINED\nticket_required = true\n\n"
        f"[cadence]\nrange = Close!A1:Z{total}\nwindow = Mon-Fri 7-19\n\n"
        f"[bounds]\nrange = Close!B1:C{rows}\nmin = 0\nmax = 10000000\n\n"
        "[trend]\ncell = Close!H1\nwindow = 20\nz_threshold = 3.0\nmin_points = 5\n\n"
        "[trend]\ncell = Close!H2\nwindow = 20\nz_threshold = 3.0\nmin_points = 5\n\n"
        f"[workflow]\nstep = load Close!B1:C{rows}\nstep = compute Close!D1:F{rows}\n"
        "step = publish Close!G1:G5\n",
    )
    ledger = "ledger"
    k = max(1, n // 20)
    # seeded violations; attestation ingests and the last ingest stay clean
    seeded = _schedule(rng, [i for i in range(2, n) if i % 10],
                       {"weekend": k, "unattested": k + 1, "renamed": k, "negative": k})
    spikes = [set(rng.sample(range(7, n), k)) for _ in kpis]
    steps, books = [], []
    at, input_bytes, attests, any_critical = T0, 0, 0, False
    for i in range(1, n + 1):
        critical = False
        attestation = None
        kind = seeded.get(i)
        if i > 1:
            book = book.copy()
            for _ in range(rng.randrange(2, 6)):
                r, c = rng.randrange(1, rows + 1), rng.choice((2, 3))
                book.number(sheet, r, c, rng.randrange(100, 100000))
            if i % 10 == 0:
                attestation = f"month close CHG-{1000 + i}"
                book.text(sheet, rng.randrange(1, 6), 7, f"closed-{i}")
            if attestation or kind == "unattested":
                r = rng.randrange(1, rows + 1)
                book.formula(sheet, r, 4, f"=B{r}-C{r}+{i}")
                critical |= attestation is None  # logic change without a ticket
            elif kind == "renamed":
                book.text(sheet, rng.randrange(1, rows + 1), 1, f"renamed-{i}")
                critical = True  # locked region
            elif kind == "negative":
                book.number(sheet, rng.randrange(1, rows + 1), 2, -rng.randrange(1, 500))
                critical = True  # below the lower bound
            at = _next_day(at, weekend=kind == "weekend")
        for key, centre, spiked in zip(kpis, (1000, 250), spikes):
            spike = i in spiked
            value = f"{centre + rng.gauss(0, 3) + (60 if spike else 0):.2f}"
            if i > 1:
                if value == kpis[key][-1]:
                    value = f"{Decimal(value) + Decimal('0.01')}"
                critical |= _trend_violated(kpis[key], value)
            kpis[key].append(value)
            book.number(*key, value)
        name = f"close-{i:03d}.snap"
        input_bytes += _write(out / name, book.render(at, ACTORS[i - 1] if i <= 3 else rng.choice(ACTORS),
                                                      attestation))
        attests += attestation is not None
        any_critical |= critical
        books.append(book)
        steps.append({"op": "ingest", "argv": ["ingest", ledger, name, "--policy", policy],
                      "exit": int(critical), **({"fresh": ledger} if i == 1 else {})})
    records = n + 2 * (n - 1) + attests
    last, prev = f"close-{n:03d}.snap", f"close-{n - 1:03d}.snap"
    queries = [
        *[dict(s, exit=int(any_critical)) for s in _report_steps(ledger, policy)],
        {"op": "verify", "argv": ["verify", ledger], "exit": 0, "records": records},
        {"op": "trend", "argv": ["trend", ledger, "Close!H1"], "exit": 0, "lines": n + 1},
        {"op": "history", "argv": ["history", ledger, "Close!H2"], "exit": 0,
         "lines": sum(1 for a, b in zip(kpis[(sheet, 2, 8)], kpis[(sheet, 2, 8)][1:]) if a != b)},
        {"op": "profile", "argv": ["profile", ledger], "exit": 0, "ingests": n, "actors": len(ACTORS)},
        {"op": "check", "argv": ["check", ledger, "--policy", policy], "exit": steps[-1]["exit"]},
        {"op": "audit", "argv": ["audit", last], "exit": 0, "formulas": books[-1].formula_count(),
         "faults": None},
        {"op": "diff", "argv": ["diff", prev, last], "exit": 0,
         "lines": changed_cells(books[-2], books[-1]), "cells": union_cells(books[-2], books[-1])},
    ]
    return {"cycle": [], "ingest_pass": steps, "queries": [queries], "input_bytes": input_bytes}


# --- bulk-ingest --------------------------------------------------------------
#
# Why: a data register of ~12k cells with ~2% formulas, ingested a few times
# with ~20% of its cells changing each time.  The ledger holds few large
# records, so history length barely matters; the work is snapshot parse,
# write and digest, diffing, per-event control checks, the object store and
# record hashing, and usage metrics that reload every stored snapshot.  An
# index kept on every append, cheap on history-long, costs here.


def _bulk_ingest(rng: random.Random, out: Path, p: dict) -> dict:
    rows, n = p["rows"], p["ingests"]
    sheet, cols = "Reg", 15
    last_row = rows + 1
    book = Book("register")
    for c in range(1, cols + 1):
        book.text(sheet, 1, c, f"field{c}")
    for r in range(2, last_row + 1):
        for c in range(1, cols + 1):
            book.number(sheet, r, c, rng.randrange(0, 100000))
        if r % 3 == 0:
            book.formula(sheet, r, cols + 1, f"=SUM(A{r}:{col_letters(cols)}{r})")
    for c in range(1, cols + 1):  # a totals row: one copy run
        letters = col_letters(c)
        book.formula(sheet, last_row + 2, c, f"=SUM({letters}2:{letters}{last_row})")
    policy = "register.policy"
    _write(
        out / policy,
        "workbook = register\n\n"
        f"[region]\nrange = Reg!A1:P1\nmode = LOCKED\n\n"
        f"[region]\nrange = Reg!A2:O{last_row}\nmode = DATA_ONLY\n\n"
        f"[cadence]\nrange = Reg!A1:P{last_row}\nwindow = Mon-Fri 6-20\n\n"
        f"[bounds]\nrange = Reg!A2:O{last_row}\nmin = 0\nmax = 1000000\n",
    )
    data = [(sheet, r, c) for r in range(2, last_row + 1) for c in range(1, cols + 1)]
    watched = (sheet, 2, 2)
    ledger = "ledger"
    # seeded violations, one of each; the last ingest stays clean
    seeded = _schedule(rng, list(range(2, n)), {"weekend": 1, "negative": 1, "renamed": 1})
    steps, books, watched_values, actors = [], [], [], set()
    at, input_bytes, any_critical = T0, 0, False
    for i in range(1, n + 1):
        critical = False
        kind = seeded.get(i)
        if i > 1:
            book = book.copy()
            for key in rng.sample(data, len(data) // 5):
                book.number(*key, rng.randrange(0, 100000))
            if kind == "negative":
                book.number(*rng.choice(data), -rng.randrange(1, 500))
                critical = True  # below the lower bound
            elif kind == "renamed":
                book.text(sheet, 1, rng.randrange(1, cols + 1), f"renamed{i}")
                critical = True  # locked header
            at = _next_day(at, weekend=kind == "weekend")
        name = f"reg-{i:03d}.snap"
        actor = rng.choice(ACTORS)
        actors.add(actor)
        input_bytes += _write(out / name, book.render(at, actor))
        any_critical |= critical
        books.append(book)
        watched_values.append(book.cells[watched])
        steps.append({"op": "ingest", "argv": ["ingest", ledger, name, "--policy", policy],
                      "exit": int(critical), **({"fresh": ledger} if i == 1 else {})})
    last, prev = f"reg-{n:03d}.snap", f"reg-{n - 1:03d}.snap"
    cell = f"{sheet}!{a1(watched[2], watched[1])}"
    queries = [
        *[dict(s, exit=int(any_critical)) for s in _report_steps(ledger, policy)],
        {"op": "verify", "argv": ["verify", ledger], "exit": 0, "records": n + 2 * (n - 1)},
        {"op": "trend", "argv": ["trend", ledger, cell], "exit": 0, "lines": n + 1},
        {"op": "history", "argv": ["history", ledger, cell], "exit": 0,
         "lines": sum(1 for a, b in zip(watched_values, watched_values[1:]) if a != b)},
        {"op": "profile", "argv": ["profile", ledger], "exit": 0, "ingests": n, "actors": len(actors)},
        {"op": "check", "argv": ["check", ledger, "--policy", policy], "exit": steps[-1]["exit"]},
        {"op": "audit", "argv": ["audit", last], "exit": 0, "formulas": books[-1].formula_count(),
         "faults": None},
        {"op": "diff", "argv": ["diff", prev, last], "exit": 0,
         "lines": changed_cells(books[-2], books[-1]), "cells": union_cells(books[-2], books[-1])},
    ]
    return {"cycle": [], "ingest_pass": steps, "queries": [queries], "input_bytes": input_bytes}


GENERATORS = {
    "static-wide": _static_wide,
    "history-long": _history_long,
    "bulk-ingest": _bulk_ingest,
}


def generate(workload: str, seed: int, out: Path, size: str = "full") -> dict:
    """Write the workload's inputs into `out` (which must exist) and return
    its plan: `cycle` steps run every round, `ingest_pass` steps once
    before the rounds, and round k runs `queries[k % len(queries)]`.  Paths
    in the plan are relative to `out`."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, out, SIZES[workload][size])
