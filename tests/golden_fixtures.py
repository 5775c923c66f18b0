"""Deterministic ledger fixtures behind the golden report tests.

Both fixtures are built through the CLI so the goldens also pin the
ingest pipeline's on-disk behavior.  Timestamps drive every recorded_at,
so rebuilding the ledger yields byte-identical reports.
"""

from __future__ import annotations

from pathlib import Path

from gridaudit.cli import run

GOLDEN_DIR = Path(__file__).parent / "goldens"

CLEAN_SNAPS = [
    """SNAP1\tops-book\t2024-03-04T10:00:00Z\talice
Main\tA1\tV\tN\t100
Main\tA2\tV\tN\t250
Main\tB1\tF\t=A1+A2\tN\t350
Main\tC5\tV\tT\tdraft
""",
    """SNAP1\tops-book\t2024-03-11T10:00:00Z\tbob
Main\tA1\tV\tN\t100
Main\tA2\tV\tN\t250
Main\tB1\tF\t=A1+A2\tN\t350
Main\tC5\tV\tT\tfinal
""",
]

VIOLATION_SNAPS = [
    """SNAP1\tops-book\t2024-03-04T10:00:00Z\talice
Main\tA1\tV\tN\t100
Main\tB1\tF\t=A1+A2
Main\tC1\tV\tT\tnotes
""",
    """SNAP1\tops-book\t2024-03-11T10:00:00Z\tbob
Main\tA1\tV\tN\t101
Main\tB1\tF\t=A1+A3
Main\tC1\tV\tT\tnotes
""",
]

POLICY = """workbook = ops-book

[region]
range = Main!A1:A4
mode = LOCKED

[region]
range = Main!B1:B4
mode = FORMULA_MAINTAINED
"""

# Escaped text in every payload field that can hold it: the sheet, both
# actors, text values, a formula source and the attestations.  The second
# ingest removes C1 and adds D1, which cannot be parsed, and the third
# signs off again without edits.
ESCAPE_SNAPS = [
    """SNAP1\tesc-book\t2024-05-01T09:00:00Z\tann\\tlee
Q\\\\1\tA1\tV\tT\tline one\\nline two
Q\\\\1\tA2\tV\tN\t10
Q\\\\1\tB1\tF\t=A2*2\tN\t20
Q\\\\1\tC1\tV\tT\tgone\\rsoon
""",
    """SNAP1\tesc-book\t2024-05-02T09:00:00Z\tbob\\\\smith
ATTEST\tAPP-7\\tapproved\\nby risk
Q\\\\1\tA1\tV\tT\tline one\\nline three
Q\\\\1\tA2\tV\tN\t11
Q\\\\1\tB1\tF\t=A2*3\tN\t33
Q\\\\1\tD1\tF\t=SUM(A2\\tA2)
""",
    """SNAP1\tesc-book\t2024-05-03T09:00:00Z\tcarol
ATTEST\tAPP-8 re-signed\\\\final
Q\\\\1\tA1\tV\tT\tline one\\nline three
Q\\\\1\tA2\tV\tN\t11
Q\\\\1\tB1\tF\t=A2*3\tN\t33
Q\\\\1\tD1\tF\t=SUM(A2\\tA2)
""",
]

ESCAPE_POLICY = """workbook = esc-book

[region]
range = Q\\1!A1:A9
mode = LOCKED
"""

REPORT_ARGS = [
    "--from", "2024-03-01T00:00:00Z",
    "--to", "2024-03-31T00:00:00Z",
    "--generated-at", "2024-04-01T08:00:00Z",
]


def _build(workdir: Path, snaps: list[str], policy: str = POLICY) -> tuple[str, str]:
    workdir.mkdir(parents=True, exist_ok=True)
    policy_path = workdir / "policy.txt"
    policy_path.write_text(policy, encoding="utf-8")
    ledger_dir = workdir / "ledger"
    for i, text in enumerate(snaps):
        snap_path = workdir / f"s{i}.snap"
        snap_path.write_text(text, encoding="utf-8")
        code = run(["ingest", str(ledger_dir), str(snap_path), "--policy", str(policy_path)])
        assert code in (0, 1), f"ingest failed with {code}"
    return str(ledger_dir), str(policy_path)


def build_clean_ledger(workdir: Path) -> tuple[str, str]:
    return _build(workdir, CLEAN_SNAPS)


def build_violations_ledger(workdir: Path) -> tuple[str, str]:
    return _build(workdir, VIOLATION_SNAPS)


def build_escapes_ledger(workdir: Path) -> tuple[str, str]:
    return _build(workdir, ESCAPE_SNAPS, ESCAPE_POLICY)


def render_report(ledger_dir: str, policy_path: str, out_path: Path, fmt: str = "text") -> int:
    return run(
        [
            "report",
            ledger_dir,
            "--policy",
            policy_path,
            *REPORT_ARGS,
            "--format",
            fmt,
            "--out",
            str(out_path),
        ]
    )


def write_goldens(base: Path | None = None) -> None:
    """Regenerate the checked-in goldens (development helper)."""
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        ledger_dir, policy = build_clean_ledger(tmp_path / "clean")
        render_report(ledger_dir, policy, GOLDEN_DIR / "report_clean.txt")
        ledger_dir, policy = build_violations_ledger(tmp_path / "violations")
        render_report(ledger_dir, policy, GOLDEN_DIR / "report_violations.txt")
        render_report(ledger_dir, policy, GOLDEN_DIR / "report_violations.json", fmt="json")
        ledger_dir, _ = build_escapes_ledger(tmp_path / "escapes")
        (GOLDEN_DIR / "ledger_escapes.log").write_bytes((Path(ledger_dir) / "ledger.log").read_bytes())
