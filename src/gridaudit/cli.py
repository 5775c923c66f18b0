"""Command-line interface.

Subcommands wire ingestion, auditing, policy checks, queries and reports
into one tool.  Exit codes are a stable scripting contract:

    0  success, no critical findings
    1  completed, critical findings present
    2  usage error (bad arguments, malformed inputs, rejected ingest)
    3  integrity failure (hash chain verification or digest mismatch)
    4  internal error (an unexpected exception; a defect in gridaudit)

Findings print one per line on stdout as
severity<TAB>rule_id<TAB>location<TAB>message; diagnostics go to stderr.
Given identical inputs (and a fixed --generated-at for reports) every
command produces byte-identical output.
"""

from __future__ import annotations

import argparse
import fcntl
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

from . import assess, audit, controls, diffing
from . import ledger as ledger_mod
from .findings import Finding, finding_line, has_critical
from .grid import (
    Number,
    format_instant,
    parse_instant,
    parse_qualified_address,
    parse_snapshot_file,
    render_content,
    render_value,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTEGRITY = 3
EXIT_INTERNAL = 4


def _print_findings(findings: list[Finding]) -> int:
    for f in findings:
        print(finding_line(f))
    return EXIT_FINDINGS if has_critical(findings) else EXIT_OK


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_config(path: str | None) -> audit.AuditConfig:
    # Resolved before the snapshot is read, even without a file: the first
    # use of `audit` compiles it and `formula`, and doing that with a
    # snapshot in memory raises the command's peak memory.
    return audit.load_audit_config(_read_text(path)) if path else audit.AuditConfig()


def _load_policy(path: str | None) -> controls.ControlPolicy | None:
    return controls.parse_policy_file(_read_text(path)) if path else None


def _open_existing(ledger_dir: str) -> ledger_mod.Ledger:
    """Read-only commands must not conjure an empty ledger from a typo."""
    path = Path(ledger_dir)
    if not path.is_dir():
        raise FileNotFoundError(f"no ledger directory at {ledger_dir!r}")
    return ledger_mod.Ledger.open(path)


@contextmanager
def _exclusive_lock(directory: Path):
    """Writer lock for a ledger directory, held on the log file itself."""
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "ledger.log").open("a", encoding="utf-8") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def _cmd_ingest(args) -> int:
    policy = _load_policy(args.policy)
    cfg = _load_config(args.config)
    # Resolved before the snapshot is read, as in _load_config: opening the
    # ledger compiles `ledger`, and the ingest's diff compiles `diffing`.
    open_ledger, _ = ledger_mod.Ledger.open, diffing.diff_snapshots
    snapshot = parse_snapshot_file(_read_text(args.snapshot))
    with _exclusive_lock(Path(args.ledger_dir)):
        ledger = open_ledger(args.ledger_dir)
        findings = ledger.ingest_snapshot(snapshot, cfg=cfg, policy=policy)
    return _print_findings(findings)


def _cmd_audit(args) -> int:
    cfg = _load_config(args.config)
    snapshot = parse_snapshot_file(_read_text(args.snapshot))
    return _print_findings(audit.audit_workbook(snapshot, cfg))


def _cmd_diff(args) -> int:
    diff_snapshots = diffing.diff_snapshots  # resolved before the snapshots are read
    before = parse_snapshot_file(_read_text(args.snapshot_a))
    after = parse_snapshot_file(_read_text(args.snapshot_b))
    for event in diff_snapshots(before, after).events:
        print(
            f"{event.kind.value}\t{event.address}\t"
            f"{render_content(event.before)}\t{render_content(event.after)}"
        )
    return EXIT_OK


def _cmd_check(args) -> int:
    policy = controls.parse_policy_file(_read_text(args.policy))
    ledger = _open_existing(args.ledger_dir)
    changeset_seqs = [r.seq for r in ledger.records if r.kind == "CHANGESET"]
    if not changeset_seqs:
        print("error: ledger holds no change sets to check", file=sys.stderr)
        return EXIT_USAGE
    seq = changeset_seqs[-1]
    changes = ledger.records[seq].body
    cut = seq - 1 if seq > 0 and ledger.records[seq - 1].kind == "INGEST" else seq
    view = ledger_mod.Ledger(ledger.directory, ledger.raw_lines[:cut])
    return _print_findings(controls.evaluate_policies(changes, policy, view))


def _cmd_trend(args) -> int:
    ledger = _open_existing(args.ledger_dir)
    address = parse_qualified_address(args.cell)
    rule = controls.TrendRule(address=address, window=args.window)
    series = ledger.series_for_cell(address)
    for at, value in series.points:
        print(f"{format_instant(at)}\t{render_value(value)}")
    numeric = [(at, v) for at, v in series.points if isinstance(v, Number)]
    if len(numeric) < rule.min_points + 1:
        print("TREND\tinsufficient-data")
        return EXIT_OK
    history = ledger_mod.CellSeries(address, tuple(numeric[:-1]))
    verdict = controls.trend_deviation(history, numeric[-1][1].value, rule)
    flag = "true" if verdict.violated else "false"
    print(
        f"TREND\tmean={verdict.mean:.6f}\tstddev={verdict.stddev:.6f}"
        f"\tz={verdict.z:.6f}\tviolated={flag}"
    )
    return EXIT_OK


def _cmd_history(args) -> int:
    ledger = _open_existing(args.ledger_dir)
    address = parse_qualified_address(args.cell)
    for change in ledger.change_history(address):
        print(
            f"{format_instant(change.at)}\t{change.actor}\t{change.event.kind.value}\t"
            f"{render_content(change.event.before)}\t{render_content(change.event.after)}"
        )
    return EXIT_OK


def _cmd_profile(args) -> int:
    ledger = _open_existing(args.ledger_dir)
    all_findings = [f for _, fs in ledger.findings_records() for f in fs]
    profile = assess.build_profile(ledger, all_findings)
    m = profile.metrics
    print(f"workbook\t{ledger.workbook_id or '-'}")
    print(f"ingests\t{m.ingest_count}")
    print(f"distinct_actors\t{m.distinct_actors}")
    print(f"persistence_days\t{m.persistence_days:.4f}")
    print(f"mean_structural_volatility\t{float(m.mean_structural_volatility):.4f}")
    print(f"mean_data_volatility\t{float(m.mean_data_volatility):.4f}")
    print(f"classification\t{profile.classification}")
    print(f"risk_score\t{profile.risk_score:.1f}")
    for reason in profile.rationale:
        print(f"rationale\t{reason}")
    return EXIT_OK


def _cmd_report(args) -> int:
    ledger = _open_existing(args.ledger_dir)
    policy = _load_policy(args.policy)
    generated = parse_instant(args.generated_at) if args.generated_at else datetime.now(timezone.utc)
    report = assess.build_report(
        ledger,
        policy,
        (parse_instant(getattr(args, "from")), parse_instant(args.to)),
        generated_at=generated,
    )
    rendered = assess.render_report_json(report) if args.format == "json" else assess.render_report_text(report)
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
    else:
        print(rendered, end="")
    if not report.chain_verified:
        return EXIT_INTEGRITY
    return EXIT_FINDINGS if report.material_weaknesses else EXIT_OK


def _cmd_verify(args) -> int:
    ledger = _open_existing(args.ledger_dir)
    result = ledger.verify_chain()
    if result.ok:
        print(f"OK n={result.record_count}")
        return EXIT_OK
    print(f"FAIL seq={result.first_bad_seq} n={result.record_count}")
    print(f"reason: {result.reason}", file=sys.stderr)
    return EXIT_INTEGRITY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridaudit",
        description="Audit spreadsheet snapshots, track changes in a tamper-evident ledger, "
        "enforce control policies and render compliance reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="record a snapshot in a ledger and evaluate controls")
    p.add_argument("ledger_dir")
    p.add_argument("snapshot")
    p.add_argument("--policy")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("audit", help="statically audit one snapshot file")
    p.add_argument("snapshot")
    p.add_argument("--config")
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("diff", help="cell-level differences between two snapshot files")
    p.add_argument("snapshot_a")
    p.add_argument("snapshot_b")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser("check", help="re-evaluate the latest recorded delta against a policy")
    p.add_argument("ledger_dir")
    p.add_argument("--policy", required=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("trend", help="value history and trend verdict for one cell")
    p.add_argument("ledger_dir")
    p.add_argument("cell")
    p.add_argument("--window", type=int, default=20)
    p.set_defaults(handler=_cmd_trend)

    p = sub.add_parser("history", help="attributed change history for one cell")
    p.add_argument("ledger_dir")
    p.add_argument("cell")
    p.set_defaults(handler=_cmd_history)

    p = sub.add_parser("profile", help="usage metrics, classification and risk score")
    p.add_argument("ledger_dir")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("report", help="compliance report over a period")
    p.add_argument("ledger_dir")
    p.add_argument("--from", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--generated-at", dest="generated_at")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser("verify", help="verify the ledger hash chain")
    p.add_argument("ledger_dir")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
        if exc.code is None:
            return EXIT_OK
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # the except tuples are evaluated, and so load ledger and diffing, only
    # when an exception propagates
    try:
        return args.handler(args)
    except (ledger_mod.LedgerCorrupt, diffing.DigestMismatch, diffing.ConflictingEvent, ledger_mod.MissingObject) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (ValueError, ledger_mod.LedgerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only here: importing it costs every command start-up

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
