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

`main` is the process entry point (the `gridaudit` script): it ends the
process, with the heap frozen so that the interpreter's exit-time
collections skip it.  `run(argv)` runs one command in process and returns
its exit code; it freezes nothing, so tests and library callers use it.

COMMANDS is the one description of the command line: each command's
handler, help, positionals and options.  `run` reads a plain command line
(every option spelled out in full, given once and followed by its value)
from that table alone, as argparse would read it; argparse is imported,
and builds its parser from the same table, only for anything else: help,
usage errors, abbreviated options, --opt=value, -- and values that start
with '-'.  Importing argparse and building its parsers would otherwise
cost every command several milliseconds of start-up.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import assess, audit, controls, diffing, trend
from . import ledger as ledger_mod
from .findings import Finding, finding_line, has_critical
from .grid import (
    Number,
    datetime,
    format_instant,
    parse_instant,
    parse_qualified_address,
    parse_snapshot_file,
    render_content,
    render_value,
    timezone,
)

if TYPE_CHECKING:
    import argparse

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


def _cmd_ingest(args) -> int:
    policy = _load_policy(args.policy)
    cfg = _load_config(args.config)
    # Resolved before the snapshot is read, as in _load_config: opening the
    # ledger compiles `ledger`, and the ingest's diff compiles `diffing`.
    open_ledger, _ = ledger_mod.Ledger.open, diffing.diff_snapshots
    snapshot = parse_snapshot_file(_read_text(args.snapshot))
    return _print_findings(open_ledger(args.ledger_dir).ingest_snapshot(snapshot, cfg=cfg, policy=policy))


def _cmd_audit(args) -> int:
    cfg = _load_config(args.config)
    snapshot = parse_snapshot_file(_read_text(args.snapshot))
    return _print_findings(audit.audit_workbook(snapshot, cfg))


def _cmd_diff(args) -> int:
    diff_events = diffing.diff_events  # resolved before the snapshots are read
    # the second file is parsed against the first file's lines, so a line
    # both hold is parsed once and is the very same cell on both sides;
    # diff prints no digest, so no line is rendered and nothing hashed
    parsed = {}
    before = parse_snapshot_file(_read_text(args.snapshot_a), parsed)
    after = parse_snapshot_file(_read_text(args.snapshot_b), parsed)
    for event in diff_events(before, after):
        print(
            f"{event.kind.value}\t{event.address}\t"
            f"{render_content(event.before)}\t{render_content(event.after)}"
        )
    return EXIT_OK


def _cmd_check(args) -> int:
    policy = controls.parse_policy_file(_read_text(args.policy))
    return _print_findings(_open_existing(args.ledger_dir).check(policy))


def _cmd_trend(args) -> int:
    ledger = _open_existing(args.ledger_dir)
    address = parse_qualified_address(args.cell)
    rule = trend.TrendRule(address=address, window=args.window)
    series = ledger.series_for_cell(address)
    for at, value in series.points:
        print(f"{format_instant(at)}\t{render_value(value)}")
    numeric = [(at, v) for at, v in series.points if isinstance(v, Number)]
    if len(numeric) < rule.min_points + 1:
        print("TREND\tinsufficient-data")
        return EXIT_OK
    history = ledger_mod.CellSeries(address, tuple(numeric[:-1]))
    verdict = trend.trend_deviation(history, numeric[-1][1].value, rule)
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


# command -> (handler, help, positionals, options); each option maps to
# the keyword arguments argparse's add_argument takes for it
COMMANDS = {
    "ingest": (
        _cmd_ingest,
        "record a snapshot in a ledger and evaluate controls",
        ("ledger_dir", "snapshot"),
        {"--policy": {}, "--config": {}},
    ),
    "audit": (_cmd_audit, "statically audit one snapshot file", ("snapshot",), {"--config": {}}),
    "diff": (_cmd_diff, "cell-level differences between two snapshot files", ("snapshot_a", "snapshot_b"), {}),
    "check": (
        _cmd_check,
        "re-evaluate the latest recorded delta against a policy",
        ("ledger_dir",),
        {"--policy": {"required": True}},
    ),
    "trend": (
        _cmd_trend,
        "value history and trend verdict for one cell",
        ("ledger_dir", "cell"),
        {"--window": {"type": int, "default": 20}},
    ),
    "history": (_cmd_history, "attributed change history for one cell", ("ledger_dir", "cell"), {}),
    "profile": (_cmd_profile, "usage metrics, classification and risk score", ("ledger_dir",), {}),
    "report": (
        _cmd_report,
        "compliance report over a period",
        ("ledger_dir",),
        {
            "--from": {"required": True},
            "--to": {"required": True},
            "--policy": {"required": True},
            "--out": {},
            "--format": {"choices": ("text", "json"), "default": "text"},
            "--generated-at": {},
        },
    ),
    "verify": (_cmd_verify, "verify the ledger hash chain", ("ledger_dir",), {}),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only here: importing it and building the parsers costs every command start-up

    parser = argparse.ArgumentParser(
        prog="gridaudit",
        description="Audit spreadsheet snapshots, track changes in a tamper-evident ledger, "
        "enforce control policies and render compliance reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, positionals, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in positionals:
            p.add_argument(name)
        for name, spec in options.items():
            p.add_argument(name, **spec)
        p.set_defaults(handler=handler)
    return parser


def read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace build_parser() gives argv, read from COMMANDS alone, if
    argv is a plain command line: a command, then its positionals and
    options in any order, each option spelled out in full, given once and
    followed by a value that passes its type and choices.  No token after
    the command but an option name may start with '-'.  Anything else
    (help, abbreviations, --opt=value, --, usage errors) is None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, positionals, options = COMMANDS[argv[0]]
    given, plain = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            plain.append(token)
            continue
        value = next(tokens, "-")  # an option at the end has no value
        if token not in options or token in given or value.startswith("-"):
            return None
        spec = options[token]
        try:
            given[token] = value = spec.get("type", str)(value)
        except ValueError:
            return None
        if value not in spec.get("choices", (value,)):
            return None
    missing = [name for name, spec in options.items() if spec.get("required") and name not in given]
    if missing or len(plain) != len(positionals):
        return None
    # argparse names an option's value after the option: --generated-at is generated_at
    values = {name[2:].replace("-", "_"): given.get(name, spec.get("default")) for name, spec in options.items()}
    return SimpleNamespace(command=argv[0], handler=handler, **values, **dict(zip(positionals, plain)))


def run(argv: list[str]) -> int:
    args = read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
    """The process entry point: run the command line, then exit with its
    code.  The heap is frozen on the way out; call `run` in process."""
    code = run(sys.argv[1:])
    # At exit CPython collects the heap even with the collector disabled,
    # walking every object the loaded modules left alive (about 13k, some
    # 6-11 ms a command) only to free the few held in reference cycles.
    # Frozen objects are skipped by those collections; atexit handlers,
    # the flush of the standard streams, module teardown and every free by
    # reference count still happen.  This is safe because gridaudit has no
    # finalizer and closes each file it opens before `run` returns.
    if hasattr(gc, "freeze"):  # absent on some interpreters
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
