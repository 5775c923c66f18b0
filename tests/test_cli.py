"""Command-line behavior: subcommands, exit codes, output streams."""

import io
import json
import os
import pathlib
import random
import tempfile
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONTENTS, T0, hours, mutate_snapshot, random_snapshot
from golden_fixtures import GOLDEN_DIR
from oracles import exact_trend_stats, sha256_hex

import gridaudit.cli
import gridaudit.grid
from gridaudit.cli import run
from gridaudit.grid import (
    MAX_EXPONENT,
    CellAddress,
    CellLines,
    Formula,
    Number,
    Snapshot,
    parse_snapshot_file,
    read_stored_lines,
    snapshot_digest,
    write_snapshot_file,
)
from gridaudit.diffing import ConflictingEvent, DigestMismatch
from gridaudit.ledger import Ledger, LedgerCorrupt, MissingObject, NonMonotonicTimestamp, serialize_ingest

SNAP_1 = """SNAP1\twb1\t2024-03-01T09:00:00Z\talice
S\tA1\tV\tN\t5
S\tB1\tV\tN\t10
"""

SNAP_2 = """SNAP1\twb1\t2024-03-02T09:00:00Z\tbob
S\tA1\tV\tN\t6
S\tB1\tV\tN\t10
"""

SNAP_DEEP_IF = """SNAP1\twb1\t2024-03-01T09:00:00Z\talice
S\tA1\tF\t=IF(A2,IF(B2,IF(C2,IF(D2,1,0),0),0),0)
"""

SNAP_ERROR_VALUE = """SNAP1\twb1\t2024-03-01T09:00:00Z\talice
S\tA1\tV\tE\t#REF!
"""

SNAP_DEEP_PARENS = f"""SNAP1\twb1\t2024-03-01T09:00:00Z\talice
S\tA1\tF\t={"(" * 110}1{")" * 110}
S\tA2\tF\t={"-" * 1200}1
"""

SNAP_FM_1 = """SNAP1\twb1\t2024-03-01T09:00:00Z\talice
S\tA1\tF\t=B1
"""

SNAP_FM_2 = """SNAP1\twb1\t2024-03-02T09:00:00Z\tbob
ATTEST\treviewed by risk team
S\tA1\tF\t=B2
"""

POLICY_FM = """workbook = wb1

[region]
range = S!A1:A9
mode = FORMULA_MAINTAINED
"""

POLICY = """workbook = wb1

[region]
range = S!A1:A9
mode = LOCKED
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in {
        "s1.snap": SNAP_1,
        "s2.snap": SNAP_2,
        "deep.snap": SNAP_DEEP_IF,
        "err.snap": SNAP_ERROR_VALUE,
        "parens.snap": SNAP_DEEP_PARENS,
        "fm1.snap": SNAP_FM_1,
        "fm2.snap": SNAP_FM_2,
        "policy.txt": POLICY,
        "policy_fm.txt": POLICY_FM,
    }.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    paths["ledger"] = str(tmp_path / "ledger")
    return paths


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run(["verify", "somewhere", "--fast"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "gridaudit" in capsys.readouterr().out

    def test_missing_file(self, capsys, files):
        assert run(["audit", files["s1.snap"] + ".nope"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, golden",
        [
            (["--help"], 0, "help.txt"),
            (["report", "--help"], 0, "help_report.txt"),
            (["verify", "somewhere", "--fast"], 2, "usage_error.txt"),
        ],
        ids=["help", "report-help", "usage-error"],
    )
    def test_help_and_usage_errors_match_their_goldens(self, capsys, monkeypatch, argv, code, golden):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal's width
        assert run(argv) == code
        captured = capsys.readouterr()
        shown = captured.out if code == 0 else captured.err
        assert shown == (GOLDEN_DIR / golden).read_text(encoding="utf-8")


def _workloads():
    """The benchmark's workload generator, perfbench/workloads.py."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _perfbench_argvs(tmp_path) -> list[list[str]]:
    """Every command line the benchmark's workloads run, at smoke size."""
    workloads = _workloads()
    argvs = []
    for name in workloads.GENERATORS:
        out = tmp_path / name
        out.mkdir()
        plan = workloads.generate(name, 7, out, "smoke")
        for step in (*plan["ingest_pass"], *plan["cycle"], *(s for q in plan["queries"] for s in q)):
            argvs.append(step["argv"])
    return argvs


# the rule ids controls.evaluate_policies reports; the static audit reports the others
POLICY_RULES = {
    "LOCKED_REGION_CHANGE",
    "DATA_ONLY_LOGIC_CHANGE",
    "UNATTESTED_LOGIC_CHANGE",
    "CADENCE_VIOLATION",
    "BOUND_VIOLATION",
    "TYPE_VIOLATION",
    "TREND_DEVIATION",
    "TASK_ORDER_VIOLATION",
}

# (argv, well_formed): a command line built from the command table, then
# at most one change that may or may not keep it well formed
_PLAIN = st.sampled_from(["L", "s.snap", "S!A1", "", "a b", "=x"])
_VALUES = _PLAIN | st.sampled_from(["5", "json", "text", "-", "-5", "-x", "--", "--policy"])
_CHANGES = [
    "none", "drop", "extra", "unknown", "repeat", "abbreviate", "equals", "dashdash", "dash-value", "bad-value", "help"
]


@st.composite
def _command_lines(draw):
    commands = gridaudit.cli.COMMANDS
    command = draw(st.sampled_from([*commands, "frobnicate", "--help"]))
    if command not in commands:
        return [command, *draw(st.lists(_VALUES, max_size=3))], False
    _, _, positionals, options = commands[command]
    others = sorted({name for *_, opts in commands.values() for name in opts} - set(options))
    words = [[draw(_PLAIN)] for _ in positionals]
    for name, spec in options.items():
        if spec.get("required") or draw(st.booleans()):
            value = "7" if spec.get("type") is int else "json" if "choices" in spec else draw(_PLAIN)
            words.append([name, value])
    tokens = [token for word in draw(st.permutations(words)) for token in word]
    change = draw(st.sampled_from(_CHANGES))
    at = [i for i, token in enumerate(tokens) if token in options]
    if change == "drop" and tokens:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif change == "extra":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_VALUES))
    elif change == "unknown":
        tokens += [draw(st.sampled_from([*others, "--nope", "-h", "-x"])), draw(_VALUES)]
    elif change == "dashdash":
        tokens.insert(draw(st.integers(0, len(tokens))), "--")
    elif change == "help":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(["-h", "--help"])))
    elif change != "none" and at:
        i = draw(st.sampled_from(at))
        if change == "repeat":
            tokens += [tokens[i], draw(_VALUES)]
        elif change == "abbreviate":
            tokens[i] = tokens[i][: draw(st.integers(2, len(tokens[i]) - 1))]
        elif change == "equals":
            tokens[i:i + 2] = [f"{tokens[i]}={tokens[i + 1]}"]
        elif change == "dash-value":
            tokens[i + 1] = draw(st.sampled_from(["-5", "-x", "--policy", "-"]))
        else:  # bad-value: for --window and --format, one that fails their type or choices
            tokens[i + 1] = draw(st.sampled_from(["x", "7.5", "xml", "", " 7", "JSON"]))
    return [command, *tokens], change == "none"


class TestPlainCommandLines:
    """read_plain reads a plain command line from the command table; every
    other one goes to argparse, which the table also builds."""

    @staticmethod
    def _parsed(argv):
        """argparse's namespace for argv as a dict, or None on a usage error or help."""
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                return vars(gridaudit.cli.build_parser().parse_args(argv))
            except SystemExit:
                return None

    @settings(max_examples=300, deadline=None)
    @given(_command_lines())
    def test_the_table_reads_what_argparse_reads_or_declines(self, case):
        argv, well_formed = case
        plain = gridaudit.cli.read_plain(argv)
        if well_formed:
            assert plain is not None, argv
        if plain is not None:
            assert vars(plain) == self._parsed(argv)

    def test_every_benchmark_command_line_takes_the_table_path(self, tmp_path):
        argvs = _perfbench_argvs(tmp_path)
        assert {argv[0] for argv in argvs} == set(gridaudit.cli.COMMANDS)
        for argv in argvs:
            plain = gridaudit.cli.read_plain(argv)
            assert plain is not None, argv
            assert vars(plain) == self._parsed(argv)


class TestAudit:
    def test_warning_findings_exit_zero(self, capsys, files):
        assert run(["audit", files["deep.snap"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("warning\tDEEP_NESTING\tS!A1\t")

    def test_critical_findings_exit_one(self, capsys, files):
        assert run(["audit", files["err.snap"]]) == 1
        assert "ERROR_VALUE" in capsys.readouterr().out

    def test_nesting_past_the_cap_is_a_warning(self, capsys, files):
        assert run(["audit", files["parens.snap"]]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:3] for line in out] == [
            ["warning", "PARSE_FAILURE", "S!A1"],
            ["warning", "PARSE_FAILURE", "S!A2"],
        ]

    @pytest.mark.parametrize(
        "formula",
        ["=" + "+".join(["A2"] * 1000), "=" + "^".join(["A2"] * 1000), "=" + "&".join(["A2"] * 1000), "=A2" + "%" * 1000],
        ids=["plus", "power", "concat", "percent"],
    )
    def test_long_operator_chain_audits(self, capsys, tmp_path, formula):
        path = tmp_path / "chain.snap"
        path.write_text(f"SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nS\tA1\tF\t{formula}\n", encoding="utf-8")
        assert run(["audit", str(path)]) == 0
        captured = capsys.readouterr()
        assert "PARSE_FAILURE" not in captured.out
        assert captured.err == ""

    def test_clean_snapshot_silent(self, capsys, files):
        assert run(["audit", files["s1.snap"]]) == 0
        assert capsys.readouterr().out == ""


class TestIngest:
    def test_sequence_and_locked_region(self, capsys, files):
        assert run(["ingest", files["ledger"], files["s1.snap"], "--policy", files["policy.txt"]]) == 0
        assert capsys.readouterr().out == ""
        code = run(["ingest", files["ledger"], files["s2.snap"], "--policy", files["policy.txt"]])
        out = capsys.readouterr().out
        assert code == 1
        assert "critical\tLOCKED_REGION_CHANGE\tS!A1" in out

    def test_non_monotonic_timestamp_exits_two(self, capsys, files):
        assert run(["ingest", files["ledger"], files["s2.snap"]]) == 0
        assert run(["ingest", files["ledger"], files["s1.snap"]]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_snapshot_exits_two(self, tmp_path, capsys, files):
        bad = tmp_path / "bad.snap"
        bad.write_text("not a snapshot\n")
        assert run(["ingest", files["ledger"], str(bad)]) == 2


class TestVerify:
    def test_ok_output(self, capsys, files):
        run(["ingest", files["ledger"], files["s1.snap"]])
        run(["ingest", files["ledger"], files["s2.snap"]])
        capsys.readouterr()
        assert run(["verify", files["ledger"]]) == 0
        assert capsys.readouterr().out == "OK n=4\n"

    def test_tampered_ledger_exits_three(self, capsys, files, tmp_path):
        run(["ingest", files["ledger"], files["s1.snap"]])
        run(["ingest", files["ledger"], files["s2.snap"]])
        log = tmp_path / "ledger" / "ledger.log"
        lines = log.read_text().split("\n")
        lines[0] = lines[0][:-1] + ("0" if lines[0][-1] != "0" else "1")
        log.write_text("\n".join(lines))
        capsys.readouterr()
        assert run(["verify", files["ledger"]]) == 3
        assert capsys.readouterr().out == "FAIL seq=0 n=4\n"


    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda line: line[:-1] + ("0" if line[-1] != "0" else "1"), "record hash does not match contents"),
            (lambda line: "\t".join(line.split("\t")[:5]), "expected 6 fields, found 5"),
        ],
        ids=["flipped-hash-char", "five-fields"],
    )
    def test_failure_reason_on_stderr(self, capsys, files, tmp_path, damage, reason):
        run(["ingest", files["ledger"], files["s1.snap"]])
        run(["ingest", files["ledger"], files["s2.snap"]])
        log = tmp_path / "ledger" / "ledger.log"
        lines = log.read_text().split("\n")
        lines[1] = damage(lines[1])
        log.write_text("\n".join(lines))
        capsys.readouterr()
        assert run(["verify", files["ledger"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "FAIL seq=1 n=4\n"
        assert captured.err == f"reason: {reason}\n"
        assert Ledger.open(files["ledger"]).verify_chain().reason == reason

    def test_a_byte_that_is_not_utf8_is_an_integrity_failure(self, capsys, files, tmp_path):
        run(["ingest", files["ledger"], files["s1.snap"]])
        run(["ingest", files["ledger"], files["s2.snap"]])
        log = tmp_path / "ledger" / "ledger.log"
        data = bytearray(log.read_bytes())
        data[data.index(b"\n") + 20] = 0xFF  # inside record 1
        log.write_bytes(bytes(data))
        capsys.readouterr()
        assert run(["verify", files["ledger"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == "FAIL seq=1 n=4\n"
        assert "UTF-8" in captured.err
        for argv in (["trend", files["ledger"], "S!A1"], ["history", files["ledger"], "S!A1"], ["profile", files["ledger"]],
                     ["check", files["ledger"], "--policy", files["policy.txt"]],
                     ["ingest", files["ledger"], files["fm1.snap"]]):
            assert run(argv) == 3, argv
            assert "integrity error: ledger record 1 is corrupt" in capsys.readouterr().err, argv
        assert log.read_bytes() == bytes(data)

    def test_other_commands_name_the_reason(self, capsys, files, tmp_path):
        run(["ingest", files["ledger"], files["s1.snap"]])
        run(["ingest", files["ledger"], files["s2.snap"]])
        log = tmp_path / "ledger" / "ledger.log"
        lines = log.read_text().split("\n")
        lines[2] = lines[2][:-1] + ("0" if lines[2][-1] != "0" else "1")
        log.write_text("\n".join(lines))
        capsys.readouterr()
        assert run(["trend", files["ledger"], "S!A1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "integrity error: ledger record 2 is corrupt: record hash does not match contents\n"


class TestQueries:
    def _seed(self, files):
        run(["ingest", files["ledger"], files["s1.snap"]])
        run(["ingest", files["ledger"], files["s2.snap"]])

    def test_diff_output(self, capsys, files):
        assert run(["diff", files["s1.snap"], files["s2.snap"]]) == 0
        out = capsys.readouterr().out
        assert out == "DataChanged\tS!A1\t5\t6\n"

    def test_history(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        assert run(["history", files["ledger"], "S!A1"]) == 0
        out = capsys.readouterr().out
        assert out == "2024-03-02T09:00:00Z\tbob\tDataChanged\t5\t6\n"

    def test_trend_insufficient_data(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        assert run(["trend", files["ledger"], "S!B1"]) == 0
        out = capsys.readouterr().out.split("\n")
        assert out[-2] == "TREND\tinsufficient-data"

    def test_trend_rejects_a_short_window_before_printing(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        assert run(["trend", files["ledger"], "S!A1", "--window", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trend window must be >= 5\n"

    def test_trend_with_history(self, capsys, files, tmp_path):
        ledger_dir = str(tmp_path / "trend-ledger")
        for day, value in enumerate([10, 12, 11, 13, 10, 30], start=1):
            snap_file = tmp_path / f"t{day}.snap"
            snap_file.write_text(
                f"SNAP1\twb1\t2024-03-{day:02d}T09:00:00Z\talice\nS\tB2\tV\tN\t{value}\n"
            )
            run(["ingest", ledger_dir, str(snap_file)])
        capsys.readouterr()
        assert run(["trend", ledger_dir, "S!B2"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 7
        assert out[-1] == "TREND\tmean=11.200000\tstddev=1.303840\tz=14.418942\tviolated=true"

    def test_profile(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        assert run(["profile", files["ledger"]]) == 0
        out = dict(
            line.split("\t", 1) for line in capsys.readouterr().out.strip().split("\n")
            if not line.startswith("rationale")
        )
        assert out["workbook"] == "wb1"
        assert out["ingests"] == "2"
        assert out["distinct_actors"] == "2"
        assert out["classification"] == "Operational"

    def test_check_reevaluates_latest_delta(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        assert run(["check", files["ledger"], "--policy", files["policy.txt"]]) == 1
        assert "LOCKED_REGION_CHANGE" in capsys.readouterr().out

    def test_check_without_changesets(self, capsys, files):
        run(["ingest", files["ledger"], files["s1.snap"]])
        capsys.readouterr()
        assert run(["check", files["ledger"], "--policy", files["policy.txt"]]) == 2
        assert capsys.readouterr() == ("", "error: ledger holds no change sets to check\n")

    def test_check_evaluates_on_the_ledger_before_the_latest_ingest(self, capsys, tmp_path):
        # the last ingest ends a workflow period with an ATTEST, and its own
        # value would join B1's trend history: evaluated on the whole
        # ledger, calc and publish look out of order and B1 looks ordinary
        policy = tmp_path / "policy.txt"
        policy.write_text(
            "workbook = wb1\n\n[trend]\ncell = S!B1\nwindow = 5\n\n"
            "[workflow]\nstep = load S!A1\nstep = calc S!B1\nstep = publish S!C1\n"
        )
        ledger_dir = str(tmp_path / "ledger")
        for day in range(1, 8):
            last = day == 7
            snap_file = tmp_path / f"c{day}.snap"
            snap_file.write_text(
                f"SNAP1\twb1\t2024-03-{day:02d}T09:00:00Z\talice\n"
                + ("ATTEST\tclosed by bob\n" if last else "")
                + f"S\tA1\tV\tN\t{1 if day < 3 else 2}\n"
                + f"S\tB1\tV\tN\t{50 if last else 10}\n"
                + f"S\tC1\tV\tN\t{2 if last else 1}\n"
                + f"S\tD1\tV\tN\t{day}\n"
            )
            capsys.readouterr()
            code = run(["ingest", ledger_dir, str(snap_file), "--policy", str(policy)])
        expected = "critical\tTREND_DEVIATION\tS!B1\tnew value 50 departs from constant history 10.000000\n"
        assert (code, capsys.readouterr().out) == (1, expected)
        assert run(["check", ledger_dir, "--policy", str(policy)]) == 1
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("seed", [1, 7])
    def test_check_reproduces_the_policy_findings_each_ingest_recorded(self, capsys, tmp_path, monkeypatch, seed):
        plan = _workloads().generate("history-long", seed, tmp_path, "smoke")
        monkeypatch.chdir(tmp_path)
        for step in plan["ingest_pass"]:
            assert run(step["argv"]) == step["exit"], step["argv"]
        capsys.readouterr()
        _, ledger_dir, last_file, *_, policy_file = plan["ingest_pass"][-1]["argv"]
        # one more ingest, of a file whose lines are out of address order and
        # whose copy run spells its sheet name two ways: the first line of the
        # run's form says close!, the first cell of it by address Close!
        last = parse_snapshot_file(pathlib.Path(last_file).read_text())
        cells = dict(last.cells)
        for row in range(1, 6):
            cells[CellAddress("Check", row, 2)] = Formula(f"={'Close' if row == 1 else 'close'}!A{row}*2")
        cells[CellAddress("Check", 6, 2)] = Formula("=Close!A6*3")
        head, *lines = write_snapshot_file(Snapshot(last.workbook_id, last.timestamp + hours(1), "carol", cells)).splitlines()
        shuffled = tmp_path / "shuffled.snap"
        shuffled.write_text("\n".join([head, *reversed(lines)]) + "\n")
        assert run(["ingest", ledger_dir, str(shuffled), "--policy", policy_file]) in (0, 1)
        capsys.readouterr()
        policy = gridaudit.controls.parse_policy_file(pathlib.Path(policy_file).read_text())
        ledger = Ledger.open(ledger_dir)
        checked = 0
        for entry in ledger.entries()[1:]:
            end = max(r.seq for r in (entry.ingest, entry.changeset, entry.findings, entry.attest) if r) + 1
            recorded = [f for f in entry.findings.body if f.rule_id in POLICY_RULES]
            assert Ledger(ledger.directory, ledger.raw_lines[:end]).check(policy) == recorded, entry.ingest.seq
            # the static half is the audit of the stored object, whatever order the file had
            static = gridaudit.audit.audit_workbook(ledger.load_snapshot(entry.ingest.body[0]))
            assert entry.findings.body == static + recorded, entry.ingest.seq
            checked += len(recorded)
        assert checked  # the workload seeds policy violations
        assert ("Check!B6", "=Close!RC[-1]*2") in [(str(f.location), f.expected) for f in static]


class TestIngestParsesOneSnapshot:
    def test_only_the_new_snapshot_is_parsed(self, capsys, files, tmp_path, monkeypatch):
        later = tmp_path / "s3.snap"
        later.write_text(SNAP_2.replace("2024-03-02", "2024-03-03").replace("N\t10", "N\t11"))
        for snap_file in ("s1.snap", "s2.snap"):
            run(["ingest", files["ledger"], files[snap_file], "--policy", files["policy.txt"]])
        parses, lines = [], []
        parse, parse_line = gridaudit.grid.parse_snapshot_file, gridaudit.grid._parse_cell_line
        for module in (gridaudit.grid, gridaudit.cli):
            monkeypatch.setattr(module, "parse_snapshot_file", lambda text: parses.append(text) or parse(text))
        monkeypatch.setattr(gridaudit.grid, "_parse_cell_line", lambda n, line: lines.append(line) or parse_line(n, line))
        assert run(["ingest", files["ledger"], str(later), "--policy", files["policy.txt"]]) == 0
        assert parses == [later.read_text()]
        # the new file's two lines, then the latest object's one changed
        # line: its unchanged line is the new snapshot's cell, never parsed
        assert lines == ["S\tA1\tV\tN\t6", "S\tB1\tV\tN\t11", "S\tB1\tV\tN\t10"]

    @pytest.mark.parametrize("ingests", [10, 20, 40])
    def test_ingest_parses_the_new_file_and_the_stored_lines_it_changed(self, tmp_path, monkeypatch, ingests):
        """history-long at smoke rows: each ingest parses the new file's cell
        lines and, after the first, the latest object's lines that are not
        among the new snapshot's canonical lines, however long the history.
        Its trend rules replay the history from the first object, which
        adds that object's lines once it is no longer the latest."""
        workloads = _workloads()
        params = dict(workloads.SIZES["history-long"]["smoke"], ingests=ingests)
        plan = workloads._history_long(random.Random("history-long:7"), tmp_path, params)
        monkeypatch.chdir(tmp_path)
        parse_line, parsed = gridaudit.grid._parse_cell_line, []
        monkeypatch.setattr(gridaudit.grid, "_parse_cell_line", lambda n, line: parsed.append(line) or parse_line(n, line))
        stored = []  # the cell lines of each ingest's object, as stored
        for step in plan["ingest_pass"]:
            parsed.clear()
            assert run(step["argv"]) == step["exit"], step["argv"]
            counted = sorted(parsed)
            text = pathlib.Path(step["argv"][2]).read_text()
            new = parse_snapshot_file(text)
            expected = list(read_stored_lines(text)[-1])
            if stored:
                canonical = set(CellLines(new.cells))
                expected += [line for line in stored[-1] if line not in canonical]
                if len(stored) > 1 and stored[0] != stored[-1]:
                    expected += stored[0]
            assert counted == sorted(expected), step["argv"]
            stored.append(list(read_stored_lines(pathlib.Path("ledger", "objects", snapshot_digest(new)).read_text())[-1]))


class TestDiffParsesSharedLinesOnce:
    """diff parses the second file against the first file's lines, so a
    line the two share is parsed once, and prints no digest, so it hashes
    nothing; every check of either file still holds."""

    def test_each_distinct_line_is_parsed_once_and_nothing_hashed(self, capsys, tmp_path, monkeypatch):
        rng = random.Random(20240301)
        before = random_snapshot(rng, max_cells=400)
        after = mutate_snapshot(rng, before, T0 + hours(1))
        paths, distinct = [], set()
        for name, snapshot in (("a.snap", before), ("b.snap", after)):
            text = write_snapshot_file(snapshot)
            (tmp_path / name).write_text(text, encoding="utf-8")
            paths.append(str(tmp_path / name))
            distinct.update(text.split("\n")[1:-1])
        calls = Counter()
        parse_line, sha256 = gridaudit.grid._parse_cell_line, gridaudit.grid.sha256
        monkeypatch.setattr(gridaudit.grid, "_parse_cell_line", lambda n, line: calls.update(["parse"]) or parse_line(n, line))
        monkeypatch.setattr(gridaudit.grid, "sha256", lambda data: calls.update(["sha256"]) or sha256(data))
        assert run(["diff", *paths]) == 0
        assert capsys.readouterr().out
        assert calls["sha256"] == 0
        assert calls["parse"] == len(distinct) < len(before.cells) + len(after.cells)

    HEAD_A = "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\n"
    HEAD_B = "SNAP1\twb1\t2024-03-02T09:00:00Z\tbob\n"

    @pytest.mark.parametrize(
        "a, b, code, out, err",
        [
            pytest.param(
                HEAD_A + "S\tA1\tV\tN\t5\nS\tB1\tV\tN\t10\n", HEAD_B + "S\tA1\tV\tN\t5\nS\tA1\tV\tN\t5\n",
                2, "", "error: duplicate cell S!A1\n", id="B-repeats-a-line-A-holds",
            ),
            pytest.param(
                HEAD_A + "S\tA1\tV\tN\t5\n", HEAD_B + "S\tA1\tV\tN\t5\ns\tA1\tV\tN\t5\n",
                2, "", "error: duplicate cell s!A1\n", id="B-repeats-an-address-respelt",
            ),
            pytest.param(
                HEAD_A + "S\tA1\tV\tN\t5\nS\tB1\tV\tN\t10\n", HEAD_B + "S\tA1\tV\tN\t5\nS\tB1\tV\tN\t10\nS\tZZ\tV\tN\t1\n",
                2, "", "error: line 4: bad A1 address 'ZZ'\n", id="malformed-only-in-B",
            ),
            pytest.param(
                HEAD_A + "S\tZZ\tV\tN\t1\nS\tA1\tV\tN\t5\n", HEAD_B + "S\tA1\tV\tN\t5\nS\tB1\tV\tN\t10\nS\tZZ\tV\tN\t1\n",
                2, "", "error: line 2: bad A1 address 'ZZ'\n", id="malformed-in-both-reported-from-A",
            ),
            pytest.param(
                HEAD_A + "S\tA1\tV\tN\t5\n", HEAD_B.replace("wb1", "wb2") + "S\tA1\tV\tN\t5\n",
                2, "", "error: cannot diff 'wb1' against 'wb2'\n", id="different-workbooks",
            ),
            pytest.param(
                HEAD_A + "S\tA1\tV\tN\t5\nS\tB1\tV\tN\t10\nT\tA1\tV\tN\t2\n",
                HEAD_B + "S\tA1\tV\tN\t5.0\ns\tB1\tV\tN\t10\nT\tA1\tV\tN\t3\n",
                0, "Removed\tS!B1\t10\t-\nAdded\ts!B1\t-\t10\nDataChanged\tT!A1\t2\t3\n", "", id="respelt-sheet-and-number",
            ),
        ],
    )
    def test_checks_and_output_are_unchanged(self, capsys, tmp_path, a, b, code, out, err):
        (tmp_path / "a.snap").write_text(a, encoding="utf-8")
        (tmp_path / "b.snap").write_text(b, encoding="utf-8")
        assert run(["diff", str(tmp_path / "a.snap"), str(tmp_path / "b.snap")]) == code
        assert capsys.readouterr() == (out, err)


class TestMissingObject:
    def test_check_reports_missing_object_as_integrity_error(self, capsys, files, tmp_path):
        # a trend rule replays S!A1's history from the first stored object
        policy = tmp_path / "policy_trend.txt"
        policy.write_text("workbook = wb1\n\n[trend]\ncell = S!A1\n")
        for snap_file in ("s1.snap", "s2.snap"):
            assert run(["ingest", files["ledger"], files[snap_file], "--policy", str(policy)]) == 0
        assert run(["check", files["ledger"], "--policy", str(policy)]) == 0
        capsys.readouterr()
        first = Ledger.open(files["ledger"]).ingests()[0][0]
        (tmp_path / "ledger" / "objects" / first).unlink()
        assert run(["check", files["ledger"], "--policy", str(policy)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integrity error" in captured.err

    def test_region_rules_read_no_object(self, capsys, files, tmp_path):
        for snap_file in ("fm1.snap", "fm2.snap"):
            assert run(["ingest", files["ledger"], files[snap_file], "--policy", files["policy_fm.txt"]]) == 0
        for stored in (tmp_path / "ledger" / "objects").iterdir():
            stored.unlink()
        capsys.readouterr()
        assert run(["check", files["ledger"], "--policy", files["policy_fm.txt"]]) == 0
        assert capsys.readouterr() == ("", "")


class TestSignOff:
    """A change set's sign-off is the ATTEST record its ingest appended,
    never the ATTEST line of a stored object, which its digest leaves out."""

    POLICY = "workbook = wb1\n\n[region]\nrange = S!B1\nmode = FORMULA_MAINTAINED\nticket_required = true\n"

    @staticmethod
    def _snap(tmp_path, day, formula, attestation=None):
        path = tmp_path / f"d{day}.snap"
        path.write_text(
            f"SNAP1\twb1\t2024-03-0{day}T09:00:00Z\talice\n"
            + (f"ATTEST\t{attestation}\n" if attestation else "")
            + f"S\tB1\tF\t{formula}\n"
        )
        return str(path)

    def test_attested_revert_is_judged_by_its_own_sign_off(self, capsys, files, tmp_path):
        # s3 has s1's content, so its digest names s1's stored object,
        # whose ATTEST line (none) is not s3's sign-off
        policy = tmp_path / "policy_ticket.txt"
        policy.write_text(self.POLICY)
        snaps = [
            self._snap(tmp_path, 1, "=A1"),
            self._snap(tmp_path, 2, "=A2", "APP-1 change"),
            self._snap(tmp_path, 3, "=A1", "APP-2 revert"),
        ]
        assert [run(["ingest", files["ledger"], s, "--policy", str(policy)]) for s in snaps] == [0, 0, 0]
        assert run(["check", files["ledger"], "--policy", str(policy)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_an_attest_line_added_to_an_object_signs_nothing_off(self, capsys, files, tmp_path):
        policy = tmp_path / "policy_ticket.txt"
        policy.write_text(self.POLICY)
        for day, formula in ((1, "=A1"), (2, "=A2")):
            run(["ingest", files["ledger"], self._snap(tmp_path, day, formula), "--policy", str(policy)])
        latest = tmp_path / "ledger" / "objects" / Ledger.open(files["ledger"]).ingests()[-1][0]
        header, body = latest.read_text().split("\n", 1)
        latest.write_text(f"{header}\nATTEST\tapproved CHG-9\n{body}")
        capsys.readouterr()
        assert run(["check", files["ledger"], "--policy", str(policy)]) == 1
        assert "UNATTESTED_LOGIC_CHANGE" in capsys.readouterr().out
        assert run(["verify", files["ledger"]]) == 0
        assert capsys.readouterr().out == "OK n=4\n"


class TestReport:
    def _seed(self, files):
        run(["ingest", files["ledger"], files["s1.snap"], "--policy", files["policy.txt"]])
        run(["ingest", files["ledger"], files["s2.snap"], "--policy", files["policy.txt"]])

    ARGS = [
        "--from", "2024-03-01T00:00:00Z",
        "--to", "2024-03-31T00:00:00Z",
        "--generated-at", "2024-04-01T00:00:00Z",
    ]

    def test_report_exit_one_on_material_weakness(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        code = run(["report", files["ledger"], "--policy", files["policy.txt"], *self.ARGS])
        out = capsys.readouterr().out
        assert code == 1
        assert "LOCKED_REGION_CHANGE" in out

    def test_report_written_to_file_and_deterministic(self, capsys, files, tmp_path):
        self._seed(files)
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        run(["report", files["ledger"], "--policy", files["policy.txt"], *self.ARGS, "--out", str(out_a)])
        run(["report", files["ledger"], "--policy", files["policy.txt"], *self.ARGS, "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_json_format(self, capsys, files):
        self._seed(files)
        capsys.readouterr()
        run(["report", files["ledger"], "--policy", files["policy.txt"], *self.ARGS, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["workbook_id"] == "wb1"
        assert doc["findings_by_section"]["103"]

    def test_empty_ledger_exits_two(self, capsys, files, tmp_path):
        empty = str(tmp_path / "fresh")
        assert run(["report", empty, "--policy", files["policy.txt"], *self.ARGS]) == 2


class TestStoredObjectDigest:
    FORGERIES = {
        "edited-value": lambda data: data.replace(b"S\tA1\tV\tN\t5\n", b"S\tA1\tV\tN\t999999\n"),
        # parses to an equal value, but its stored line is no longer the canonical one
        "re-encoded-value": lambda data: data.replace(b"S\tA1\tV\tN\t5\n", b"S\tA1\tV\tN\t5.000\n"),
        "undecodable-byte": lambda data: data + b"\xff",
        "truncated-line": lambda data: data[:-3],
    }

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_edited_first_object_is_an_integrity_error(self, capsys, files, tmp_path, forgery):
        for snap_file in ("s1.snap", "s2.snap"):
            run(["ingest", files["ledger"], files[snap_file]])
        first = Ledger.open(files["ledger"]).ingests()[0][0]
        path = tmp_path / "ledger" / "objects" / first
        forged = self.FORGERIES[forgery](path.read_bytes())
        assert forged != path.read_bytes()
        path.write_bytes(forged)
        capsys.readouterr()
        for argv in (
            ["trend", files["ledger"], "S!A1"],
            ["history", files["ledger"], "S!A1"],
            ["profile", files["ledger"]],
            ["report", files["ledger"], "--policy", files["policy.txt"], *TestReport.ARGS],
        ):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert "999999" not in captured.out
            assert "integrity error" in captured.err


class TestForgedObjectName:
    @pytest.mark.parametrize("relative", [False, True], ids=["absolute-path", "dot-dot-path"])
    def test_an_object_name_that_is_not_a_digest_is_never_opened(self, capsys, files, tmp_path, relative):
        # a re-chained INGEST naming a file outside objects/ still verifies
        secret = tmp_path / "secret.txt"
        secret.write_text("top secret first line\n")
        name = "../../secret.txt" if relative else str(secret)
        forged = Ledger.open(tmp_path / "ledger")
        at = parse_snapshot_file(SNAP_1).timestamp
        forged.append_record("INGEST", serialize_ingest(name, at, "alice"), at)
        assert run(["verify", files["ledger"]]) == 0
        assert capsys.readouterr().out == "OK n=1\n"
        for argv in (
            ["profile", files["ledger"]],
            ["trend", files["ledger"], "S!A1"],
            ["ingest", files["ledger"], files["s2.snap"]],
        ):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"integrity error: ledger record 0 names object {name!r}, which is not a digest\n"


class TestTornObjectWrite:
    @staticmethod
    def _torn(monkeypatch):
        """Make the next object write stop after half its bytes."""
        write_bytes = pathlib.Path.write_bytes

        def torn(path, data):
            write_bytes(path, data[: len(data) // 2])
            raise OSError("write cut short")

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn)

    @pytest.mark.parametrize("which", ["first", "latest"])
    def test_a_retried_ingest_stores_the_whole_object(self, capsys, files, tmp_path, monkeypatch, which):
        # the ingest that was cut short appended nothing; the retry must
        # not keep the half-written object under its digest name
        ledger = files["ledger"]
        if which == "latest":
            assert run(["ingest", ledger, files["s1.snap"]]) == 0
        cut_short = files["s1.snap" if which == "first" else "s2.snap"]
        with monkeypatch.context() as patch:
            self._torn(patch)
            assert run(["ingest", ledger, cut_short]) == 2
        assert run(["ingest", ledger, cut_short]) == 0
        later = tmp_path / "s3.snap"
        later.write_text(SNAP_2.replace("2024-03-02", "2024-03-03").replace("N\t10", "N\t11"))
        assert run(["profile", ledger] if which == "first" else ["ingest", ledger, str(later)]) == 0
        reopened = Ledger.open(ledger)
        digests = [digest for digest, _, _ in reopened.ingests()]
        assert sorted(p.name for p in (tmp_path / "ledger" / "objects").iterdir()) == sorted(digests)
        for digest in digests:
            reopened.load_snapshot(digest)  # raises unless whole and hashing to its name

    def test_a_write_cut_short_leaves_no_temp_file(self, capsys, files, tmp_path, monkeypatch):
        ledger, objects = files["ledger"], tmp_path / "ledger" / "objects"
        assert run(["ingest", ledger, files["s1.snap"]]) == 0
        with monkeypatch.context() as patch:
            self._torn(patch)
            assert run(["ingest", ledger, files["s2.snap"]]) == 2
        assert list(objects.glob("*.tmp")) == []
        later = tmp_path / "s3.snap"
        later.write_text(SNAP_2.replace("2024-03-02", "2024-03-03").replace("N\t10", "N\t11"))
        assert run(["ingest", ledger, str(later)]) == 0
        assert list(objects.glob("*.tmp")) == []
        assert len(list(objects.iterdir())) == 2


class TestRejectedFirstIngest:
    @pytest.mark.parametrize("where", ["ledger", "a/b/ledger"])
    def test_leaves_no_directory_behind(self, capsys, files, tmp_path, where):
        other = tmp_path / "other.txt"
        other.write_text(POLICY.replace("wb1", "other"), encoding="utf-8")
        ledger = str(tmp_path / where)
        assert run(["ingest", ledger, files["s1.snap"], "--policy", str(other)]) == 2
        assert capsys.readouterr().err == "error: policy is for 'other', snapshot is 'wb1'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*files.keys() - {"ledger"}, "other.txt"])
        for argv in (["verify", ledger], ["profile", ledger]):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: no ledger directory at {ledger!r}\n"
        assert run(["ingest", ledger, files["s1.snap"], "--policy", files["policy.txt"]]) == 0
        assert run(["verify", ledger]) == 0

    def test_a_rejected_ingest_keeps_a_directory_it_did_not_make(self, capsys, files, tmp_path):
        other = tmp_path / "other.txt"
        other.write_text(POLICY.replace("wb1", "other"), encoding="utf-8")
        (tmp_path / "ledger").mkdir()
        assert run(["ingest", files["ledger"], files["s1.snap"], "--policy", str(other)]) == 2
        assert [p.name for p in (tmp_path / "ledger").iterdir()] == ["ledger.log"]

    def test_a_writer_waiting_on_the_removed_log_locks_a_new_one(self, tmp_path):
        directory, holding, written = tmp_path / "ledger", threading.Event(), threading.Event()

        def rejected():
            with pytest.raises(ValueError):
                with gridaudit.ledger._exclusive_lock(directory):
                    holding.set()
                    time.sleep(0.3)  # the other writer opens the log and waits for its lock
                    raise ValueError("rejected")

        def accepted():
            holding.wait(5)
            with gridaudit.ledger._exclusive_lock(directory):
                # fails unless the lock is held on a log at the path again
                with (directory / "ledger.log").open("r+", encoding="utf-8") as fh:
                    fh.write("written\n")
                written.set()

        threads = [threading.Thread(target=rejected), threading.Thread(target=accepted)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert written.is_set()
        assert (directory / "ledger.log").read_text(encoding="utf-8") == "written\n"


def _later_text(day: int) -> str:
    """SNAP_2 moved to 2024-03-<day>, with S!A1 = day."""
    return SNAP_2.replace("2024-03-02", f"2024-03-{day:02}").replace("N\t6", f"N\t{day}")


def _later(tmp_path, day: int) -> str:
    """The path of _later_text(day), written under tmp_path."""
    path = tmp_path / f"s{day}.snap"
    path.write_text(_later_text(day))
    return str(path)


TREND_POLICY = """workbook = wb1

[trend]
cell = S!A1
"""


class TestTornLog:
    @pytest.mark.parametrize("cut", [1, 20], ids=["newline", "newline-and-hash-tail"])
    def test_a_final_line_without_its_newline_fails_every_command(self, capsys, files, tmp_path, cut):
        ledger, directory = files["ledger"], tmp_path / "ledger"
        for snap_file in ("s1.snap", "s2.snap"):
            assert run(["ingest", ledger, files[snap_file]]) == 0
        log = directory / "ledger.log"
        log.write_bytes(log.read_bytes()[:-cut])
        before = TestReadOnlyCommands._listing(directory)
        capsys.readouterr()
        reason = "final line does not end in a newline (a write cut short)"
        assert run(["verify", ledger]) == 3
        assert capsys.readouterr() == ("FAIL seq=3 n=4\n", f"reason: {reason}\n")
        for argv in (
            ["trend", ledger, "S!A1"],
            ["history", ledger, "S!A1"],
            ["profile", ledger],
            ["check", ledger, "--policy", files["policy.txt"]],
            ["ingest", ledger, _later(tmp_path, 3)],
        ):
            assert run(argv) == 3, argv
            assert capsys.readouterr() == ("", f"integrity error: ledger record 3 is corrupt: {reason}\n"), argv
        assert run(["report", ledger, "--policy", files["policy.txt"], *TestReport.ARGS]) == 3
        assert TestReadOnlyCommands._listing(directory) == before


class TestTornIngest:
    @pytest.mark.parametrize("kept, missing", [(5, "CHANGESET"), (6, "FINDINGS")])
    def test_an_ingest_cut_short_is_refused_and_not_extended(self, capsys, files, tmp_path, kept, missing):
        # a writer killed after the 3rd INGEST (5 lines) or its CHANGESET (6)
        ledger, directory = files["ledger"], tmp_path / "ledger"
        for path in (files["s1.snap"], files["s2.snap"], _later(tmp_path, 3)):
            assert run(["ingest", ledger, path]) == 0
        log = directory / "ledger.log"
        log.write_text("".join(log.read_text().splitlines(keepends=True)[:kept]))
        trend = tmp_path / "trend.txt"
        trend.write_text(TREND_POLICY)
        before = TestReadOnlyCommands._listing(directory)
        capsys.readouterr()
        for argv in (
            ["check", ledger, "--policy", files["policy.txt"]],
            ["check", ledger, "--policy", str(trend)],
            ["ingest", ledger, _later(tmp_path, 4)],
            ["ingest", ledger, _later(tmp_path, 4), "--policy", str(trend)],
            ["trend", ledger, "S!A1"],
            ["history", ledger, "S!A1"],
            ["profile", ledger],
            ["report", ledger, "--policy", files["policy.txt"], *TestReport.ARGS],
        ):
            assert run(argv) == 3, argv
            message = f"integrity error: ledger record 4 (INGEST) has no {missing}: its ingest was cut short\n"
            assert capsys.readouterr() == ("", message), argv
        assert TestReadOnlyCommands._listing(directory) == before
        assert run(["verify", ledger]) == 0
        torn = Ledger.open(ledger).entries()[-1]
        assert torn.ingest.seq == 4 and torn.findings is None
        assert (torn.changeset is None) == (missing == "CHANGESET")


class TestOneWritePath:
    def _two_ingests(self, files):
        for snap_file in ("s1.snap", "s2.snap"):
            assert run(["ingest", files["ledger"], files[snap_file]]) == 0

    def test_an_ingest_through_a_prefix_view_appends_after_the_latest_record(self, capsys, files, tmp_path):
        self._two_ingests(files)
        directory = tmp_path / "ledger"
        view = Ledger(directory, Ledger.open(directory).raw_lines[:1])
        view.ingest_snapshot(parse_snapshot_file(_later_text(3)))
        capsys.readouterr()
        assert run(["verify", files["ledger"]]) == 0
        assert capsys.readouterr().out == "OK n=7\n"
        reopened = Ledger.open(directory)
        assert [r.kind for r in reopened.records][4:] == ["INGEST", "CHANGESET", "FINDINGS"]
        assert reopened.ingests()[-1][1] == parse_snapshot_file(_later_text(3)).timestamp
        assert view.raw_lines == reopened.raw_lines

    def test_two_ledgers_opened_before_either_ingests_both_land(self, capsys, files, tmp_path):
        self._two_ingests(files)
        first, second = Ledger.open(files["ledger"]), Ledger.open(files["ledger"])
        first.ingest_snapshot(parse_snapshot_file(_later_text(3)))
        second.ingest_snapshot(parse_snapshot_file(_later_text(4)))
        capsys.readouterr()
        assert run(["verify", files["ledger"]]) == 0
        assert capsys.readouterr().out == "OK n=10\n"
        entries = Ledger.open(files["ledger"]).entries()
        assert len(entries) == 4
        assert entries[3].changeset.body.from_digest == entries[2].ingest.body[0]
        assert entries[3].changeset.body.from_time == parse_snapshot_file(_later_text(3)).timestamp


class TestReadOnlyCommands:
    @staticmethod
    def _listing(directory):
        return {
            str(p.relative_to(directory)): p.read_bytes() if p.is_file() else None
            for p in sorted(directory.rglob("*"))
        }

    def test_verify_on_empty_directory_writes_nothing(self, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run(["verify", str(empty)]) == 0
        assert capsys.readouterr().out == "OK n=0\n"
        assert list(empty.iterdir()) == []

    def test_queries_leave_the_ledger_unchanged(self, capsys, files, tmp_path):
        for snap_file in ("s1.snap", "s2.snap"):
            run(["ingest", files["ledger"], files[snap_file], "--policy", files["policy.txt"]])
        before = self._listing(tmp_path / "ledger")
        for argv in (
            ["trend", files["ledger"], "S!A1"],
            ["history", files["ledger"], "S!A1"],
            ["profile", files["ledger"]],
            ["report", files["ledger"], "--policy", files["policy.txt"], *TestReport.ARGS],
            ["check", files["ledger"], "--policy", files["policy.txt"]],
            ["verify", files["ledger"]],
        ):
            assert run(argv) in (0, 1)
            assert self._listing(tmp_path / "ledger") == before


class TestDamagedChangeSet:
    @staticmethod
    def _rechain(files, destination, edit):
        """Copy the two-ingest ledger record by record through edit, which
        returns the new payload or None to drop the record, re-chaining
        the hashes so the copy still verifies."""
        for snap_file in ("s1.snap", "s2.snap"):
            run(["ingest", files["ledger"], files[snap_file]])
        source = Ledger.open(files["ledger"])
        damaged = Ledger.open(destination)
        for record in source.records:
            payload = edit(record)
            if payload is not None:
                damaged.append_record(record.kind, payload, record.recorded_at)
        for digest, _at, _actor in source.ingests():
            snapshot = source.load_snapshot(digest)
            damaged.store_snapshot(snapshot, CellLines(snapshot.cells), digest)

    @pytest.mark.parametrize("side", ["after", "before"])
    def test_change_set_that_does_not_replay_is_an_integrity_error(self, capsys, files, tmp_path, side):
        # rewrite one change-set event, so the log verifies but the
        # change set no longer leads to its to_digest
        def edit(record):
            if record.kind != "CHANGESET":
                return record.payload
            old = "S\tA1\tDataChanged\tV\\tN\\t5\tV\\tN\\t6"
            new = old.replace("N\\t6", "N\\t7") if side == "after" else old.replace("N\\t5", "N\\t4")
            assert old in record.payload.decode()
            return record.payload.decode().replace(old, new).encode()

        self._rechain(files, tmp_path / "damaged", edit)
        capsys.readouterr()
        assert run(["verify", str(tmp_path / "damaged")]) == 0
        capsys.readouterr()
        for argv in (
            ["trend", str(tmp_path / "damaged"), "S!A1"],
            ["history", str(tmp_path / "damaged"), "S!A1"],
            ["profile", str(tmp_path / "damaged")],
            ["report", str(tmp_path / "damaged"), "--policy", files["policy.txt"], *TestReport.ARGS],
        ):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "integrity error" in captured.err

    @pytest.mark.parametrize("side", ["after", "before"])
    def test_check_with_a_trend_rule_fails_as_trend_does(self, capsys, files, tmp_path, side):
        # the latest change set still links its two digests but does not
        # replay; check evaluates on the ledger that holds it, so a trend
        # rule whose series read replays it fails exactly as trend does
        def edit(record):
            if record.kind != "CHANGESET":
                return record.payload
            old = "S\tA1\tDataChanged\tV\\tN\\t5\tV\\tN\\t6"
            new = old.replace("N\\t6", "N\\t7") if side == "after" else old.replace("N\\t5", "N\\t4")
            return record.payload.decode().replace(old, new).encode()

        damaged = str(tmp_path / "damaged")
        self._rechain(files, tmp_path / "damaged", edit)
        policy = tmp_path / "trend.txt"
        policy.write_text("workbook = wb1\n\n[trend]\ncell = S!A1\n")
        capsys.readouterr()
        assert run(["verify", damaged]) == 0
        capsys.readouterr()
        outcomes = []
        for argv in (["check", damaged, "--policy", str(policy)], ["trend", damaged, "S!A1"]):
            outcomes.append((run(argv), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert (code, out) == (3, "")
        assert err.startswith("integrity error")

    @pytest.mark.parametrize("damage", ["dropped-change-set", "stopped-after-ingest"])
    def test_unlinked_change_sets_are_an_integrity_error(self, capsys, files, tmp_path, damage):
        # the second INGEST loses the change set that links it to the first:
        # dropped from the log, or never written because the writer
        # stopped between the INGEST and CHANGESET appends
        def edit(record):
            if record.kind == "CHANGESET" or (damage == "stopped-after-ingest" and record.kind != "INGEST"):
                return None
            return record.payload

        self._rechain(files, tmp_path / "damaged", edit)
        capsys.readouterr()
        assert run(["verify", str(tmp_path / "damaged")]) == 0
        capsys.readouterr()
        for argv in (
            ["trend", str(tmp_path / "damaged"), "S!A1"],
            ["history", str(tmp_path / "damaged"), "S!A1"],
            ["profile", str(tmp_path / "damaged")],
            ["report", str(tmp_path / "damaged"), "--policy", files["policy.txt"], *TestReport.ARGS],
        ):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "integrity error" in captured.err

    def test_empty_change_set_payload_is_a_usage_error(self, capsys, files, tmp_path):
        self._rechain(files, tmp_path / "damaged", lambda r: b"" if r.kind == "CHANGESET" else r.payload)
        capsys.readouterr()
        for argv in (
            ["trend", str(tmp_path / "damaged"), "S!A1"],
            ["history", str(tmp_path / "damaged"), "S!A1"],
            ["profile", str(tmp_path / "damaged")],
            ["report", str(tmp_path / "damaged"), "--policy", files["policy.txt"], *TestReport.ARGS],
        ):
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: bad change set header")

    CHANGE_ROW = "S\tA1\tDataChanged\tV\\tN\\t5\tV\\tN\\t6"
    ERROR_ROW = "ERROR_VALUE\tcritical\tS!A1\tcell holds literal error value #REF!\t#REF!\n"

    @pytest.mark.parametrize(
        "kind, forged",
        [
            ("CHANGESET", CHANGE_ROW.replace("DataChanged", "LogicChanged")),
            ("CHANGESET", CHANGE_ROW.replace("N\\t6", "N\\t5")),
            ("CHANGESET", "S\tC1\tRemoved\t-\t-"),
            ("FINDINGS", ERROR_ROW.replace("critical", "warning")),
        ],
        ids=["data-change-labelled-logic", "equal-sides", "no-side", "critical-labelled-warning"],
    )
    def test_a_row_with_a_kind_or_severity_its_fields_do_not_give_is_a_usage_error(
        self, capsys, files, tmp_path, kind, forged
    ):
        # the row's kind or severity is not the one its sides or its rule
        # give, or it has no two sides to give one; the log still verifies
        def edit(record):
            if record.kind != kind:
                return record.payload
            if kind == "FINDINGS":
                assert record.payload == b""  # a data change, ingested without a policy, finds nothing
                return forged.encode()
            assert self.CHANGE_ROW in record.payload.decode()
            return record.payload.decode().replace(self.CHANGE_ROW, forged).encode()

        damaged = str(tmp_path / "damaged")
        self._rechain(files, tmp_path / "damaged", edit)
        capsys.readouterr()
        assert run(["verify", damaged]) == 0
        assert capsys.readouterr().out.startswith("OK")
        readers = [["profile", damaged], ["report", damaged, "--policy", files["policy.txt"], *TestReport.ARGS]]
        if kind == "CHANGESET":
            readers += [
                ["check", damaged, "--policy", files["policy.txt"]],
                ["trend", damaged, "S!A1"],
                ["history", damaged, "S!A1"],
            ]
        line = "change set" if kind == "CHANGESET" else "finding"
        for argv in readers:
            assert run(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: bad {line} line"), argv


    # bad cell lines for an object holding S!A1 = {a1} and S!B1 = 10
    BAD_LINES = {
        "blank": ["S\tA1\tV\tN\t{a1}", "", "S\tB1\tV\tN\t10"],
        "malformed": ["S\tA1\tV\tN\t{a1}", "S\tB1\tV\tN\tten"],
        "duplicate": ["S\tA1\tV\tN\t{a1}", "S\tA1\tV\tN\t{a1}", "S\tB1\tV\tN\t10"],
        "out-of-order": ["S\tB1\tV\tN\t10", "S\tA1\tV\tN\t{a1}"],
    }

    def _forge(self, files, damaged, snap_text, cell_lines):
        """The two-ingest ledger, re-chained onto a rewrite of the object
        snap_text gave with the cell lines given, named by the digest of
        its lines: every hash still holds.  Returns the forged name."""
        forged = sha256_hex(("SNAP1\twb1\n" + "".join(line + "\n" for line in cell_lines)).encode())
        genuine = snapshot_digest(parse_snapshot_file(snap_text))
        self._rechain(files, damaged, lambda r: r.payload.replace(genuine.encode(), forged.encode()))
        header = snap_text.split("\n")[0]
        (damaged / "objects" / forged).write_text("".join(f"{line}\n" for line in [header, *cell_lines]))
        return forged

    @pytest.mark.parametrize("damage", sorted(BAD_LINES))
    def test_a_bad_line_in_the_latest_objects_unchanged_part_is_an_integrity_error(
        self, capsys, files, tmp_path, damage
    ):
        # the latest object rewritten with a bad line among cells the next
        # ingest leaves as they are
        damaged = tmp_path / "damaged"
        cell_lines = [line.format(a1=6) for line in self.BAD_LINES[damage]]
        forged = self._forge(files, damaged, SNAP_2, cell_lines)
        later = tmp_path / "s3.snap"
        later.write_text(SNAP_2.replace("2024-03-02", "2024-03-03") + "S\tC1\tV\tN\t1\n")
        capsys.readouterr()
        assert run(["verify", str(damaged)]) == 0
        before = TestReadOnlyCommands._listing(damaged)
        capsys.readouterr()
        assert run(["ingest", str(damaged), str(later)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"integrity error: stored object {forged[:12]}... does not parse: ")
        assert TestReadOnlyCommands._listing(damaged) == before

    @pytest.mark.parametrize("damage", sorted(BAD_LINES))
    def test_a_bad_line_in_the_first_object_is_an_integrity_error(self, capsys, files, tmp_path, damage):
        # every replay starts from the first object and reads all of it
        damaged = tmp_path / "damaged"
        cell_lines = [line.format(a1=5) for line in self.BAD_LINES[damage]]
        forged = self._forge(files, damaged, SNAP_1, cell_lines)
        trend_policy = tmp_path / "trend.txt"
        trend_policy.write_text("workbook = wb1\n\n[trend]\ncell = S!A1\n")
        capsys.readouterr()
        assert run(["verify", str(damaged)]) == 0
        before = TestReadOnlyCommands._listing(damaged)
        capsys.readouterr()
        for argv in (
            ["trend", str(damaged), "S!A1"],
            ["history", str(damaged), "S!A1"],
            ["profile", str(damaged)],
            ["report", str(damaged), "--policy", files["policy.txt"], *TestReport.ARGS],
            ["check", str(damaged), "--policy", str(trend_policy)],
        ):
            assert run(argv) == 3, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"integrity error: stored object {forged[:12]}... does not parse: ")
            assert TestReadOnlyCommands._listing(damaged) == before

    def test_a_record_out_of_place_is_an_integrity_error(self, capsys, files, tmp_path):
        # the change set re-appended after its FINDINGS: the log verifies,
        # but the second ingest's records are out of order
        dropped = []

        def edit(record):
            if record.kind == "CHANGESET":
                dropped.append(record)
                return None
            return record.payload

        damaged = tmp_path / "damaged"
        self._rechain(files, damaged, edit)
        Ledger.open(damaged).append_record("CHANGESET", dropped[0].payload, dropped[0].recorded_at)
        later = tmp_path / "s3.snap"
        later.write_text(SNAP_2.replace("2024-03-02", "2024-03-03").replace("N\t10", "N\t11"))
        capsys.readouterr()
        assert run(["verify", str(damaged)]) == 0
        assert capsys.readouterr().out == "OK n=4\n"
        for argv in (
            ["trend", str(damaged), "S!A1"],
            ["history", str(damaged), "S!A1"],
            ["profile", str(damaged)],
            ["check", str(damaged), "--policy", files["policy.txt"]],
            ["report", str(damaged), "--policy", files["policy.txt"], *TestReport.ARGS],
            ["ingest", str(damaged), str(later)],
        ):
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "integrity error: ledger record 3 (CHANGESET) is out of place\n"


    def test_a_change_set_in_the_first_entry_is_an_integrity_error(self, capsys, files, tmp_path):
        # the second INGEST dropped: the first ingest, which has nothing to
        # diff against, now holds a CHANGESET and FINDINGS
        damaged = tmp_path / "damaged"
        self._rechain(files, damaged, lambda r: None if r.seq == 1 else r.payload)
        capsys.readouterr()
        assert run(["verify", str(damaged)]) == 0
        assert capsys.readouterr().out == "OK n=3\n"
        for argv in (
            ["check", str(damaged), "--policy", files["policy.txt"]],
            ["trend", str(damaged), "S!A1"],
            ["history", str(damaged), "S!A1"],
            ["profile", str(damaged)],
            ["report", str(damaged), "--policy", files["policy.txt"], *TestReport.ARGS],
        ):
            assert run(argv) == 3, argv[0]
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "integrity error: ledger record 1 (CHANGESET) is out of place\n"


class TestNumberRange:
    def test_digits_past_28_record_no_phantom_change(self, capsys, tmp_path):
        ledger = str(tmp_path / "ledger")
        long = "1.2345678901234567890123456789012"
        for day, a2 in ((1, 1), (2, 2)):
            path = tmp_path / f"s{day}.snap"
            path.write_text(f"SNAP1\twb1\t2024-03-0{day}T09:00:00Z\talice\nS\tA1\tV\tN\t{long}\nS\tA2\tV\tN\t{a2}\n")
            assert run(["ingest", ledger, str(path)]) == 0
        capsys.readouterr()
        assert run(["history", ledger, "S!A1"]) == 0
        assert capsys.readouterr().out == ""
        assert run(["trend", ledger, "S!A1"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [f"2024-03-01T09:00:00Z\t{long}", f"2024-03-02T09:00:00Z\t{long}"]
        assert run(["profile", ledger]) == 0
        assert "mean_data_volatility\t0.5000\n" in capsys.readouterr().out

    @pytest.mark.parametrize("raw", ["1e5000000", "1e-5000000"])
    def test_snapshot_number_out_of_range_is_a_usage_error(self, capsys, tmp_path, raw):
        path = tmp_path / "big.snap"
        path.write_text(f"SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nS\tA1\tV\tN\t{raw}\n")
        assert run(["ingest", str(tmp_path / "ledger"), str(path)]) == 2
        assert "must be finite, with an exponent within ±999999" in capsys.readouterr().err
        assert not (tmp_path / "ledger" / "objects").exists()

    def test_bound_out_of_range_is_a_usage_error(self, capsys, files, tmp_path):
        policy = tmp_path / "big.txt"
        policy.write_text("workbook = wb1\n\n[bounds]\nrange = S!A1:A9\nmin = 1e5000000\n")
        codes = [run(["ingest", files["ledger"], files[name], "--policy", str(policy)]) for name in ("s1.snap", "s2.snap")]
        assert codes == [2, 2]
        assert "bounds must be finite numbers with exponents within ±999999" in capsys.readouterr().err

    def test_unreadable_formulas_are_parse_failures(self, capsys, files, tmp_path):
        path = tmp_path / "f.snap"
        row = "1" * 5000
        path.write_text(f"SNAP1\twb1\t2024-03-03T09:00:00Z\tbob\nS\tA1\tF\t=A{row}+1\nS\tB1\tF\t=B2*1e5000000\nS\tC1\tV\tE\t#REF!\n")
        assert run(["audit", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:3] for line in lines] == [
            ["warning", "PARSE_FAILURE", "S!A1"],
            ["warning", "PARSE_FAILURE", "S!B1"],
            ["critical", "ERROR_VALUE", "S!C1"],
        ]
        assert run(["ingest", files["ledger"], files["s1.snap"]]) == 0
        assert run(["ingest", files["ledger"], str(path)]) == 1
        assert run(["verify", files["ledger"]]) == 0


class TestTrendPastTheFloatRange:
    POLICY = "workbook = wb1\n\n[trend]\ncell = S!A1\nwindow = 5\n"
    # past the float range; the last is an outlier of the five before it
    VALUES = [1, 2, 3, 4, 5, 6, 70]

    def _ingest_all(self, tmp_path, *policy):
        ledger = str(tmp_path / "ledger")
        codes = []
        for day, value in enumerate(self.VALUES, 1):
            path = tmp_path / f"s{day}.snap"
            path.write_text(f"SNAP1\twb1\t2024-03-0{day}T09:00:00Z\talice\nS\tA1\tV\tN\t{value}e400\n")
            codes.append(run(["ingest", ledger, str(path), *policy]))
        return ledger, codes

    def test_trend_prints_a_verdict(self, capsys, tmp_path):
        ledger, _ = self._ingest_all(tmp_path)
        capsys.readouterr()
        assert run(["trend", ledger, "S!A1", "--window", "5"]) == 0
        *points, verdict = capsys.readouterr().out.splitlines()
        assert points == [f"2024-03-0{day}T09:00:00Z\t{value * 10**400}" for day, value in enumerate(self.VALUES, 1)]
        fields = dict(field.split("=") for field in verdict.split("\t")[1:])
        mean, sd, z = exact_trend_stats(self.VALUES[1:-1], self.VALUES[-1])
        assert fields["mean"] == f"{4 * 10**400}.000000"
        assert abs(Decimal(fields["stddev"]).scaleb(-400) - sd) <= Decimal("1e-20")
        assert (fields["z"], fields["violated"]) == (f"{z:.6f}", "true")

    def test_ingest_and_check_flag_the_outlier(self, capsys, tmp_path):
        policy = tmp_path / "policy.txt"
        policy.write_text(self.POLICY)
        ledger, codes = self._ingest_all(tmp_path, "--policy", str(policy))
        assert codes == [0, 0, 0, 0, 0, 0, 1]
        assert capsys.readouterr().out.split("\t")[:3] == ["critical", "TREND_DEVIATION", "S!A1"]
        assert run(["check", ledger, "--policy", str(policy)]) == 1
        assert capsys.readouterr().out.split("\t")[:3] == ["critical", "TREND_DEVIATION", "S!A1"]


class TestNonFiniteNumbers:
    def test_nan_bound_is_a_usage_error(self, capsys, files, tmp_path):
        policy = tmp_path / "nan.txt"
        policy.write_text("workbook = wb1\n\n[bounds]\nrange = S!A1:A9\nmin = NaN\n")
        codes = [
            run(["ingest", files["ledger"], files[name], "--policy", str(policy)]) for name in ("s1.snap", "s2.snap")
        ]
        assert codes == [2, 2]
        assert "bounds must be finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policy_text, message",
        [
            ("workbook = wb1\n\n[region]\nrange = S!A1:A9\nmode = LOCKED\nmode = FREE\n",
             "[region] stanza repeats key 'mode'"),
            ("workbook = wb1\nworkbook = wb2\n\n[region]\nrange = S!A1:A9\nmode = LOCKED\n",
             "line 2: `workbook` is declared twice"),
            ("workbook = wb1\n\n[bounds]\nrange = S!A1:A9\nmin = 10\nmax = 0\n",
             "bad [bounds] stanza: min must not exceed max"),
        ],
        ids=["repeated-mode", "second-workbook", "crossed-bounds"],
    )
    def test_ambiguous_policy_is_a_usage_error(self, capsys, files, tmp_path, policy_text, message):
        """A policy whose later line would silently undo an earlier one, or
        whose bounds no value can meet, is refused before anything is written."""
        policy = tmp_path / "ambiguous.txt"
        policy.write_text(policy_text)
        assert run(["ingest", files["ledger"], files["s1.snap"], "--policy", files["policy.txt"]]) == 0
        log = tmp_path / "ledger" / "ledger.log"
        before = log.read_bytes()
        capsys.readouterr()
        assert run(["ingest", files["ledger"], files["s2.snap"], "--policy", str(policy)]) == 2
        assert run(["check", files["ledger"], "--policy", str(policy)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(message) == 2
        assert log.read_bytes() == before

    def test_repeated_audit_config_key_is_a_usage_error(self, capsys, files, tmp_path):
        config = tmp_path / "audit.cfg"
        config.write_text("if_depth_threshold = 3\nif_depth_threshold = 30\n")
        assert run(["audit", files["deep.snap"], "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "error: line 2: repeats key 'if_depth_threshold'\n")

    @pytest.mark.parametrize("constant", ["sNaN", "NaN", "-Infinity"])
    def test_non_finite_whitelist_constant_is_a_usage_error(self, capsys, files, tmp_path, constant):
        config = tmp_path / "audit.cfg"
        config.write_text(f"constant_whitelist = 0, 1, {constant}\n")
        assert run(["audit", files["deep.snap"], "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: constant_whitelist takes finite numbers only\n"


# an error a handler raises -> the exit code and stderr it gives
ERROR_EXITS = [
    (LedgerCorrupt(2, "forged"), 3, "integrity error: ledger record 2 is corrupt: forged\n"),
    (MissingObject("no object"), 3, "integrity error: no object\n"),
    (DigestMismatch("digest differs"), 3, "integrity error: digest differs\n"),
    (ConflictingEvent("content differs"), 3, "integrity error: content differs\n"),
    (NonMonotonicTimestamp("too early"), 2, "error: too early\n"),
]


class TestErrorClasses:
    @pytest.mark.parametrize("error, code, err", ERROR_EXITS, ids=[type(error).__name__ for error, _, _ in ERROR_EXITS])
    def test_the_error_class_decides_the_exit_code(self, capsys, files, monkeypatch, error, code, err):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr("gridaudit.audit.audit_workbook", fail)
        assert run(["audit", files["s1.snap"]]) == code
        assert capsys.readouterr() == ("", err)


class TestInternalError:
    def test_uncaught_exception_exits_four(self, capsys, files, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("audit crashed")

        monkeypatch.setattr("gridaudit.audit.audit_workbook", crash)
        assert run(["audit", files["s1.snap"]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: RuntimeError: ")

    def test_uncaught_exception_prints_its_traceback(self, capsys, files, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("audit crashed")

        monkeypatch.setattr("gridaudit.audit.audit_workbook", crash)
        assert run(["audit", files["s1.snap"]]) == 4
        err = capsys.readouterr().err
        assert "Traceback (most recent call last)" in err
        assert err.rstrip().endswith("RuntimeError: audit crashed")


# zero, or a number with any adjusted exponent a snapshot or policy accepts
NUMBERS = st.just(Decimal(0)) | st.builds(
    lambda sign, digit, fraction, exponent: Decimal(f"{sign}{digit}{fraction}e{exponent}"),
    st.sampled_from(["", "-"]),
    st.integers(1, 9),
    st.sampled_from(["", ".5", ".25"]),
    st.integers(-MAX_EXPONENT, MAX_EXPONENT),
)
_CELLS = [CellAddress("S", row, col) for row in (1, 2) for col in (1, 2)]
_NUMBER_CONTENTS = NUMBERS.map(Number) | NUMBERS.map(lambda n: Formula(f"=S!A1*{n:E}", Number(n)))
_STANZAS = [
    "[trend]\ncell = S!A1\nwindow = 5\n",
    "[region]\nrange = S!B1:B2\nmode = FORMULA_MAINTAINED\n",
    "[cadence]\nrange = S!A1:B2\nwindow = Mon-Fri 9-17\n",
    "[workflow]\nstep = load S!A1\nstep = calc S!B1\n",
]


@st.composite
def _policies(draw):
    low, high = sorted([draw(NUMBERS), draw(NUMBERS)])
    stanzas = draw(st.lists(st.sampled_from([*_STANZAS, f"[bounds]\nrange = S!A1:B2\nmin = {low}\nmax = {high}\n"]), unique=True))
    return "\n".join(["workbook = wb1\n", *stanzas])


class TestNoInternalError:
    """Generated snapshots and policies through every command that reads
    them: each ends in a verdict or a documented exit code, never exit 4."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.dictionaries(st.sampled_from(_CELLS), CONTENTS | _NUMBER_CONTENTS, max_size=3), st.none() | NUMBERS),
            min_size=2,
            max_size=7,
        ),
        _policies(),
    )
    def test_no_command_exits_four(self, sequence, policy_text):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, (cells, a1) in enumerate(sequence):
                if a1 is not None:  # S!A1 holds the trend rule's series
                    cells = {**cells, _CELLS[0]: Number(a1)}
                paths.append(f"{tmp}/s{i}.snap")
                pathlib.Path(paths[-1]).write_text(write_snapshot_file(Snapshot("wb1", T0 + hours(i), "alice", cells)))
            policy, ledger = f"{tmp}/policy.txt", f"{tmp}/ledger"
            pathlib.Path(policy).write_text(policy_text)
            commands = [["ingest", ledger, path, "--policy", policy] for path in paths] + [
                ["check", ledger, "--policy", policy],
                ["trend", ledger, "S!A1", "--window", "5"],
                ["history", ledger, "S!A1"],
                ["profile", ledger],
                ["report", ledger, "--policy", policy, *TestReport.ARGS],
                ["audit", paths[-1]],
                ["diff", paths[0], paths[-1]],
            ]
            for argv in commands:
                err = io.StringIO()
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = run(argv)
                assert code in (0, 1, 2, 3), (argv[0], err.getvalue()[-2000:])
