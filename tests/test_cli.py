"""Command-line behavior: subcommands, exit codes, output streams."""

import json

import pytest

from gridaudit.cli import run
from gridaudit.grid import parse_snapshot_file
from gridaudit.ledger import Ledger

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


class TestMissingObject:
    def test_check_reports_missing_object_as_integrity_error(self, capsys, files, tmp_path):
        for snap_file in ("fm1.snap", "fm2.snap"):
            assert run(["ingest", files["ledger"], files[snap_file], "--policy", files["policy_fm.txt"]]) == 0
        assert run(["check", files["ledger"], "--policy", files["policy_fm.txt"]]) == 0
        capsys.readouterr()
        latest = Ledger.open(files["ledger"]).ingests()[-1][0]
        (tmp_path / "ledger" / "objects" / latest).unlink()
        assert run(["check", files["ledger"], "--policy", files["policy_fm.txt"]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "integrity error" in captured.err


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
            damaged.store_snapshot(source.load_snapshot(digest))

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

    @pytest.mark.parametrize("constant", ["sNaN", "NaN", "-Infinity"])
    def test_non_finite_whitelist_constant_is_a_usage_error(self, capsys, files, tmp_path, constant):
        config = tmp_path / "audit.cfg"
        config.write_text(f"constant_whitelist = 0, 1, {constant}\n")
        assert run(["audit", files["deep.snap"], "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: constant_whitelist takes finite numbers only\n"


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
