"""Damage to one ledger's log, against every command that reads history.

A state machine ingests snapshots into one ledger directory and damages
its log between ingests: a cut at a record boundary or inside a line, a
flipped byte, or a hash-valid record forged where the record grammar
forbids it.  After each step `check`, `trend`, `history`, `profile` and
`report` either all succeed, with the Ledger's answers equal to the
brute-force rescans in oracles.py, or all exit 3 with empty stdout and
the same error; `report` on a corrupt chain instead prints its
LEDGER_TAMPER report naming the first bad record.  No command exits 4,
and an ingest on a ledger that fails writes nothing.
"""

import io
import pathlib
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from conftest import CONTENTS, T0, hours
from oracles import change_history_by_rescan, series_for_cell_by_rescan, usage_metrics_by_rescan

from gridaudit.assess import usage_metrics
from gridaudit.cli import run
from gridaudit.grid import CellAddress, Literal, Number, Snapshot, join_fields, write_snapshot_file
from gridaudit.ledger import Ledger

A1 = CellAddress("S", 1, 1)
ADDRESSES = [A1, CellAddress("S", 2, 1), CellAddress("S", 1, 2), CellAddress("T", 1, 1)]
CELLS = st.dictionaries(
    st.sampled_from(ADDRESSES), CONTENTS | st.integers(0, 9).map(lambda n: Literal(Number(Decimal(n)))), max_size=4
)
POLICY = "workbook = wb1\n\n[region]\nrange = S!A1:A2\nmode = LOCKED\n\n[trend]\ncell = S!A1\n"
PERIOD = ["--from", "2024-01-01T00:00:00Z", "--to", "2025-01-01T00:00:00Z", "--generated-at", "2025-01-02T00:00:00Z"]
NO_CHANGE_SETS = "error: ledger holds no change sets to check\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code != 4, (argv[0], err.getvalue()[-2000:])
    return code, out.getvalue(), err.getvalue()


class LogDamage(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = pathlib.Path(tempfile.mkdtemp())
        self.ledger = self.tmp / "ledger"
        self.log = self.ledger / "ledger.log"
        self.policy = self.tmp / "policy.txt"
        self.policy.write_text(POLICY)
        self.ingested = []  # the cells of each snapshot ingested, in order
        self.failed = False  # whether the commands failed at the last check

    def teardown(self):
        shutil.rmtree(self.tmp)

    def _ingest(self, cells, attestation=None):
        path = self.tmp / f"s{len(self.ingested)}.snap"
        path.write_text(write_snapshot_file(Snapshot("wb1", T0 + hours(len(self.ingested)), "alice", cells, attestation)))
        self.ingested.append(cells)
        before = self._listing()
        code, _, err = _run(["ingest", str(self.ledger), str(path), "--policy", str(self.policy)])
        if self.failed:
            assert (code, self._listing()) == (3, before), err
        else:
            assert code in (0, 1), err

    def _listing(self):
        return {str(p.relative_to(self.ledger)): p.read_bytes() for p in sorted(self.ledger.rglob("*")) if p.is_file()}

    @initialize(first=CELLS, second=CELLS)
    def two_ingests(self, first, second):
        self._ingest(first)
        self._ingest(second)

    @rule(cells=CELLS, attestation=st.sampled_from([None, "APP-1 reviewed"]))
    def ingest(self, cells, attestation):
        self._ingest(cells, attestation)

    @rule(attestation=st.sampled_from([None, "APP-2 revert"]))
    def revert(self, attestation):
        self._ingest(self.ingested[-2], attestation)

    @rule()
    def unchanged(self):
        self._ingest(self.ingested[-1])

    @precondition(lambda self: self.log.read_bytes().count(b"\n") > 1)
    @rule(data=st.data())
    def cut_at_a_record(self, data):
        raw = self.log.read_bytes()
        ends = [i + 1 for i, byte in enumerate(raw) if byte == ord("\n")]
        self.log.write_bytes(raw[: data.draw(st.sampled_from(ends[:-1]))])

    @precondition(lambda self: len(self.log.read_bytes()) > 1)
    @rule(data=st.data())
    def cut_inside_a_line(self, data):
        raw = self.log.read_bytes()
        inside = [i for i in range(1, len(raw)) if raw[i - 1] != ord("\n")]
        self.log.write_bytes(raw[: data.draw(st.sampled_from(inside))])

    @precondition(lambda self: self.log.read_bytes())
    @rule(data=st.data())
    def flip_a_byte(self, data):
        raw = bytearray(self.log.read_bytes())
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        self.log.write_bytes(bytes(raw))

    @precondition(lambda self: Ledger.open(self.ledger).verify_chain().ok)
    @rule(where=st.sampled_from(["first-entry", "second-changeset", "after-attest"]))
    def forge_a_record(self, where):
        # hash-valid records in places no ingest appends to
        ledger = Ledger.open(self.ledger)
        records = [(r.kind, r.payload, r.recorded_at) for r in ledger.records]
        at = records[-1][2]
        if where == "first-entry":
            self.log.write_bytes(b"")
            ledger = Ledger.open(self.ledger)
            for kind, payload, recorded_at in records[:1] + [("CHANGESET", b"", at)] + records[1:]:
                ledger.append_record(kind, payload, recorded_at)
        elif where == "second-changeset":
            ledger.append_record("CHANGESET", b"", at)
        else:
            if records[-1][0] != "ATTEST":
                ledger.append_record("ATTEST", join_fields("forged").encode(), at)
            ledger.append_record("FINDINGS", b"", at)

    @invariant()
    def every_reader_sees_one_history(self):
        directory = str(self.ledger)
        outcomes = {
            "check": _run(["check", directory, "--policy", str(self.policy)]),
            "trend": _run(["trend", directory, "S!A1"]),
            "history": _run(["history", directory, "S!A1"]),
            "profile": _run(["profile", directory]),
            "report": _run(["report", directory, "--policy", str(self.policy), *PERIOD]),
        }
        chain = Ledger.open(self.ledger).verify_chain()
        self.failed = any(code == 3 for code, _, _ in outcomes.values())
        if not self.failed:
            ledger = Ledger.open(self.ledger)
            codes = {name: code for name, (code, _, _) in outcomes.items()}
            assert codes["check"] in (0, 1) or (outcomes["check"][2] == NO_CHANGE_SETS and not ledger.changesets())
            assert (codes["trend"], codes["history"], codes["profile"]) == (0, 0, 0), outcomes
            assert codes["report"] in (0, 1), outcomes
            for address in ADDRESSES:
                assert ledger.series_for_cell(address) == series_for_cell_by_rescan(ledger, address)
                assert ledger.change_history(address) == change_history_by_rescan(ledger, address)
            assert usage_metrics(ledger) == usage_metrics_by_rescan(ledger)
            return
        report = outcomes.pop("report")
        assert {(code, out) for code, out, _ in outcomes.values()} == {(3, "")}, outcomes
        errors = {err for _, _, err in outcomes.values()}
        assert len(errors) == 1, errors
        if chain.ok:
            assert report == (3, "", *errors)
        else:
            assert errors == {f"integrity error: ledger record {chain.first_bad_seq} is corrupt: {chain.reason}\n"}
            assert report[0] == 3 and f"LEDGER_TAMPER\trecord {chain.first_bad_seq}\t" in report[1], report


LogDamage.TestCase.settings = settings(max_examples=25, stateful_step_count=5, deadline=None)
TestLogDamage = LogDamage.TestCase
