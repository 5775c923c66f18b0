"""`main` is the process entry point and ends with the heap frozen, so
CPython's exit-time collections walk none of the objects the loaded
modules leave alive.  Freezing is safe only while no command leaves a file
for the collector to close, and only `main` may freeze: `run` is what
tests and library callers call in process."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import warnings

import pytest

from test_startup import POLICY, REPORT, SNAP_2, SRC, _two_ingests

from gridaudit.cli import run

SNAP_3 = SNAP_2.replace("03-02", "03-03").replace("bob\n", "bob\nATTEST\treviewed by risk team\n").replace("\t6\n", "\t7\n")


def _commands(tmp_path) -> list[tuple[list[str], int]]:
    """One command line of each kind with its exit code, in order: a plain
    ingest into a fresh ledger, an attested third ingest into a ledger of
    two, then every query of that ledger."""
    paths = _two_ingests(tmp_path)
    ledger, policy = paths["ledger"], paths["policy"]
    s3 = tmp_path / "s3.snap"
    s3.write_text(SNAP_3, encoding="utf-8")
    report = ["report", ledger, "--policy", policy, *REPORT]
    return [
        (["ingest", str(tmp_path / "fresh"), paths["s1"], "--policy", policy], 0),
        (["ingest", ledger, str(s3), "--policy", policy], 1),  # a locked cell changes
        (["audit", paths["s2"]], 0),
        (["diff", paths["s1"], paths["s2"]], 0),
        (["check", ledger, "--policy", policy], 1),
        (["trend", ledger, "S!A1"], 0),
        (["history", ledger, "S!A1"], 0),
        (["profile", ledger], 0),
        (["verify", ledger], 0),
        (report, 1),
        ([*report, "--format", "json"], 1),
        ([*report, "--out", str(tmp_path / "report.txt")], 1),
    ]


def test_no_command_leaves_a_file_for_the_collector(tmp_path):
    for argv, code in _commands(tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run(argv) == code, argv
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)], argv
    assert (tmp_path / "report.txt").stat().st_size


@pytest.mark.skipif(not hasattr(gc, "get_freeze_count"), reason="the interpreter's gc cannot freeze")
def test_run_never_freezes(tmp_path):
    frozen = gc.get_freeze_count()
    for argv, code in _commands(tmp_path):
        assert run(argv) == code, argv
        assert gc.get_freeze_count() == frozen, argv


# Runs main() on the command line after the mode, "frozen" or "unfrozen";
# unfrozen deletes gc.freeze first, as on an interpreter without it.  An
# atexit handler, which runs before the exit-time collections, appends to
# stderr how many objects those collections would walk.
MAIN_PROBE = """
import atexit, gc, sys
if sys.argv.pop(1) == "unfrozen":
    del gc.freeze
atexit.register(lambda: print("left", len(gc.get_objects()), file=sys.stderr))
from gridaudit.cli import main
main()
"""


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="counts CPython's exit-time collections")
def test_main_leaves_nothing_to_the_exit_collections_and_runs_without_freeze(tmp_path):
    paths = _two_ingests(tmp_path)
    ledger, policy = paths["ledger"], paths["policy"]
    commands = {
        "ingest": ["ingest", "{mode}", paths["s1"], "--policy", policy],
        "verify": ["verify", ledger],
        "check": ["check", ledger, "--policy", policy],
        "json-report": ["report", ledger, "--policy", policy, *REPORT, "--format", "json"],
        "usage": ["verify", str(tmp_path / "missing")],
    }
    runs = {}
    for mode in ("frozen", "unfrozen"):
        for name, argv in commands.items():
            result = subprocess.run(
                [sys.executable, "-c", MAIN_PROBE, mode, *(arg.format(mode=mode) for arg in argv)],
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True,
            )
            stderr, left = result.stderr.rsplit(b"left ", 1)
            runs[mode, name] = result.returncode, result.stdout, stderr, int(left)
        log = tmp_path / mode / "ledger.log"
        runs[mode, "ledger"] = log.read_bytes(), {p.name: p.read_bytes() for p in (tmp_path / mode / "objects").iterdir()}
    assert [runs["frozen", name][0] for name in commands] == [0, 0, 1, 0, 2]
    for name in commands:
        code, stdout, stderr, left = runs["frozen", name]
        assert left <= 10, name  # 12.9k-13.8k unfrozen on CPython 3.11
        assert runs["unfrozen", name][:3] == (code, stdout, stderr), name
        assert runs["unfrozen", name][3] > 1000, name  # the probe sees what the collections walk
    assert runs["frozen", "ledger"] == runs["unfrozen", "ledger"]
