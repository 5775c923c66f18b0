"""The benchmark's traced mode looks production functions up by name;
every name it wraps must still exist, and a traced command must behave
like the plain one."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from gridaudit.cli import run
from gridaudit.ledger import Ledger

ROOT = Path(__file__).resolve().parent.parent
SHIM = ROOT / "perfbench" / "shim.py"

SNAP_1 = "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nS\tA1\tV\tN\t5\nS\tB1\tV\tN\t10\n"
SNAP_2 = "SNAP1\twb1\t2024-03-02T09:00:00Z\tbob\nS\tA1\tV\tN\t6\nS\tB1\tV\tN\t10\n"
SNAP_ERROR = "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nS\tA1\tV\tE\t#REF!\n"
POLICY = "workbook = wb1\n\n[region]\nrange = S!A1:A9\nmode = LOCKED\n\n[trend]\ncell = S!A1\nwindow = 5\n"


def _load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    shim = _load_shim()
    specs = shim._specs(shim.Tracer())
    assert specs
    missing = []
    for name, (module, attr, _hot, _counter) in specs.items():
        if attr.startswith("Ledger."):
            found = attr.split(".", 1)[1] in Ledger.__dict__
        else:
            found = hasattr(importlib.import_module(module), attr)
        if not found:
            missing.append(f"{name}: {module}.{attr}")
    assert missing == []


def test_traced_commands_match_the_plain_cli(capsys, tmp_path):
    for name, text in (("s1.snap", SNAP_1), ("s2.snap", SNAP_2), ("policy.txt", POLICY)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    policy, plain, traced = (str(tmp_path / name) for name in ("policy.txt", "plain", "traced"))
    for ledger in (plain, traced):
        assert run(["ingest", ledger, str(tmp_path / "s1.snap")]) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for command in (
        ["ingest", str(tmp_path / "s2.snap"), "--policy", policy],
        ["check", "--policy", policy],
        ["trend", "S!A1"],
        ["profile"],
    ):
        name, *rest = command
        capsys.readouterr()
        code = run([name, plain, *rest])
        dump = tmp_path / f"{name}.json"
        done = subprocess.run(
            [sys.executable, str(SHIM), str(dump), name, traced, *rest],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out), done.stderr
        assert json.loads(dump.read_text())["counts"]["ledger.load_snapshot.bytes"] > 0, name
    assert (tmp_path / "traced" / "ledger.log").read_bytes() == (tmp_path / "plain" / "ledger.log").read_bytes()


def test_traced_verify_and_history_match_the_plain_cli(capsys, tmp_path):
    # Also audit and diff, which load no ledger when the command line is
    # imported.  The shim finds the lazy modules in sys.modules as stubs, and
    # the history and audit rows pin that its spans still reach the functions
    # they run.  diff's events come from diffing.diff_events, which the shim
    # does not wrap, so its row counts the snapshot parse it calls instead.
    ledger = str(tmp_path / "ledger")
    for name, text in (("s1.snap", SNAP_1), ("s2.snap", SNAP_2), ("err.snap", SNAP_ERROR)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    for name in ("s1.snap", "s2.snap"):
        assert run(["ingest", ledger, str(tmp_path / name)]) == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    dump = tmp_path / "dump.json"
    for command, span in (
        (["verify", ledger], "ledger.verify_chain"),
        (["history", ledger, "S!A1"], "ledger.parse_changeset"),
        (["audit", str(tmp_path / "err.snap")], "audit.audit_workbook"),
        (["diff", str(tmp_path / "s1.snap"), str(tmp_path / "s2.snap")], "grid.parse_snapshot_file"),
    ):
        capsys.readouterr()
        code = run(command)
        done = subprocess.run(
            [sys.executable, str(SHIM), str(dump), *command],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout) == (code, capsys.readouterr().out), done.stderr
        assert done.stdout, command
        assert json.loads(dump.read_text())["agg"][span]["calls"] > 0, command
