"""Importing the command line must not load modules that only cost
start-up time: every command pays for what `import gridaudit.cli` loads.
The package surface stays whole although its submodules load on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# modules already loaded at a bare start (by site hooks, say) are not counted
PROBE = "import sys; bare = set(sys.modules); import gridaudit.cli; print(*sorted(set(sys.modules) - bare))"


def test_cli_import_loads_no_dataclasses_inspect_or_traceback():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "gridaudit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "traceback"}


# Runs gridaudit in a fresh interpreter and prints, as its last line, the
# exit code and the gridaudit source files compiled on the way.
COMPILE_PROBE = """
import os, sys
pkg = sys.argv[1] + os.sep
compiled = []

def hook(event, args):
    if event == "compile" and isinstance(args[1], str) and args[1].startswith(pkg):
        compiled.append(args[1][len(pkg):])

sys.addaudithook(hook)
if sys.argv[2:]:
    from gridaudit.cli import run
    code = run(sys.argv[2:])
else:
    import gridaudit
    code = 0
print(code, *compiled)
"""

LAZY = {"formula.py", "audit.py", "controls.py", "assess.py"}

SNAP_1 = "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nS\tA1\tV\tN\t5\nS\tB1\tF\t=A1*2\n"
SNAP_2 = "SNAP1\twb1\t2024-03-02T09:00:00Z\tbob\nS\tA1\tV\tN\t6\nS\tB1\tF\t=A1*2\n"


def _compiled(tmp_path, *argv: str) -> tuple[int, set[str]]:
    """Exit code and compiled gridaudit files of one fresh process that
    finds no cached bytecode and writes none."""
    cache = tmp_path / "pycache"
    cache.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": str(cache), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-c", COMPILE_PROBE, str(SRC / "gridaudit"), *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, *names = result.stdout.splitlines()[-1].split()
    return int(code), set(names)


def test_package_import_compiles_only_its_init(tmp_path):
    assert _compiled(tmp_path) == (0, {"__init__.py"})


def test_verify_history_and_diff_compile_no_formula_audit_controls_or_assess(tmp_path):
    from gridaudit.cli import run

    s1, s2, ledger = tmp_path / "s1.snap", tmp_path / "s2.snap", str(tmp_path / "ledger")
    s1.write_text(SNAP_1, encoding="utf-8")
    s2.write_text(SNAP_2, encoding="utf-8")
    for snap in (s1, s2):
        assert run(["ingest", ledger, str(snap)]) == 0
    for argv in (["verify", ledger], ["history", ledger, "S!A1"], ["diff", str(s1), str(s2)]):
        code, compiled = _compiled(tmp_path, *argv)
        assert code == 0, argv
        assert "cli.py" in compiled, argv
        assert not compiled & LAZY, argv


def test_every_exported_name_resolves_to_its_definition():
    import gridaudit

    for name in gridaudit.__all__:
        obj = getattr(gridaudit, name)
        assert obj.__module__.startswith("gridaudit."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_and_star_import_cover_all():
    import gridaudit

    assert set(gridaudit.__all__) <= set(dir(gridaudit))
    namespace: dict = {}
    exec("from gridaudit import *", namespace)
    assert set(gridaudit.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    import gridaudit

    with pytest.raises(AttributeError, match="no_such_name"):
        gridaudit.no_such_name
    assert not hasattr(gridaudit, "diff_cells")
