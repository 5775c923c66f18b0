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
# exit code, the gridaudit source files compiled on the way and, after a
# "|", which of WATCHED it imported.
WATCHED = ("json", "statistics", "fractions")
COMPILE_PROBE = f"""
import os, sys
bare = set(sys.modules)
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
print(code, *compiled, "|", *(m for m in {WATCHED!r} if m in sys.modules and m not in bare))
"""

LAZY = {"formula.py", "audit.py", "controls.py", "assess.py"}

SNAP_1 = "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nS\tA1\tV\tN\t5\nS\tB1\tF\t=A1*2\n"
SNAP_2 = "SNAP1\twb1\t2024-03-02T09:00:00Z\tbob\nS\tA1\tV\tN\t6\nS\tB1\tF\t=A1*2\n"
POLICY = "workbook = wb1\n\n[region]\nrange = S!A1:A9\nmode = LOCKED\n"


def _compiled(tmp_path, *argv: str) -> tuple[int, set[str], set[str]]:
    """Exit code, compiled gridaudit files and imported WATCHED modules of
    one fresh process that finds no cached bytecode and writes none."""
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
    cut = names.index("|")
    return int(code), set(names[:cut]), set(names[cut + 1:])


def _two_ingests(tmp_path) -> dict[str, str]:
    """Paths of two snapshot files (s1, s2), a policy file and a ledger of both ingests."""
    from gridaudit.cli import run

    paths = {"s1": "s1.snap", "s2": "s2.snap", "policy": "policy.txt", "ledger": "ledger"}
    paths = {key: str(tmp_path / name) for key, name in paths.items()}
    for key, text in (("s1", SNAP_1), ("s2", SNAP_2), ("policy", POLICY)):
        Path(paths[key]).write_text(text, encoding="utf-8")
    for key in ("s1", "s2"):
        assert run(["ingest", paths["ledger"], paths[key]]) == 0
    return paths


def test_package_import_compiles_only_its_init(tmp_path):
    assert _compiled(tmp_path) == (0, {"__init__.py"}, set())


def test_verify_history_and_diff_compile_no_formula_audit_controls_or_assess(tmp_path):
    paths = _two_ingests(tmp_path)
    ledger = paths["ledger"]
    for argv in (["verify", ledger], ["history", ledger, "S!A1"], ["diff", paths["s1"], paths["s2"]]):
        code, compiled, _ = _compiled(tmp_path, *argv)
        assert code == 0, argv
        assert "cli.py" in compiled, argv
        assert not compiled & LAZY, argv


REPORT = ["--from", "2024-03-01T00:00:00Z", "--to", "2024-03-31T00:00:00Z", "--generated-at", "2024-04-01T00:00:00Z"]


# argv (with {names} from _two_ingests), the files it compiles if pinned
# exactly, files it must not compile, modules it must not import
@pytest.mark.parametrize(
    "argv, exactly, not_compiled, not_imported",
    [
        (["verify", "{ledger}"], {"__init__.py", "cli.py", "findings.py", "grid.py", "ledger.py"}, set(), {"fractions"}),
        (["audit", "{s2}"], None, {"ledger.py", "diffing.py", "controls.py", "assess.py"}, set()),
        (["diff", "{s1}", "{s2}"], None, {"ledger.py"}, set()),
        (["profile", "{ledger}"], None, {"controls.py"}, {"statistics", "json"}),
        (["report", "{ledger}", "--policy", "{policy}", *REPORT], None, set(), {"json"}),
    ],
    ids=["verify", "audit", "diff", "profile", "text-report"],
)
def test_each_command_compiles_only_what_it_runs(tmp_path, argv, exactly, not_compiled, not_imported):
    from gridaudit.cli import run

    paths = _two_ingests(tmp_path)
    argv = [arg.format_map(paths) for arg in argv]
    code, compiled, imported = _compiled(tmp_path, *argv)
    assert code == run(argv)
    assert "cli.py" in compiled
    if exactly is not None:
        assert compiled == exactly
    assert not compiled & not_compiled
    assert not imported & not_imported


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
