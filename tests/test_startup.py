"""Importing the command line must not load modules that only cost
start-up time: every command pays for what `import gridaudit.cli` loads.
The package surface stays whole although its submodules load on first use."""

from __future__ import annotations

import json
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
WATCHED = ("json", "statistics", "fractions", "argparse", "gettext", "locale", "hashlib", "_hashlib", "datetime", "fcntl")
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
        (["report", "{ledger}", "--policy", "{policy}", *REPORT, "--format", "json"], None, set(), {"json"}),
        (
            ["check", "{ledger}", "--policy", "{policy}"],
            {"__init__.py", "cli.py", "controls.py", "diffing.py", "findings.py", "grid.py", "ledger.py", "trend.py"},
            set(),
            {"statistics", "fractions", "json"},
        ),
        (
            ["trend", "{ledger}", "S!A1"],
            {"__init__.py", "cli.py", "diffing.py", "findings.py", "grid.py", "ledger.py", "trend.py"},
            set(),
            set(),
        ),
    ],
    ids=["verify", "audit", "diff", "profile", "text-report", "json-report", "check", "trend"],
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


ARGPARSE = {"argparse", "gettext", "locale"}


def test_cli_import_and_plain_commands_load_no_argparse(tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert not set(result.stdout.split()) & ARGPARSE
    paths = _two_ingests(tmp_path)
    for argv in (
        ["verify", paths["ledger"]],
        ["report", paths["ledger"], "--policy", paths["policy"], *REPORT],
        ["ingest", str(tmp_path / "fresh"), paths["s1"], "--policy", paths["policy"]],
    ):
        code, _, imported = _compiled(tmp_path, *argv)
        assert code == 0, argv
        assert not imported & ARGPARSE, argv


# hashlib's sha256 loads OpenSSL's libcrypto, a few MB per process
HASHLIB = {"hashlib", "_hashlib"}


@pytest.fixture(scope="module")
def plain_imports(tmp_path_factory) -> dict[str, set[str]]:
    """The WATCHED modules that each plain command imports, by its name
    (the two ingests as "ingest" and "ingest-locked"); each exit code is
    checked against an in-process run."""
    from gridaudit.cli import run

    tmp_path = tmp_path_factory.mktemp("plain")
    paths = _two_ingests(tmp_path)
    ledger, policy = paths["ledger"], paths["policy"]
    s3 = tmp_path / "s3.snap"
    s3.write_text(SNAP_2.replace("03-02", "03-03").replace("\t6\n", "\t7\n"), encoding="utf-8")
    imports = {}
    for name, argv in (
        ("ingest", ["ingest", str(tmp_path / "fresh"), paths["s1"], "--policy", policy]),
        ("ingest-locked", ["ingest", ledger, str(s3), "--policy", policy]),  # a locked cell changes: exit 1
        ("verify", ["verify", ledger]),
        ("check", ["check", ledger, "--policy", policy]),
        ("trend", ["trend", ledger, "S!A1"]),
        ("history", ["history", ledger, "S!A1"]),
        ("profile", ["profile", ledger]),
        ("text-report", ["report", ledger, "--policy", policy, *REPORT]),
        ("json-report", ["report", ledger, "--policy", policy, *REPORT, "--format", "json"]),
        ("audit", ["audit", paths["s2"]]),
        ("diff", ["diff", paths["s1"], paths["s2"]]),
    ):
        code, _, imports[name] = _compiled(tmp_path, *argv)
        assert code == (int(argv[1] == ledger) if argv[0] == "ingest" else run(argv)), argv
    return imports


def test_plain_commands_load_no_hashlib(plain_imports):
    for name, imported in plain_imports.items():
        assert not imported & HASHLIB, name


def test_plain_commands_load_no_pure_python_datetime(plain_imports):
    for name, imported in plain_imports.items():
        assert "datetime" not in imported, name


def test_only_ingest_loads_fcntl(plain_imports):
    assert {name for name, imported in plain_imports.items() if "fcntl" in imported} == {"ingest", "ingest-locked"}


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="names CPython's built-in hash modules")
def test_sha256_is_cpythons_built_in():
    from gridaudit import grid

    assert grid.sha256.__module__ in {"_sha2", "_sha256"}


# Runs each command given as JSON in one process and prints the type of
# grid.datetime.now, then each exit code; with "pure" first, it hides the C
# module as an interpreter without one would, so grid falls back to datetime.py.
FALLBACK_PROBE = """
import json, sys
if sys.argv[1] == "pure":
    sys.modules["_datetime"] = None
from gridaudit import grid
from gridaudit.cli import run
print(type(grid.datetime.now).__name__)
for argv in json.loads(sys.argv[2]):
    print("exit", run(argv))
"""


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="hides CPython's C datetime module")
def test_pure_python_datetime_gives_the_same_bytes(tmp_path):
    policy = tmp_path / "policy.txt"
    policy.write_text(POLICY + "\n[trend]\ncell = S!B1\nwindow = 5\n", encoding="utf-8")
    times = ["2024-03-01T09:00:00Z", "2024-03-02T10:30:00+01:00", "2024-03-03T09:00:00.250Z",
             "2024-03-03T23:45:00-05:00", "2024-03-05T09:00:00Z", "2024-03-06T09:00:00+05:30"]
    argvs = []
    for i, at in enumerate(times):
        snap = tmp_path / f"s{i}.snap"
        # S!A1 changes in the locked region at the last ingest only: exit 1
        snap.write_text(f"SNAP1\twb1\t{at}\tann\nS\tA1\tV\tN\t{5 + (i == 5)}\nS\tB1\tV\tN\t{10 + i * i}\n", encoding="utf-8")
        argvs.append(["ingest", "L", str(snap), "--policy", str(policy)])
    argvs += [["trend", "L", "S!B1"], ["history", "L", "S!B1"], ["report", "L", "--policy", str(policy), *REPORT]]
    runs = {}
    for mode in ("c", "pure"):
        (tmp_path / mode).mkdir()
        result = subprocess.run(
            [sys.executable, "-c", FALLBACK_PROBE, mode, json.dumps(argvs)],
            cwd=tmp_path / mode,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            check=True,
        )
        ledger = tmp_path / mode / "L"
        objects = {path.name: path.read_bytes() for path in (ledger / "objects").iterdir()}
        runs[mode] = result.stdout.split(b"\n", 1), (ledger / "ledger.log").read_bytes(), objects
    (c_type, c_out), c_log, c_objects = runs["c"]
    (pure_type, pure_out), pure_log, pure_objects = runs["pure"]
    assert (c_type, pure_type) == (b"builtin_function_or_method", b"method")
    assert b"TREND\tmean=" in c_out
    assert [line for line in c_out.splitlines() if line.startswith(b"exit ")] == [
        *[b"exit 0"] * 5, b"exit 1", b"exit 0", b"exit 0", b"exit 1"
    ]
    assert (pure_out, pure_log, pure_objects) == (c_out, c_log, c_objects)


def test_help_still_goes_through_argparse(tmp_path):
    code, _, imported = _compiled(tmp_path, "report", "--help")
    assert code == 0
    assert "argparse" in imported


# Prints how many sources gridaudit's own code compiled under the name
# "<string>", as exec and eval of generated source are, while gridaudit.cli
# and its six lazy submodules load (the stdlib's namedtuple does the same
# for decimal, so the compiling frame's file is checked).
GENERATED_PROBE = """
import os, sys
pkg = sys.argv[1] + os.sep
generated = []

def hook(event, args):
    if event == "compile" and args[1] == "<string>" and sys._getframe(1).f_code.co_filename.startswith(pkg):
        generated.append(args[0])

sys.addaudithook(hook)
import gridaudit.cli
from gridaudit import assess, audit, controls, diffing, formula, ledger
for module in (assess, audit, controls, diffing, formula, ledger):
    vars(module)  # loads the module behind the stub
print(len(generated))
"""


def test_loading_every_module_compiles_no_generated_source():
    result = subprocess.run(
        [sys.executable, "-c", GENERATED_PROBE, str(SRC / "gridaudit")],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == ["0"]


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
