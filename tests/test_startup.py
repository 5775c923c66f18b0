"""Importing the command line must not load modules that only cost
start-up time: every command pays for what `import gridaudit.cli` loads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
