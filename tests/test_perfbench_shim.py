"""The benchmark's traced mode looks production functions up by name;
every name it wraps must still exist."""

import importlib
import importlib.util
from pathlib import Path

from gridaudit.ledger import Ledger

SHIM = Path(__file__).resolve().parent.parent / "perfbench" / "shim.py"


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
