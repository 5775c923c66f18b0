"""Run one gridaudit CLI command with spans around each layer's functions.

    python3 perfbench/shim.py DUMP.json <gridaudit arguments...>

Behaves like the `gridaudit` command (same stdout, stderr and exit code)
and writes DUMP.json when the command ends.  Each traced function is
replaced at every name a gridaudit module looks it up by, so a call
through `gridaudit.audit.parse_formula` is seen as well as one through
`gridaudit.formula.parse_formula`.  Spans (id, name, start, end, parent)
and counts stay in memory until the dump.  Self time is a span's duration
minus the time its traced children cover.

Functions marked hot run thousands of times per command; they are counted
and timed but their individual spans are not kept, which keeps a dump
small.  Nothing under src/ is changed.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter_ns

T_START = perf_counter_ns()
import gridaudit.cli as cli  # noqa: E402  (the import is what cli.import_ms measures)

IMPORT_NS = perf_counter_ns() - T_START

from gridaudit.formula import FormulaError  # noqa: E402
from gridaudit.ledger import Ledger  # noqa: E402


# span name -> (module, attribute, hot, counter).  A counter gets the
# call's (args, result) after it returns.
def _specs(tracer: "Tracer") -> dict:
    counts = tracer.counts

    def per_rule(name, rules_of):
        # (event, rule) pairs the family examined
        def count(args, result):
            counts[name + ".events"] += len(args[0].events) * len(rules_of(args))
        return count

    def hashed(args, result):
        if any(frame[0] == "ledger.verify_chain" for frame in tracer.stack):
            counts["ledger.verify_chain.bytes_hashed"] += len(args[3])

    return {
        "cli.run": ("gridaudit.cli", "run", False, None),
        "grid.parse_snapshot_file": ("gridaudit.grid", "parse_snapshot_file", False, None),
        "grid.write_snapshot_file": ("gridaudit.grid", "write_snapshot_file", False, None),
        "grid.snapshot_digest": ("gridaudit.grid", "snapshot_digest", False, None),
        "formula.parse_formula": ("gridaudit.formula", "parse_formula", True, None),
        "formula.normalize_relative": ("gridaudit.formula", "normalize_relative", True, None),
        "audit.audit_workbook": ("gridaudit.audit", "audit_workbook", False,
                                 lambda args, result: counts.update(
                                     {"audit.formula_cells": len(args[0].formula_cells())})),
        "audit.detect_copy_inconsistencies": ("gridaudit.audit", "detect_copy_inconsistencies", False, None),
        "audit.detect_deep_nesting": ("gridaudit.audit", "detect_deep_nesting", False, None),
        "audit.detect_embedded_constants": ("gridaudit.audit", "detect_embedded_constants", False, None),
        "audit.detect_error_values": ("gridaudit.audit", "detect_error_values", False, None),
        "audit.detect_parse_failures": ("gridaudit.audit", "detect_parse_failures", False, None),
        "diffing.diff_snapshots": ("gridaudit.diffing", "diff_snapshots", False,
                                   lambda args, result: counts.update(
                                       {"diffing.diff_snapshots.events": len(result.events)})),
        "diffing.volatility_metrics": ("gridaudit.diffing", "volatility_metrics", False, None),
        "controls.evaluate_policies": ("gridaudit.controls", "evaluate_policies", False, None),
        "controls._check_regions": ("gridaudit.controls", "_check_regions", False,
                                    per_rule("controls._check_regions", lambda a: a[1].region_rules)),
        "controls.check_cadence": ("gridaudit.controls", "check_cadence", False,
                                   per_rule("controls.check_cadence", lambda a: a[1].cadence_rules)),
        "controls.check_bounds": ("gridaudit.controls", "check_bounds", False,
                                  per_rule("controls.check_bounds", lambda a: a[1].bound_rules)),
        "controls._check_trends": ("gridaudit.controls", "_check_trends", False,
                                   per_rule("controls._check_trends", lambda a: a[1].trend_rules if a[2] is not None else ())),
        "controls.check_task_order": ("gridaudit.controls", "check_task_order", False,
                                      lambda args, result: counts.update(
                                          {"controls.check_task_order.events":
                                           len(args[2].events) * len(args[1].steps) if args[1] else 0})),
        "controls._period_events": ("gridaudit.controls", "_period_events", False,
                                    lambda args, result: counts.update(
                                        {"controls._period_events.events": len(result)})),
        "ledger.open": ("gridaudit.ledger", "Ledger.open", False, None),
        "ledger.decode_record": ("gridaudit.ledger", "decode_record", True, None),
        "ledger.record_hash": ("gridaudit.ledger", "record_hash", True, hashed),
        "ledger.parse_changeset": ("gridaudit.ledger", "parse_changeset", True, None),
        "ledger.load_snapshot": ("gridaudit.ledger", "Ledger.load_snapshot", False,
                                 lambda args, result: counts.update(
                                     {"ledger.load_snapshot.bytes": len(args[0]._objects[args[1]])})),
        "ledger.store_snapshot": ("gridaudit.ledger", "Ledger.store_snapshot", False, None),
        "ledger.append_record": ("gridaudit.ledger", "Ledger.append_record", False, None),
        "ledger.verify_chain": ("gridaudit.ledger", "Ledger.verify_chain", False, None),
        "ledger.series_for_cell": ("gridaudit.ledger", "Ledger.series_for_cell", False, None),
        "assess.usage_metrics": ("gridaudit.assess", "usage_metrics", False, None),
        "assess.findings_in_period": ("gridaudit.assess", "findings_in_period", False, None),
        "assess.build_report": ("gridaudit.assess", "build_report", False, None),
        "assess.render_report_text": ("gridaudit.assess", "render_report_text", False, None),
        "assess.render_report_json": ("gridaudit.assess", "render_report_json", False, None),
    }


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id)
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self._next_id = 0

    def wrap(self, fn, name: str, hot: bool, counter):
        stack, spans, counts = self.stack, self.spans, self.counts
        stats = self.agg.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [name, perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except FormulaError:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if not hot:
                    parent = stack[-1][3] if stack else None
                    spans.append((span_id, name, frame[1] - T_START, end - T_START, parent))
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "gridaudit" or n.startswith("gridaudit.")]
        for name, (module, attr, hot, counter) in _specs(self).items():
            if attr.startswith("Ledger."):
                method = attr.split(".", 1)[1]
                raw = Ledger.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(Ledger, method, classmethod(self.wrap(raw.__func__, name, hot, counter)))
                else:
                    setattr(Ledger, method, self.wrap(raw, name, hot, counter))
                continue
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(original, name, hot, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str, argv: list[str], code) -> None:
        data = {
            "argv": argv,
            "exit": code,
            "import_ms": IMPORT_NS / 1e6,
            "agg": {k: {"calls": c, "ms": t / 1e6, "self_ms": s / 1e6} for k, (c, t, s) in self.agg.items()},
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def main() -> None:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = None
    try:
        code = cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(dump_path, argv, code)
    sys.exit(code)


if __name__ == "__main__":
    main()
