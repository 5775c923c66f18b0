#!/usr/bin/env python3
"""Benchmark for gridaudit: seeded workloads run as fresh CLI processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports gridaudit from `src/`.
Workloads: static-wide, history-long, bulk-ingest (see workloads.py for
why each exists, README.md for every metric).

The client is a closed loop: it starts one `gridaudit` process, waits for
it to exit, checks its output, then starts the next.  Every timing is the
wall time of one whole process, interpreter start and import included,
scaled by a reference process run beside the commands (see Reference).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one pass of the
same commands twice, plain and through shim.py, and prints per-layer
metrics from the traced pass; the traced dumps are merged into one JSON
file under .perfbench/traces/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench"
CLI = ["-c", "from gridaudit.cli import main; main()"]
SETUP_REPEATS = 5
REFERENCE_MS = 200.0
MIN_ROUNDS = 2  # report byte-identity needs a repeat

END_TO_END = (
    ("setup_s", "s"),
    ("ingest_ms.p50", "ms"),
    ("report_ms.p50", "ms"),
    ("verify_ms.p50", "ms"),
    ("trend_ms.p50", "ms"),
    ("history_ms.p50", "ms"),
    ("profile_ms.p50", "ms"),
    ("check_ms.p50", "ms"),
    ("audit_formulas_per_s", "1/s"),
    ("diff_cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("store_bytes_per_input_byte", "ratio"),
)

# per-layer metric -> unit; values come from the traced pass
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.run.self_ms": "ms",
    "grid.parse_snapshot_file.calls": "count",
    "grid.parse_snapshot_file.self_ms": "ms",
    "grid.snapshot_parses_per_ingest": "ratio",
    "grid.snapshot_digest.calls_per_ingest": "ratio",
    "grid.write_snapshot_file.self_ms": "ms",
    "formula.parse_formula.calls": "count",
    "formula.parse_formula.self_ms": "ms",
    "formula.parse_formula.errors": "count",
    "formula.parses_per_formula_cell": "ratio",
    "formula.normalize_relative.self_ms": "ms",
    "audit.audit_workbook.self_ms": "ms",
    "audit.detect_copy_inconsistencies.calls": "count",
    "audit.detect_copy_inconsistencies.ms": "ms",
    "audit.detect_deep_nesting.ms": "ms",
    "audit.detect_embedded_constants.ms": "ms",
    "audit.detect_error_values.ms": "ms",
    "audit.detect_parse_failures.ms": "ms",
    "diffing.diff_snapshots.ms": "ms",
    "diffing.diff_snapshots.events": "count",
    "diffing.volatility_metrics.calls": "count",
    "diffing.volatility_metrics.ms": "ms",
    "controls.evaluate_policies.ms": "ms",
    **{
        f"controls.{family}.{kind}": unit
        for family in ("_check_regions", "check_cadence", "check_bounds", "_check_trends",
                       "check_task_order")
        for kind, unit in (("ms", "ms"), ("events", "count"))
    },
    # without a workflow _period_events never runs; its time is inside check_task_order.ms
    "controls._period_events.events": "count",
    "ledger.open.ms": "ms",
    "ledger.records_decoded": "count",
    "ledger.parse_changeset.calls": "count",
    "ledger.changeset_decodes_per_ingest": "ratio",
    "ledger.load_snapshot.calls": "count",
    "ledger.load_snapshot.bytes": "bytes",
    "ledger.series_for_cell.ms": "ms",
    "ledger.verify_chain.ms": "ms",
    "ledger.verify_chain.bytes_hashed": "bytes",
    "ledger.append_record.ms": "ms",
    "ledger.store_snapshot.ms": "ms",
    "ledger.bytes_written_per_ingest": "bytes",
    "assess.usage_metrics.ms": "ms",
    "assess.findings_in_period.ms": "ms",
    "assess.build_report.self_ms": "ms",
    "assess.render_report_text.ms": "ms",
    "assess.render_report_json.ms": "ms",
    "trace_overhead_ms": "ms",
}


class Failures:
    """Output checks: each failed operation counts once, with its reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, step: dict, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{' '.join(step['argv'])}: {'; '.join(problems)}")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def execute(cmd: list[str], cwd: Path) -> dict:
    """Run one process to completion; wall time and peak RSS come from
    the clock around it and from wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *cmd], cwd=cwd, env=_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "ms": wall * 1000.0,
        "exit": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes(),
    }


def check_output(step: dict, result: dict, first_seen: dict) -> list[str]:
    """Compare one command's result with what the generator expects."""
    problems = []
    if result["exit"] != step["exit"]:
        tail = result["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        problems.append(f"exit {result['exit']}, expected {step['exit']} {tail}")
    text = result["stdout"].decode("utf-8", errors="replace")
    lines = text.splitlines()
    op = step["op"]
    if op == "audit" and step.get("faults") is not None:
        flagged = sorted(line.split("\t")[2] for line in lines
                         if line.split("\t")[1:2] == ["COPY_INCONSISTENT"])
        if flagged != step["faults"]:
            problems.append(f"COPY_INCONSISTENT at {len(flagged)} cells, seeded {len(step['faults'])}")
    if op in ("diff", "trend", "history") and len(lines) != step["lines"]:
        problems.append(f"{len(lines)} lines, expected {step['lines']}")
    if op == "verify" and text != f"OK n={step['records']}\n":
        problems.append(f"printed {text.strip()!r}, expected 'OK n={step['records']}'")
    if op == "profile":
        if f"ingests\t{step['ingests']}" not in lines:
            problems.append(f"ingest count is not {step['ingests']}")
        if f"distinct_actors\t{step['actors']}" not in lines:
            problems.append(f"distinct actor count is not {step['actors']}")
    if op == "report":
        key = tuple(step["argv"])
        if first_seen.setdefault(key, result["stdout"]) != result["stdout"]:
            problems.append("report bytes differ from an earlier run of the same command")
    return problems


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def head_hash(ledger: Path) -> str:
    lines = (ledger / "ledger.log").read_text(encoding="utf-8").splitlines()
    return lines[-1].split("\t")[-1] if lines else "-"


class Reference:
    """Machine-speed reference.  On a shared host the same process can take
    25% longer for tens of seconds at a time, for every program alike.  A
    fixed stdlib-only process of about one command's size runs before a
    command whenever two seconds have passed since the last one.  Each
    command's wall time is multiplied by REFERENCE_MS over the median of
    the three reference runs nearest to it.  Times so scaled read as
    milliseconds on a machine where the reference takes REFERENCE_MS, and
    drift that slows both cancels out."""

    # start-up, imports, dataclass creation and line parsing, like a command
    PROGRAM = (
        "import argparse, base64, dataclasses, datetime, decimal, enum, fractions, hashlib, json, re\n"
        "kinds = [dataclasses.make_dataclass(f'C{i}', [('a', int), ('b', str), ('c', float)], frozen=True)\n"
        "         for i in range(40)]\n"
        "a1 = re.compile(r'([A-Z]{1,3})([0-9]+)')\n"
        "cells = {}\n"
        "for i in range(15000):\n"
        "    sheet, address, value = f'S{i % 7}\\t{chr(65 + i % 26)}{i}\\t{i * 37 % 100000}'.split('\\t')\n"
        "    m = a1.fullmatch(address)\n"
        "    cells[(sheet, int(m.group(2)), m.group(1))] = kinds[i % 40](i, value, float(decimal.Decimal(value)))\n"
        "hashlib.sha256('\\n'.join(sorted(map(str, cells))).encode()).hexdigest()\n"
    )
    INTERVAL_S = 2.0  # at most this long between reference runs

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.runs: list[tuple[int, float]] = []  # (position, ms)
        self.position = 0
        self.last = float("-inf")

    def sample(self) -> None:
        result = execute(["-c", self.PROGRAM], self.cwd)
        if result["exit"] != 0:
            raise SystemExit(f"reference process failed: {result['stderr'].decode()[-300:]}")
        self.runs.append((self.position, result["ms"]))
        self.last = time.perf_counter()

    def stamp(self) -> int:
        """Position of the next command; runs the reference when due."""
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            self.sample()
        self.position += 1
        return self.position

    def scale(self, position: int, ms: float) -> float:
        nearest = sorted(self.runs, key=lambda run: abs(run[0] - position))[:3]
        return ms * REFERENCE_MS / statistics.median(ms for _, ms in nearest)


def setup(workload: str, seed: int, size: str, run_dir: Path) -> tuple[Path, dict, float]:
    """Generate the inputs and start one interpreter that imports gridaudit
    (so bytecode is cached before timing).  setup_s is the median of
    SETUP_REPEATS set-ups, each followed by a reference run and scaled as
    commands are."""
    reference = Reference(run_dir)
    times = []
    for k in range(SETUP_REPEATS):
        inputs = run_dir / f"inputs{k}"
        start = time.perf_counter()
        inputs.mkdir()
        plan = workloads.generate(workload, seed, inputs, size)
        warm = execute(["-c", "import gridaudit.cli"], inputs)
        times.append(time.perf_counter() - start)
        if warm["exit"] != 0:
            raise SystemExit(f"cannot import gridaudit from {SRC}: {warm['stderr'].decode()[-300:]}")
        reference.position = k
        reference.sample()
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(inputs)
    return inputs, plan, statistics.median(reference.scale(k, t) for k, t in enumerate(times))


def _fresh(step: dict, cwd: Path) -> None:
    if "fresh" in step:
        shutil.rmtree(cwd / step["fresh"], ignore_errors=True)


def _replayed(step: dict, n: int) -> dict:
    """An ingest step aimed at replay ledger n instead of the workload's."""
    ledger = f"{step['argv'][1]}-replay{n}"
    return {**step, "argv": [step["argv"][0], ledger, *step["argv"][2:]],
            **({"fresh": ledger} if "fresh" in step else {})}


def measure(plan: dict, inputs: Path, seconds: float, failures: Failures) -> dict:
    """The timed loop.  static-wide repeats whole cycles; the ledger
    workloads ingest once, then repeat rounds of queries, each followed by
    a slice of a replayed ingest pass.  A round starts
    only if one as long as the last would end by the deadline, and there
    are never fewer than MIN_ROUNDS."""
    deadline = time.perf_counter() + seconds
    reference = Reference(inputs)
    timed: list[tuple[dict, int, float]] = []  # (step, position, raw ms)
    first_seen: dict = {}
    heads: dict[str, str] = {}
    rss = 0.0
    store_bytes = None

    def run_step(step: dict, into: list) -> None:
        nonlocal rss
        _fresh(step, inputs)
        position = reference.stamp()
        result = execute(CLI + step["argv"], inputs)
        failures.record(step, check_output(step, result, first_seen))
        rss = max(rss, result["rss_mb"])
        into.append((step, position, result["ms"]))

    def ledger_state() -> int:
        ledgers = sorted({s["argv"][1] for s in plan["cycle"] + plan["ingest_pass"] if s["op"] == "ingest"})
        for name in ledgers:
            heads[name] = head_hash(inputs / name)
        return sum(dir_bytes(inputs / name) for name in ledgers)

    for step in plan["ingest_pass"]:
        run_step(step, timed)
    # The ingest pass runs again in slices, one per round, into fresh
    # ledgers, so that ingest samples come from the whole run and not from
    # one stretch of it.  Only complete passes count.
    replays, replay = 0, []
    chunk = max(1, len(plan["ingest_pass"]) // 5)
    rounds, last_round = 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() + last_round < deadline:
        started = time.perf_counter()
        for step in plan["cycle"] + plan["queries"][rounds % len(plan["queries"])]:
            run_step(step, timed)
        if store_bytes is None:
            store_bytes = ledger_state()
        for step in plan["ingest_pass"][len(replay):len(replay) + chunk]:
            run_step(_replayed(step, replays), replay)
        if plan["ingest_pass"] and len(replay) == len(plan["ingest_pass"]):
            timed += replay
            replays, replay = replays + 1, []
        rounds += 1
        last_round = time.perf_counter() - started
    reference.sample()
    return {
        "timed": [(step, raw, reference.scale(position, raw)) for step, position, raw in timed],
        "reference_ms": [ms for _, ms in reference.runs],
        "first_pass": max(0, len(plan["ingest_pass"]) - 1),
        "rss": rss,
        "heads": heads,
        "store_bytes": store_bytes,
        "rounds": rounds,
    }


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def end_to_end(m: dict, setup_s: float, input_bytes: int) -> tuple[dict, list[str]]:
    scaled: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    work = {"audit": 0, "diff": 0}
    for step, raw_ms, ms in m["timed"]:
        if "fresh" in step:
            continue  # a first ingest only stores; ingest_ms covers ingests with a predecessor
        scaled.setdefault(step["op"], []).append(ms)
        raw.setdefault(step["op"], []).append(raw_ms)
        work["audit"] += step.get("formulas", 0)
        work["diff"] += step.get("cells", 0)
    values = {
        "setup_s": setup_s,
        **{f"{op}_ms.p50": statistics.median(scaled[op]) for op in
           ("ingest", "report", "verify", "trend", "history", "profile", "check")},
        "audit_formulas_per_s": work["audit"] / (sum(scaled["audit"]) / 1000.0),
        "diff_cells_per_s": work["diff"] / (sum(scaled["diff"]) / 1000.0),
        "peak_rss_mb": m["rss"],
        "store_bytes_per_input_byte": m["store_bytes"] / input_bytes,
    }
    refs = m["reference_ms"]
    notes = [f"  reference process: n={len(refs)} p50={statistics.median(refs):.1f} ms "
             f"(timings are scaled to {REFERENCE_MS:g} ms)"]
    for op in sorted(scaled):
        line = f"  {op}: n={len(scaled[op])} p50={statistics.median(scaled[op]):.1f} ms"
        tl = tail(scaled[op])
        line += f" p{tl[0]:.0f}={tl[1]:.1f} ms" if tl else " tail n/a (fewer than 11 samples)"
        line += f"; unscaled p50={statistics.median(raw[op]):.1f} ms"
        notes.append(line)
    series = scaled["ingest"][:m["first_pass"]]
    if len(series) >= 20:
        growth = statistics.median(series[-10:]) / statistics.median(series[:10])
        notes.append(f"  ingest_growth: {growth:.3f} (median of last 10 ingests / of ingests 2-11)")
    return values, notes


def _stats(dump: dict, name: str, field: str) -> float:
    return dump["agg"].get(name, {}).get(field, 0.0)


def per_layer(steps: list[dict]) -> tuple[dict, list[str]]:
    """Totals over the traced pass, plus per-ingest and per-formula ratios."""
    total: dict[str, float] = {}
    for st in steps:
        d = st["dump"]
        total["cli.import_ms"] = total.get("cli.import_ms", 0.0) + d["import_ms"]
        for name, agg in d["agg"].items():
            for field in ("calls", "ms", "self_ms"):
                key = f"{name}.{field}"
                total[key] = total.get(key, 0.0) + agg[field]
        for name, n in d["counts"].items():
            total[name] = total.get(name, 0) + n
    ingests = [st for st in steps if st["op"] == "ingest" and "fresh" not in st]

    def per_ingest(name: str) -> float:
        return sum(_stats(st["dump"], name, "calls") for st in ingests) / len(ingests)

    values = {}
    for name in PER_LAYER:
        values[name] = total.get(name, 0.0)
    values["ledger.records_decoded"] = total.get("ledger.decode_record.calls", 0.0)
    values["grid.snapshot_parses_per_ingest"] = per_ingest("grid.parse_snapshot_file")
    values["grid.snapshot_digest.calls_per_ingest"] = per_ingest("grid.snapshot_digest")
    values["ledger.changeset_decodes_per_ingest"] = per_ingest("ledger.parse_changeset")
    values["ledger.bytes_written_per_ingest"] = statistics.fmean(st["written"] for st in ingests)
    values["formula.parses_per_formula_cell"] = (
        total.get("formula.parse_formula.calls", 0.0) / total["audit.formula_cells"]
    )
    values["trace_overhead_ms"] = sum(st["traced_ms"] - st["plain_ms"] for st in steps)

    notes = [f"  trace_overhead: {values['trace_overhead_ms']:.0f} ms over {len(steps)} commands "
             f"({values['trace_overhead_ms'] / sum(st['plain_ms'] for st in steps):.1%} of plain wall time)"]
    for st in steps:
        if st["op"] == "audit":
            d = st["dump"]
            notes.append(f"  parses per formula cell, {st['argv'][1]}: "
                         f"{_stats(d, 'formula.parse_formula', 'calls') / st['formulas']:g}")
    if len(ingests) > 2:
        parses = [int(_stats(st["dump"], "grid.parse_snapshot_file", "calls")) for st in ingests]
        decodes = [int(_stats(st["dump"], "ledger.parse_changeset", "calls")) for st in ingests]
        notes.append(f"  snapshot parses per ingest, ingest 2..{len(ingests) + 1}: {parses}")
        notes.append(f"  change-set decodes per ingest, ingest 2..{len(ingests) + 1}: {decodes}")
    return values, notes


def traced_pass(plan: dict, inputs: Path, trace_dir: Path, failures: Failures) -> list[dict]:
    """One pass of the plan, each command run plain in `inputs` and then
    through the shim in a copy; both must print the same bytes and leave
    the same ledger head."""
    twin = inputs.parent / "traced"
    shutil.copytree(inputs, twin)
    first_seen: dict = {}
    steps = []
    for i, step in enumerate(plan["cycle"] + plan["ingest_pass"] + sum(plan["queries"], [])):
        _fresh(step, inputs)
        _fresh(step, twin)
        ledger = twin / step["argv"][1] if step["op"] == "ingest" else None
        before = dir_bytes(ledger) if ledger is not None and ledger.exists() else 0
        plain = execute(CLI + step["argv"], inputs)
        dump_path = trace_dir / f"{i:04d}.json"
        traced = execute([str(HERE / "shim.py"), str(dump_path), *step["argv"]], twin)
        problems = check_output(step, plain, first_seen) + check_output(step, traced, first_seen)
        if traced["stdout"] != plain["stdout"] or traced["exit"] != plain["exit"]:
            problems.append("traced output differs from the plain run")
        if ledger is not None and head_hash(ledger) != head_hash(inputs / step["argv"][1]):
            problems.append("traced ingest left a different ledger head")
        failures.record(step, problems)
        dump = json.loads(dump_path.read_text(encoding="utf-8"))
        dump_path.unlink()
        steps.append({
            **step,
            "plain_ms": plain["ms"],
            "traced_ms": traced["ms"],
            "written": (dir_bytes(ledger) - before) if ledger is not None else 0,
            "dump": dump,
        })
    return steps


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    failures = Failures()
    try:
        inputs, plan, setup_s = setup(workload, seed, size, run_dir)
        print(f"workload {workload} seed {seed} size {size} trace {int(trace)}")
        if trace:
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            steps = traced_pass(plan, inputs, run_dir, failures)
            metrics, notes = per_layer(steps)
            units = PER_LAYER
            dump_file = trace_dir / f"{workload}-seed{seed}.json"
            dump_file.write_text(json.dumps({"workload": workload, "seed": seed, "metrics": metrics,
                                             "steps": steps}), encoding="utf-8")
            notes.append(f"  trace dump: {dump_file.relative_to(CHECKOUT)}")
        else:
            m = measure(plan, inputs, seconds, failures)
            metrics, notes = end_to_end(m, setup_s, plan["input_bytes"])
            units = dict(END_TO_END)
            notes.append(f"  rounds: {m['rounds']}")
            notes += [f"  head {name} {h}" for name, h in sorted(m["heads"].items())]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, value in metrics.items():
        print(f"{name}\t{value:.6g}\t{units[name]}")
    print("\n".join(notes))
    print(f"failed_frac\t{failures.failed}/{failures.attempted} operations failed an output check")
    for reason in failures.reasons[:20]:
        print(f"  FAILED {reason}")
    return {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def smoke() -> int:
    """Every workload end to end at tiny size, plain and traced: every
    named metric must be present and every output check must pass."""
    problems = []
    for workload in workloads.GENERATORS:
        for trace in (False, True):
            result = run_workload(workload, 1, 0.0, trace, size="smoke")
            wanted = PER_LAYER if trace else dict(END_TO_END)
            missing = set(wanted) - set(result["metrics"])
            if missing:
                problems.append(f"{workload} trace={int(trace)}: missing {sorted(missing)}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed checks")
    print("smoke: " + ("; ".join(problems) if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    args = parser.parse_args()
    if not (SRC / "gridaudit" / "cli.py").is_file():
        print(f"error: no gridaudit sources at {SRC}", file=sys.stderr)
        return 2
    # One client: pin it, and so every command and reference run it starts,
    # to one CPU.  Unpinned, a command lands on whichever vCPU is free, and
    # on a shared host two vCPUs can differ in speed by a third.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads.GENERATORS}
        print(json.dumps(results))
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
