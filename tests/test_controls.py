"""Control policy evaluation: modes, cadence, bounds, trends, task order."""

import itertools
from datetime import datetime, timezone
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from pathlib import Path

import pytest

from conftest import T0, addr, hours, snap
from oracles import exact_trend_stats, relative_close, simulate_task_order

from gridaudit.controls import (
    BoundRule,
    CadenceRule,
    CadenceWindow,
    ControlPolicy,
    Mode,
    PolicyError,
    RegionRule,
    TrendRule,
    Workflow,
    WorkflowStep,
    _check_regions,
    check_bounds,
    check_cadence,
    check_task_order,
    evaluate_policies,
    parse_policy_file,
    trend_deviation,
)
from gridaudit.diffing import diff_snapshots
from gridaudit.findings import Finding
from gridaudit.grid import Number, parse_region
from gridaudit.ledger import CellSeries, Ledger


def changeset(before_cells, after_cells, offset=1, actor="bob", att=None):
    before = snap(before_cells)
    after = snap(after_cells, at=T0 + hours(offset), actor=actor, att=att)
    return diff_snapshots(before, after)


def policy(**kwargs):
    return ControlPolicy(workbook_id="wb1", **kwargs)


def region_rule(spec, mode, ticket=False):
    return RegionRule(parse_region(spec), mode, ticket)


def series(values, start=T0):
    points = tuple(
        (start + hours(i), Number(Decimal(str(v)))) for i, v in enumerate(values)
    )
    return CellSeries(addr("S!B2"), points)


class TestRegionModes:
    def test_empty_changeset_passes(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.LOCKED),))
        assert evaluate_policies(changeset({"S!A1": 1}, {"S!A1": 1}), p) == []

    def test_locked_region_data_change(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.LOCKED),))
        findings = evaluate_policies(changeset({"S!A1": 1}, {"S!A1": 2}), p)
        assert [f.rule_id for f in findings] == ["LOCKED_REGION_CHANGE"]
        assert findings[0].severity == "critical"

    def test_data_only_allows_data(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.DATA_ONLY),))
        assert evaluate_policies(changeset({"S!A1": 1}, {"S!A1": 2}), p) == []

    def test_data_only_rejects_logic(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.DATA_ONLY),))
        findings = evaluate_policies(changeset({"S!A1": "=B1"}, {"S!A1": "=B2"}), p)
        assert [f.rule_id for f in findings] == ["DATA_ONLY_LOGIC_CHANGE"]

    def test_data_only_rejects_added_formula(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.DATA_ONLY),))
        findings = evaluate_policies(changeset({}, {"S!A1": "=B1"}), p)
        assert [f.rule_id for f in findings] == ["DATA_ONLY_LOGIC_CHANGE"]

    def test_events_outside_region_ignored(self):
        p = policy(region_rules=(region_rule("S!A1:A2", Mode.LOCKED),))
        assert evaluate_policies(changeset({"S!Z9": 1}, {"S!Z9": 2}), p) == []

    def test_overlapping_rules_each_fire(self):
        p = policy(
            region_rules=(
                region_rule("S!A1:D9", Mode.DATA_ONLY),
                region_rule("S!A1:B2", Mode.LOCKED),
            )
        )
        findings = evaluate_policies(changeset({"S!A1": "=B1"}, {"S!A1": "=B2"}), p)
        assert {f.rule_id for f in findings} == {"DATA_ONLY_LOGIC_CHANGE", "LOCKED_REGION_CHANGE"}


class TestFormulaMaintained:
    LOGIC_CHANGE = changeset({"S!A1": "=B1"}, {"S!A1": "=B2"})

    def test_unattested_logic_change_flagged(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.FORMULA_MAINTAINED),))
        findings = evaluate_policies(self.LOGIC_CHANGE, p, attestation=None)
        assert [f.rule_id for f in findings] == ["UNATTESTED_LOGIC_CHANGE"]

    def test_attested_logic_change_passes(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.FORMULA_MAINTAINED),))
        assert evaluate_policies(self.LOGIC_CHANGE, p, attestation="reviewed by risk team") == []

    def test_ticket_required_needs_ticket_id(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.FORMULA_MAINTAINED, ticket=True),))
        assert evaluate_policies(self.LOGIC_CHANGE, p, attestation="reviewed, see CHG-1042") == []
        findings = evaluate_policies(self.LOGIC_CHANGE, p, attestation="reviewed informally")
        assert [f.rule_id for f in findings] == ["UNATTESTED_LOGIC_CHANGE"]

    def test_data_changes_pass_without_attestation(self):
        p = policy(region_rules=(region_rule("S!A1:D9", Mode.FORMULA_MAINTAINED),))
        assert evaluate_policies(changeset({"S!A1": 1}, {"S!A1": 2}), p) == []


class TestRegionFindingText:
    """Each region mode's finding, pinned field by field."""

    @pytest.mark.parametrize(
        "mode, ticket, attestation, rule_id, message, expected",
        [
            (Mode.LOCKED, False, None, "LOCKED_REGION_CHANGE",
             "LogicChanged in locked region S!A1:D9", "no change"),
            (Mode.DATA_ONLY, False, None, "DATA_ONLY_LOGIC_CHANGE",
             "LogicChanged alters logic in data-only region S!A1:D9", "data changes only"),
            (Mode.FORMULA_MAINTAINED, False, None, "UNATTESTED_LOGIC_CHANGE",
             "LogicChanged in maintained region S!A1:D9 without attestation", "attestation"),
            (Mode.FORMULA_MAINTAINED, True, "reviewed informally", "UNATTESTED_LOGIC_CHANGE",
             "LogicChanged in maintained region S!A1:D9 without a ticket-referencing attestation",
             "a ticket-referencing attestation"),
        ],
        ids=["locked", "data-only", "unattested", "no-ticket"],
    )
    def test_logic_change_finding(self, mode, ticket, attestation, rule_id, message, expected):
        p = policy(region_rules=(region_rule("S!A1:D9", mode, ticket),))
        changes = changeset({"S!A1": "=B1"}, {"S!A1": "=B2"})
        assert _check_regions(changes, p, attestation) == [
            Finding(rule_id, "critical", addr("S!A1"), message, "LogicChanged", expected)
        ]


class TestCadence:
    WINDOW = CadenceWindow(frozenset(range(0, 5)), 9, 17)  # Mon-Fri 9-17 UTC

    def _policy(self):
        return policy(cadence_rules=(CadenceRule(parse_region("S!A1:Z99"), (self.WINDOW,)),))

    def _changes_at(self, at):
        before = snap({"S!A1": 1})
        after = snap({"S!A1": 2}, at=at, actor="bob")
        return diff_snapshots(before, after)

    def test_tuesday_morning_allowed(self):
        at = datetime(2024, 3, 5, 10, 0, tzinfo=timezone.utc)  # Tue
        assert check_cadence(self._changes_at(at), self._policy()) == []

    def test_saturday_blocked(self):
        at = datetime(2024, 3, 9, 10, 0, tzinfo=timezone.utc)  # Sat
        findings = check_cadence(self._changes_at(at), self._policy())
        assert [f.rule_id for f in findings] == ["CADENCE_VIOLATION"]

    def test_end_hour_is_exclusive(self):
        at = datetime(2024, 3, 5, 17, 0, tzinfo=timezone.utc)  # Tue 17:00 exactly
        findings = check_cadence(self._changes_at(at), self._policy())
        assert len(findings) == 1

    def test_start_hour_is_inclusive(self):
        at = datetime(2024, 3, 5, 9, 0, tzinfo=timezone.utc)
        assert check_cadence(self._changes_at(at), self._policy()) == []

    def test_every_event_rule_pair_decided(self):
        at = datetime(2024, 3, 9, 10, 0, tzinfo=timezone.utc)
        before = snap({"S!A1": 1, "S!B1": 1})
        after = snap({"S!A1": 2, "S!B1": 2}, at=at, actor="bob")
        findings = check_cadence(diff_snapshots(before, after), self._policy())
        assert len(findings) == 2


class TestBounds:
    def _policy(self, minimum="0", maximum="100"):
        return policy(
            bound_rules=(
                BoundRule(
                    parse_region("S!B1:B9"),
                    Decimal(minimum) if minimum is not None else None,
                    Decimal(maximum) if maximum is not None else None,
                ),
            )
        )

    def test_inclusive_upper_bound(self):
        assert check_bounds(changeset({"S!B1": 1}, {"S!B1": 100}), self._policy()) == []

    def test_below_minimum(self):
        findings = check_bounds(changeset({"S!B1": 1}, {"S!B1": -1}), self._policy())
        assert [f.rule_id for f in findings] == ["BOUND_VIOLATION"]

    def test_non_numeric_value_is_type_violation(self):
        findings = check_bounds(changeset({"S!B1": 1}, {"S!B1": "n/a"}), self._policy())
        assert [f.rule_id for f in findings] == ["TYPE_VIOLATION"]

    def test_added_values_checked(self):
        findings = check_bounds(changeset({}, {"S!B1": 500}), self._policy())
        assert [f.rule_id for f in findings] == ["BOUND_VIOLATION"]

    def test_logic_events_not_bounded(self):
        findings = check_bounds(changeset({"S!B1": "=X1"}, {"S!B1": "=X2"}), self._policy())
        assert findings == []

    def test_cached_formula_value_checked(self):
        findings = check_bounds(
            changeset({"S!B1": ("=X1", 5)}, {"S!B1": ("=X1", 200)}), self._policy()
        )
        assert [f.rule_id for f in findings] == ["BOUND_VIOLATION"]


class TestTrendDeviation:
    RULE = TrendRule(addr("S!B2"))

    def test_constant_history_equal_value_passes(self):
        verdict = trend_deviation(series([10, 10, 10, 10, 10]), Decimal(10), self.RULE)
        assert not verdict.violated and verdict.z == 0

    def test_constant_history_any_departure_flagged(self):
        verdict = trend_deviation(series([10, 10, 10, 10, 10]), Decimal(11), self.RULE)
        assert verdict.violated and verdict.z == 0

    def test_pinned_outlier_example(self):
        # oracle: mean 11.2, sample stddev 1.303840, z 14.418942 (6 dp)
        verdict = trend_deviation(series([10, 12, 11, 13, 10]), Decimal(30), self.RULE)
        assert verdict.violated
        assert round(verdict.mean, 6) == 11.2
        assert round(verdict.stddev, 6) == 1.303840
        assert round(verdict.z, 6) == 14.418942
        mean, sd, z = exact_trend_stats([10, 12, 11, 13, 10], 30)
        assert relative_close(verdict.mean, mean)
        assert relative_close(verdict.stddev, sd)
        assert relative_close(verdict.z, z)

    def test_too_few_points_gives_no_verdict(self):
        verdict = trend_deviation(series([10, 12, 11]), Decimal(99), self.RULE)
        assert not verdict.violated and verdict.z == 0

    def test_window_limits_history(self):
        rule = TrendRule(addr("S!B2"), window=5)
        values = [1000, 1000, 1000] + [10, 11, 12, 11, 10]
        verdict = trend_deviation(series(values), Decimal(11), rule)
        # only the last five points matter, so 11 is unremarkable
        assert not verdict.violated

    @pytest.mark.parametrize(
        "values, new, exponent",
        [
            ([f"{k}e400" for k in range(1, 7)], "7e400", 0),
            # the oracle's Fractions cannot square these: it judges the
            # values scaled by 10**-999999, which leaves z unchanged
            ([f"-{k}e999999" for k in range(1, 7)], "9e999999", 999999),
            ([f"{k}e-400" for k in (1, 3, 2, 3, 1)], "30e-400", 0),
            (["1e308", "1.7e308", "1e308", "1.7e308", "1e308"], "1e308", 0),
        ],
        ids=["past-float-max", "range-ends", "below-float-min", "sums-past-float-max"],
    )
    def test_values_that_do_not_fit_a_float_are_judged_in_decimal(self, values, new, exponent):
        verdict = trend_deviation(series(values), Decimal(new), self.RULE)
        mean, sd, z = exact_trend_stats([Decimal(v).scaleb(-exponent) for v in values], Decimal(new).scaleb(-exponent))
        with localcontext(Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            expected = (mean.scaleb(exponent), sd.scaleb(exponent), z)
            for actual, want in zip((verdict.mean, verdict.stddev, verdict.z), expected):
                assert abs(actual - want) <= abs(want) * Decimal("1e-30")
        assert verdict.violated == (abs(z) > 3)

    def test_in_band_value_passes(self):
        verdict = trend_deviation(series([10, 12, 11, 13, 10]), Decimal(12), self.RULE)
        assert not verdict.violated

    def test_oracle_agreement_randomized(self, rng):
        for _ in range(200):
            n = rng.randrange(5, 25)
            values = [rng.randrange(-10**6, 10**6) / 100 for _ in range(n)]
            new = Decimal(rng.randrange(-10**6, 10**6)) / 100
            verdict = trend_deviation(series(values), new, self.RULE)
            prior = values[-20:]
            if len(set(prior)) == 1:
                continue
            mean, sd, z = exact_trend_stats([Decimal(str(v)) for v in prior], new)
            assert relative_close(verdict.mean, mean)
            assert relative_close(verdict.stddev, sd)
            assert relative_close(verdict.z, z)

    def test_trend_findings_through_policy(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        p = policy(trend_rules=(TrendRule(addr("S!B2")),))
        for i, v in enumerate([10, 12, 11, 13, 10]):
            ledger.ingest_snapshot(snap({"S!B2": v}, at=T0 + hours(i), actor="a"), policy=p)
        findings = ledger.ingest_snapshot(
            snap({"S!B2": 30}, at=T0 + hours(9), actor="a"), policy=p
        )
        assert [f.rule_id for f in findings] == ["TREND_DEVIATION"]
        assert "14.418942" in findings[0].message


class TestTaskOrder:
    def _workflow(self, count=3):
        steps = tuple(
            WorkflowStep(f"s{i + 1}", parse_region(f"S!{chr(ord('A') + i)}1:{chr(ord('A') + i)}9"))
            for i in range(count)
        )
        return Workflow(steps)

    def _policy(self, count=3):
        return policy(workflow=self._workflow(count))

    def _run_permutation(self, tmp_path, order, count=3):
        """Ingest one single-step touch per session; returns per-session flags."""
        ledger = Ledger.open(tmp_path / f"led-{'-'.join(map(str, order))}")
        p = self._policy(count)
        base = {f"S!{chr(ord('A') + i)}1": 0 for i in range(count)}
        ledger.ingest_snapshot(snap(base, at=T0 - hours(1), actor="seed"))
        flags = []
        for session, step in enumerate(order):
            cells = dict(base)
            for done in order[: session + 1]:
                cells[f"S!{chr(ord('A') + done)}1"] = session + 1 if done == step else cells[f"S!{chr(ord('A') + done)}1"]
            cells[f"S!{chr(ord('A') + step)}1"] = session + 1
            base = cells
            findings = ledger.ingest_snapshot(
                snap(cells, at=T0 + hours(session), actor="a"), policy=p
            )
            flags.append(any(f.rule_id == "TASK_ORDER_VIOLATION" for f in findings))
        return flags

    def test_declared_order_passes(self, tmp_path):
        assert self._run_permutation(tmp_path, (0, 1, 2)) == [False, False, False]

    def test_skipping_first_step_flagged(self, tmp_path):
        flags = self._run_permutation(tmp_path, (1, 0, 2))
        assert flags == [True, False, False]

    def test_all_three_step_permutations_match_oracle(self, tmp_path):
        for order in itertools.permutations(range(3)):
            assert self._run_permutation(tmp_path, order) == simulate_task_order(3, order)

    def test_rework_of_completed_step_allowed(self, tmp_path):
        flags = self._run_permutation(tmp_path, (0, 1, 0, 2))
        assert flags == [False, False, False, False]

    def test_attestation_resets_period(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        p = self._policy()
        ledger.ingest_snapshot(snap({"S!A1": 0, "S!B1": 0, "S!C1": 0}, at=T0 - hours(1)))
        specs = [
            ({"S!A1": 1, "S!B1": 0, "S!C1": 0}, None),
            ({"S!A1": 1, "S!B1": 1, "S!C1": 0}, None),
            ({"S!A1": 1, "S!B1": 1, "S!C1": 1}, "period close"),
        ]
        for i, (cells, att) in enumerate(specs):
            findings = ledger.ingest_snapshot(
                snap(cells, at=T0 + hours(i), actor="a", att=att), policy=p
            )
            assert findings == []
        # new period: jumping straight to step 2 must flag step 1 again
        findings = ledger.ingest_snapshot(
            snap({"S!A1": 1, "S!B1": 2, "S!C1": 1}, at=T0 + hours(9), actor="a"), policy=p
        )
        assert [f.rule_id for f in findings] == ["TASK_ORDER_VIOLATION"]

    def test_events_outside_steps_ignored(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        p = self._policy()
        ledger.ingest_snapshot(snap({"S!Z9": 0}, at=T0 - hours(1)))
        findings = ledger.ingest_snapshot(snap({"S!Z9": 1}, at=T0, actor="a"), policy=p)
        assert findings == []

    def test_workflow_validation(self):
        with pytest.raises(ValueError):
            Workflow((WorkflowStep("a", parse_region("S!A1:A9")), WorkflowStep("a", parse_region("S!B1:B9"))))
        with pytest.raises(ValueError):
            Workflow((WorkflowStep("a", parse_region("S!A1:B9")), WorkflowStep("b", parse_region("S!B1:C9"))))


class TestPolicyMonotonicity:
    def test_adding_rules_never_removes_findings(self):
        changes = changeset(
            {"S!A1": "=B1", "S!B1": 5, "S!C1": 1},
            {"S!A1": "=B2", "S!B1": 500, "S!C1": 2},
        )
        pool = {
            "region_rules": [
                region_rule("S!A1:A9", Mode.LOCKED),
                region_rule("S!A1:C9", Mode.DATA_ONLY),
                region_rule("S!A1:C9", Mode.FORMULA_MAINTAINED),
                region_rule("S!C1:C9", Mode.LOCKED),
            ],
            "bound_rules": [BoundRule(parse_region("S!B1:B9"), Decimal(0), Decimal(100))],
            "cadence_rules": [
                CadenceRule(parse_region("S!A1:Z9"), (CadenceWindow(frozenset({6}), 0, 1),))
            ],
        }
        counts = [len(v) for v in pool.values()]
        for sizes in itertools.product(*(range(c + 1) for c in counts)):
            kwargs = {k: tuple(v[:n]) for (k, v), n in zip(pool.items(), sizes)}
            found = set(evaluate_policies(changes, policy(**kwargs)))
            for grown in itertools.product(*(range(n, c + 1) for n, c in zip(sizes, counts))):
                bigger = {k: tuple(v[:n]) for (k, v), n in zip(pool.items(), grown)}
                assert found <= set(evaluate_policies(changes, policy(**bigger)))


class TestPolicyFile:
    GOOD = """
    # demo policy
    workbook = wb1

    [region]
    range = S!B2:D10
    mode = LOCKED
    ticket_required = true

    [region]
    range = S!E1:E9
    mode = data_only

    [cadence]
    range = S!A1:Z99
    window = Mon-Fri 9-17
    window = Sat 10-12

    [bounds]
    range = S!B2:B10
    min = 0
    max = 100

    [trend]
    cell = S!B2
    window = 10
    z_threshold = 2.5

    [workflow]
    step = load S!A1:A10
    step = compute S!B11:B20
    step = publish S!C21:C30
    """

    def test_full_parse(self):
        p = parse_policy_file(self.GOOD)
        assert p.workbook_id == "wb1"
        assert [r.mode for r in p.region_rules] == [Mode.LOCKED, Mode.DATA_ONLY]
        assert p.region_rules[0].ticket_required
        assert len(p.cadence_rules[0].windows) == 2
        assert p.cadence_rules[0].windows[0].days == frozenset(range(5))
        assert p.bound_rules[0].maximum == Decimal(100)
        assert p.trend_rules[0].z_threshold == 2.5
        assert [s.step_id for s in p.workflow.steps] == ["load", "compute", "publish"]

    @pytest.mark.parametrize(
        "text",
        [
            "[region]\nrange = S!A1\nmode = LOCKED\n",  # no workbook line
            "workbook = wb1\n[region]\nmode = LOCKED\n",  # missing range
            "workbook = wb1\n[region]\nrange = S!A1\nmode = SHUT\n",
            "workbook = wb1\n[cadence]\nrange = S!A1\nwindow = Mon 99-3\n",
            "workbook = wb1\n[cadence]\nrange = S!A1\nwindow = Someday 1-2\n",
            "workbook = wb1\n[trend]\ncell = S!B2\nwindow = 2\n",
            "workbook = wb1\n[mystery]\nx = 1\n",
            "workbook = wb1\nnot a kv line\n",
        ],
    )
    def test_rejects_bad_files(self, text):
        with pytest.raises(PolicyError):
            parse_policy_file(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[region]\nrange = S!A1\nmode = FORMULA_MAINTAINED\ntiket_required = true\n",
             r"\[region\] stanza has unknown key 'tiket_required'"),
            ("[bounds]\nrange = S!A1:A9\nmni = 0\n", r"\[bounds\] stanza has unknown key 'mni'"),
            ("[workflow]\nstep = load S!A1\nstage = publish S!C1\n",
             r"\[workflow\] stanza has unknown key 'stage'"),
            ("[region]\nrange = S!A1\nmode = SHUT\n", r"\[region\] stanza has unknown mode 'SHUT'"),
            ("[bounds]\nrange = S!A1:A9\nmin = NaN\n", r"bad \[bounds\] stanza: bounds must be finite"),
            ("[bounds]\nrange = S!A1:A9\nmax = -Infinity\n", r"bad \[bounds\] stanza: bounds must be finite"),
            ("[trend]\ncell = S!B2\nz_threshold = nan\n", r"bad \[trend\] stanza: z threshold must be a finite"),
            ("[trend]\ncell = S!B2\nz_threshold = inf\n", r"bad \[trend\] stanza: z threshold must be a finite"),
            ("[trend]\ncell = S!B2\nwindow = 6\nmin_points = 7\n",
             r"bad \[trend\] stanza: min_points must not exceed window"),
            ("[bounds]\nrange = S!A1:A9\nmin = 10\nmax = 0\n", r"bad \[bounds\] stanza: min must not exceed max"),
            ("[region]\nrange = S!A1\nmode = LOCKED\nmode = FREE\n", r"\[region\] stanza repeats key 'mode'"),
            ("[trend]\ncell = S!B2\nwindow = 20\nwindow = 6\n", r"\[trend\] stanza repeats key 'window'"),
            ("[bounds]\nrange = S!A1:A9\nrange = S!B1:B9\nmin = 0\n", r"\[bounds\] stanza repeats key 'range'"),
            ("workbook = wb2\n[region]\nrange = S!A1\nmode = LOCKED\n", r"line 2: `workbook` is declared twice"),
        ],
        ids=["misspelt-key", "bounds-typo", "workflow-key", "unknown-mode", "nan-min", "infinite-max",
             "nan-z", "infinite-z", "min-points-over-window", "crossed-bounds", "repeated-mode",
             "repeated-trend-window", "repeated-range", "second-workbook"],
    )
    def test_rejection_names_the_cause(self, text, message):
        with pytest.raises(PolicyError, match=message):
            parse_policy_file("workbook = wb1\n" + text)

    @pytest.mark.parametrize("key, raw", [("min", "1e5000000"), ("max", "-1e1000000"), ("min", "1e-5000000")])
    def test_bound_with_an_exponent_out_of_range(self, key, raw):
        message = r"bad \[bounds\] stanza: bounds must be finite numbers with exponents within ±999999"
        with pytest.raises(PolicyError, match=message):
            parse_policy_file(f"workbook = wb1\n[bounds]\nrange = S!A1:A9\n{key} = {raw}\n")

    def test_equal_bounds_are_allowed(self):
        p = parse_policy_file("workbook = wb1\n[bounds]\nrange = S!A1\nmin = 5\nmax = 5\n")
        assert (p.bound_rules[0].minimum, p.bound_rules[0].maximum) == (Decimal(5), Decimal(5))

    def test_readme_example_parses(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Policy files", 1)[1].split("```")[1]
        p = parse_policy_file(example)
        assert p.workbook_id == "wb-ops"
        assert [(r.mode, r.ticket_required) for r in p.region_rules] == [(Mode.LOCKED, True)]
        assert [str(w) for w in p.cadence_rules[0].windows] == ["Mon,Tue,Wed,Thu,Fri 9-17"]
        assert (p.bound_rules[0].minimum, p.bound_rules[0].maximum) == (Decimal(0), Decimal(100))
        assert p.trend_rules[0].min_points == 5
        assert [s.step_id for s in p.workflow.steps] == ["load", "compute", "publish"]
