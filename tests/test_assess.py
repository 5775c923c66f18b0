"""Usage classification, risk scoring and compliance reports."""

import random
from datetime import datetime, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, addr, hours, snap
from oracles import report_json_by_dumps

from gridaudit.assess import (
    INDETERMINATE,
    MODELING,
    OPERATIONAL,
    SOX_SECTIONS,
    ClassifierConfig,
    ComplianceReport,
    EmptyLedger,
    RiskProfile,
    UsageMetrics,
    build_report,
    classify_usage,
    findings_in_period,
    map_finding_to_sox,
    render_report_json,
    render_report_text,
    risk_score,
    usage_metrics,
)
from gridaudit.controls import ControlPolicy, Mode, RegionRule, parse_policy_file
from gridaudit.findings import CRITICAL, RULE_SEVERITY, Finding
from gridaudit.grid import CellAddress, Region, parse_region
from gridaudit import ledger as ledger_mod
from gridaudit.ledger import Ledger


def metrics(actors=1, days=0.0, structural=0, data=0, ingests=1):
    return UsageMetrics(
        distinct_actors=actors,
        persistence_days=days,
        mean_structural_volatility=Fraction(structural),
        mean_data_volatility=Fraction(data),
        ingest_count=ingests,
    )


class TestUsageMetrics:
    def test_single_ingest(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        ledger.ingest_snapshot(snap({"S!A1": 1}))
        m = usage_metrics(ledger)
        assert m.ingest_count == 1
        assert m.distinct_actors == 1
        assert m.persistence_days == 0
        assert m.mean_structural_volatility == 0
        assert m.mean_data_volatility == 0

    def test_persistence_in_days(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        ledger.ingest_snapshot(snap({"S!A1": 1}))
        ledger.ingest_snapshot(snap({"S!A1": 2}, at=T0 + hours(36), actor="bob"))
        m = usage_metrics(ledger)
        assert m.persistence_days == 1.5
        assert m.distinct_actors == 2

    def test_mean_structural_volatility(self, tmp_path):
        # pair 1 changes 1 of 5 formulas (0.2); pair 2 changes 2 of 5 (0.4)
        ledger = Ledger.open(tmp_path / "led")
        base = {f"S!A{i}": f"=B{i}" for i in range(1, 6)}
        ledger.ingest_snapshot(snap(base))
        step2 = dict(base, **{"S!A1": "=C1"})
        ledger.ingest_snapshot(snap(step2, at=T0 + hours(1)))
        step3 = dict(step2, **{"S!A2": "=C2", "S!A3": "=C3"})
        ledger.ingest_snapshot(snap(step3, at=T0 + hours(2)))
        m = usage_metrics(ledger)
        assert m.mean_structural_volatility == Fraction(3, 10)  # mean of 0.2 and 0.4

    def test_actor_names_case_sensitive(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        ledger.ingest_snapshot(snap({"S!A1": 1}, actor="Alice"))
        ledger.ingest_snapshot(snap({"S!A1": 2}, at=T0 + hours(1), actor="alice"))
        assert usage_metrics(ledger).distinct_actors == 2


class TestClassification:
    def test_multiple_actors_is_operational(self):
        assert classify_usage(metrics(actors=3, structural=1)) == OPERATIONAL

    def test_single_actor_heavy_revision_is_modeling(self):
        assert classify_usage(metrics(actors=1, structural=Fraction(2, 5))) == MODELING

    def test_gap_case_is_indeterminate(self):
        m = UsageMetrics(1, 10.0, Fraction(15, 100), Fraction(0), 3)
        assert classify_usage(m) == INDETERMINATE

    def test_stable_persistent_single_user_is_operational(self):
        m = UsageMetrics(1, 45.0, Fraction(1, 20), Fraction(1, 2), 10)
        assert classify_usage(m) == OPERATIONAL

    def test_thresholds_overridable(self):
        cfg = ClassifierConfig(modeling_min_structural=Fraction(1, 2))
        assert classify_usage(metrics(actors=1, structural=Fraction(2, 5)), cfg) == INDETERMINATE

    def test_direction_actor_growth_never_moves_toward_modeling(self, rng):
        order = {MODELING: 0, INDETERMINATE: 1, OPERATIONAL: 2}
        for _ in range(300):
            m = UsageMetrics(
                rng.randrange(0, 5),
                rng.uniform(0, 90),
                Fraction(rng.randrange(0, 101), 100),
                Fraction(rng.randrange(0, 101), 100),
                rng.randrange(1, 20),
            )
            grown = UsageMetrics(
                m.distinct_actors + rng.randrange(1, 4),
                m.persistence_days,
                m.mean_structural_volatility,
                m.mean_data_volatility,
                m.ingest_count,
            )
            assert order[classify_usage(grown)] >= order[classify_usage(m)]

    def test_direction_volatility_growth_never_moves_toward_operational(self, rng):
        order = {MODELING: 0, INDETERMINATE: 1, OPERATIONAL: 2}
        for _ in range(300):
            m = UsageMetrics(
                rng.randrange(0, 2),
                rng.uniform(0, 90),
                Fraction(rng.randrange(0, 80), 100),
                Fraction(0),
                5,
            )
            grown = UsageMetrics(
                m.distinct_actors,
                m.persistence_days,
                m.mean_structural_volatility + Fraction(rng.randrange(1, 20), 100),
                m.mean_data_volatility,
                m.ingest_count,
            )
            assert order[classify_usage(grown)] <= order[classify_usage(m)]


class TestRiskScore:
    def test_all_zero(self):
        assert risk_score(metrics(actors=0), []) == 0.0

    def test_weights_example(self):
        m = metrics(actors=4, days=45.0, data=1)
        assert risk_score(m, []) == 95.0
        assert risk_score(metrics(actors=6, days=45.0, data=1), []) == 95.0

    def test_each_critical_adds_five_until_clamp(self):
        m = metrics(actors=4, days=45.0, data=1)
        finding = Finding("ERROR_VALUE", addr("S!A1"), "err", "#REF!")
        assert risk_score(m, [finding]) == 100.0
        assert risk_score(m, [finding] * 10) == 100.0
        base = metrics(actors=1)
        assert risk_score(base, [finding]) - risk_score(base, []) == 5.0


class TestSoxMapping:
    def test_cadence_maps_to_103_404(self):
        f = Finding("CADENCE_VIOLATION", addr("S!A1"), "m", "o")
        assert map_finding_to_sox(f) == frozenset({103, 404})

    def test_unattested_logic_change_adds_302(self):
        f = Finding("UNATTESTED_LOGIC_CHANGE", addr("S!A1"), "m", "o")
        assert map_finding_to_sox(f) == frozenset({103, 302, 404})

    def test_critical_bound_violation_adds_304(self):
        f = Finding("BOUND_VIOLATION", addr("S!A1"), "m", "o")
        assert f.severity == CRITICAL
        assert map_finding_to_sox(f) == frozenset({103, 304, 404})


def _build_violation_ledger(tmp_path):
    policy = ControlPolicy(
        workbook_id="wb1",
        region_rules=(
            RegionRule(parse_region("S!A1:A9"), Mode.LOCKED),
            RegionRule(parse_region("S!B1:B9"), Mode.FORMULA_MAINTAINED),
        ),
    )
    ledger = Ledger.open(tmp_path / "led")
    ledger.ingest_snapshot(snap({"S!A1": 1, "S!B1": "=C1"}), policy=policy)
    ledger.ingest_snapshot(
        snap({"S!A1": 2, "S!B1": "=C2"}, at=T0 + hours(1), actor="bob"), policy=policy
    )
    return ledger, policy


class TestReports:
    PERIOD = (T0 - hours(1), T0 + hours(24))
    GENERATED = datetime(2024, 4, 1, 8, 0, tzinfo=timezone.utc)

    def test_clean_ledger_report(self, tmp_path):
        ledger = Ledger.open(tmp_path / "led")
        ledger.ingest_snapshot(snap({"S!A1": 1}))
        ledger.ingest_snapshot(snap({"S!A1": 2}, at=T0 + hours(1)))
        report = build_report(ledger, None, self.PERIOD, self.GENERATED)
        assert report.chain_verified
        assert all(not fs for fs in report.findings_by_sox.values())
        assert report.material_weaknesses == []

    def test_violations_mapped_to_sections(self, tmp_path):
        ledger, policy = _build_violation_ledger(tmp_path)
        report = build_report(ledger, policy, self.PERIOD, self.GENERATED)
        by_rule = {
            section: [f.rule_id for f in fs]
            for section, fs in report.findings_by_sox.items()
        }
        assert "LOCKED_REGION_CHANGE" in by_rule[103]
        assert "LOCKED_REGION_CHANGE" in by_rule[404]
        assert "LOCKED_REGION_CHANGE" not in by_rule[302]
        assert "UNATTESTED_LOGIC_CHANGE" in by_rule[103]
        assert "UNATTESTED_LOGIC_CHANGE" in by_rule[302]
        assert "UNATTESTED_LOGIC_CHANGE" in by_rule[404]
        assert len(report.material_weaknesses) == 2

    def test_every_finding_lands_in_prescribed_sections(self, tmp_path):
        ledger, policy = _build_violation_ledger(tmp_path)
        report = build_report(ledger, policy, self.PERIOD, self.GENERATED)
        for finding in findings_in_period(ledger, *self.PERIOD):
            expected = map_finding_to_sox(finding)
            for section in (103, 302, 304, 404):
                present = finding in report.findings_by_sox[section]
                assert present == (section in expected)

    def test_tampered_ledger_reports_chain_failure(self, tmp_path):
        ledger, policy = _build_violation_ledger(tmp_path)
        log = ledger.directory / "ledger.log"
        lines = log.read_text().split("\n")
        lines[1] = lines[1][:-1] + ("0" if lines[1][-1] != "0" else "1")
        log.write_text("\n".join(lines))
        report = build_report(Ledger.open(ledger.directory), policy, self.PERIOD, self.GENERATED)
        assert not report.chain_verified
        assert [f.rule_id for f in report.findings_by_sox[103]] == ["LEDGER_TAMPER"]
        assert report.material_weaknesses[0].rule_id == "LEDGER_TAMPER"

    def test_each_record_is_hashed_once(self, tmp_path, monkeypatch):
        ledger, policy = _build_violation_ledger(tmp_path)
        calls = []
        original = ledger_mod.record_hash
        monkeypatch.setattr(ledger_mod, "record_hash", lambda *args: calls.append(1) or original(*args))
        report = build_report(Ledger.open(ledger.directory), policy, self.PERIOD, self.GENERATED)
        assert report.chain_verified
        assert len(calls) == report.record_count == len(ledger.records)

    def test_period_filters_findings(self, tmp_path):
        ledger, policy = _build_violation_ledger(tmp_path)
        late_period = (T0 + hours(10), T0 + hours(20))
        report = build_report(ledger, policy, late_period, self.GENERATED)
        assert all(not fs for fs in report.findings_by_sox.values())

    def test_empty_ledger_rejected(self, tmp_path):
        with pytest.raises(EmptyLedger):
            build_report(Ledger.open(tmp_path / "led"), None, self.PERIOD, self.GENERATED)

    def test_renderings_are_deterministic(self, tmp_path):
        ledger, policy = _build_violation_ledger(tmp_path)
        report = build_report(ledger, policy, self.PERIOD, self.GENERATED)
        again = build_report(ledger, policy, self.PERIOD, self.GENERATED)
        assert render_report_text(report) == render_report_text(again)
        assert render_report_json(report) == render_report_json(again)
        text = render_report_text(report)
        assert text.index("SECTION 103") < text.index("SECTION 302") < text.index("SECTION 304") < text.index("SECTION 404")

    def test_json_is_parseable_and_complete(self, tmp_path):
        import json

        ledger, policy = _build_violation_ledger(tmp_path)
        report = build_report(ledger, policy, self.PERIOD, self.GENERATED)
        doc = json.loads(render_report_json(report))
        assert doc["chain_verified"] is True
        assert doc["findings_by_section"]["302"][0]["rule_id"] == "UNATTESTED_LOGIC_CHANGE"
        assert doc["usage"]["distinct_actors"] == 2


# --- the JSON report against json.dumps ---------------------------------------

# quote, backslash, controls, non-ASCII, a line separator, non-BMP and a lone surrogate
_AWKWARD = st.sampled_from(['"', "\\", "\t", "\n", "\x00", "\x1f", "\x7f", "é", " ", "😀", "\U0010ffff", "\ud800"])
_TEXT = st.text(st.one_of(_AWKWARD, st.characters()), max_size=10)
_SHEET = st.text(st.one_of(_AWKWARD, st.characters()), min_size=1, max_size=6)
_FLOAT = st.one_of(
    st.floats(),
    st.sampled_from([1e300, -1e300, 1e-300, 5e-7, 4.9999995e-7, 123456789.1234567, 0.1, -0.0]),
)
_FRACTION = st.fractions(min_value=-(10**6), max_value=10**6)
_LOCATION = st.one_of(
    st.builds(CellAddress, _SHEET, st.integers(1, 10**6), st.integers(1, 16384)),
    st.builds(lambda sheet, top, left: Region(sheet, top, left, top + 3, left + 1), _SHEET, st.integers(1, 99), st.integers(1, 99)),
    _TEXT,
)
_FINDING = st.builds(
    Finding,
    st.sampled_from(sorted(RULE_SEVERITY)),
    _LOCATION,
    _TEXT,
    _TEXT,
    st.one_of(st.none(), _TEXT),
)
_INSTANT = st.datetimes(timezones=st.just(timezone.utc))


@st.composite
def _reports(draw) -> ComplianceReport:
    """Reports whose sections share finding objects, as build_report's do."""
    pool = draw(st.lists(_FINDING, max_size=5))
    picks = st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([])
    profile = RiskProfile(
        metrics=UsageMetrics(
            distinct_actors=draw(st.integers(0, 10**9)),
            persistence_days=draw(st.one_of(_FLOAT, st.integers(0, 999))),
            mean_structural_volatility=draw(_FRACTION),
            mean_data_volatility=draw(_FRACTION),
            ingest_count=draw(st.integers(0, 10**9)),
        ),
        classification=draw(st.one_of(st.sampled_from([OPERATIONAL, MODELING, INDETERMINATE]), _TEXT)),
        risk_score=draw(_FLOAT),
        rationale=tuple(draw(st.lists(_TEXT, max_size=3))),
    )
    return ComplianceReport(
        workbook_id=draw(_TEXT),
        period_start=draw(_INSTANT),
        period_end=draw(_INSTANT),
        generated_at=draw(_INSTANT),
        record_count=draw(st.integers(0, 10**9)),
        chain_verified=draw(st.booleans()),
        findings_by_sox={section: draw(picks) for section in SOX_SECTIONS},
        material_weaknesses=draw(picks),
        profile=profile,
        classifier=ClassifierConfig(
            operational_actor_min=draw(st.integers(-5, 10**6)),
            persistence_days_min=draw(st.one_of(_FLOAT, st.integers(0, 999))),
            operational_max_structural=draw(_FRACTION),
            modeling_min_structural=draw(_FRACTION),
        ),
        policy=None,
    )


def _large_report(count: int) -> ComplianceReport:
    """A report of count findings laid out as build_report lays them out:
    every finding in 103 and 404, logic changes in 302, critical value
    findings in 304 and in the material weaknesses."""
    rules = ["COPY_INCONSISTENT", "EMBEDDED_CONSTANT", "ERROR_VALUE", "UNATTESTED_LOGIC_CHANGE", "BOUND_VIOLATION"]
    findings = [
        Finding(
            rules[i % len(rules)],
            CellAddress(f"Sheet{i % 16}", 2 + i // 16, 3 + i % 7),
            f"formula deviates from the majority form of its run ({i % 9 + 3}/{i % 9 + 4} cells agree)",
            observed=f"=Data!R[{i % 5}]C[-1]*{i}",
            expected="=Data!RC[-1]*2" if i % 2 else None,
        )
        for i in range(count)
    ]
    by_section = {section: [] for section in SOX_SECTIONS}
    for finding in findings:
        for section in sorted(map_finding_to_sox(finding)):
            by_section[section].append(finding)
    return ComplianceReport(
        workbook_id="wb-large",
        period_start=T0,
        period_end=T0 + hours(24),
        generated_at=T0 + hours(25),
        record_count=2 * count,
        chain_verified=True,
        findings_by_sox=by_section,
        material_weaknesses=[f for f in findings if f.severity == CRITICAL],
        profile=RiskProfile(metrics(actors=3, days=31.5, structural=Fraction(1, 7)), OPERATIONAL, 95.0, ("one", "two")),
        classifier=ClassifierConfig(),
        policy=None,
    )


class TestJsonReport:
    @settings(max_examples=200, deadline=None)
    @given(_reports())
    def test_same_text_as_json_dumps(self, report):
        assert render_report_json(report) == report_json_by_dumps(report)

    def test_render_peak_is_bounded_by_output(self):
        # counted, not timed: the traced peak of one render, output included
        import tracemalloc

        report = _large_report(600)
        text = render_report_json(report)  # imports json before tracing starts
        assert text == report_json_by_dumps(report)
        tracemalloc.start()
        try:
            render_report_json(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text)
