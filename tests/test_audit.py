"""Static logic audit detectors."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COPY_TEMPLATES, T0, addr, render_copy, snap
from oracles import audit_by_cell

from gridaudit import audit
from gridaudit.audit import (
    AuditConfig,
    ConfigError,
    audit_workbook,
    detect_copy_inconsistencies,
    detect_deep_nesting,
    detect_embedded_constants,
    detect_error_values,
    detect_parse_failures,
    if_nesting_depth,
    load_audit_config,
)
from gridaudit.formula import copy_key, parse_formula
from gridaudit.grid import CellAddress, Formula, Snapshot, col_to_letters


def _copied_row(source_template, cols, row=1, sheet="S"):
    """Cells for one horizontal run: the template is translated per column
    the way a spreadsheet fill-right would."""
    cells = {}
    for i, col in enumerate(cols):
        cells[f"{sheet}!{col_to_letters(col)}{row}"] = source_template(i, col)
    return cells


class TestCopyInconsistencies:
    def test_clean_copied_run_is_silent(self):
        # =B2+C2 at A1, filled right: every ref moves with the host
        cells = {
            "S!A1": "=B2+C2",
            "S!B1": "=C2+D2",
            "S!C1": "=D2+E2",
        }
        assert audit_workbook(snap(cells)) == []

    def test_one_altered_cell_in_five(self):
        cells = {
            "S!A1": "=B1*2",
            "S!B1": "=C1*2",
            "S!C1": "=D1*2",
            "S!D1": "=B1*3",  # altered: breaks the translated pattern
            "S!E1": "=F1*2",
        }
        findings = detect_copy_inconsistencies(snap(cells), "S")
        assert [str(f.location) for f in findings] == ["S!D1"]
        assert findings[0].rule_id == "COPY_INCONSISTENT"
        assert findings[0].expected == "=RC[1]*2"
        assert findings[0].observed == "=RC[-2]*3"

    def test_cross_sheet_run_is_checked(self, monkeypatch):
        sources = []

        def counted(source):
            sources.append(source)
            return parse_formula(source)

        monkeypatch.setattr(audit, "parse_formula", counted)
        # filled down from B1: the Data! references follow the host as well
        cells = {f"S!B{row}": f"=Data!A{row}*2" for row in range(1, 7)}
        cells["S!B4"] = "=Data!A4*3"
        findings = [f for f in audit_workbook(snap(cells)) if f.rule_id == "COPY_INCONSISTENT"]
        assert [(str(f.location), f.observed, f.expected) for f in findings] == [
            ("S!B4", "=Data!RC[-1]*3", "=Data!RC[-1]*2")
        ]
        assert sources == ["=Data!A1*2", "=Data!A4*3"]  # one parse per copy form

    def test_run_below_min_length_ignored(self):
        cells = {"S!A1": "=B1*2", "S!B1": "=Z9*9"}
        assert detect_copy_inconsistencies(snap(cells), "S") == []

    def test_even_split_has_no_majority(self):
        cells = {
            "S!A1": "=B1*2",
            "S!B1": "=C1*2",
            "S!C1": "=A1*9",
            "S!D1": "=B1*9",
        }
        assert detect_copy_inconsistencies(snap(cells), "S") == []

    def test_two_thirds_majority_is_enough(self):
        cells = {"S!A1": "=A2+1", "S!B1": "=B2+1", "S!C1": "=C2+9"}
        findings = detect_copy_inconsistencies(snap(cells), "S")
        assert [str(f.location) for f in findings] == ["S!C1"]

    def test_vertical_runs_detected(self):
        cells = {
            "S!A1": "=B1+1",
            "S!A2": "=B2+1",
            "S!A3": "=B3+1",
            "S!A4": "=B4+2",
        }
        findings = detect_copy_inconsistencies(snap(cells), "S")
        assert [str(f.location) for f in findings] == ["S!A4"]

    def test_gap_splits_runs(self):
        cells = {
            "S!A1": "=A2+1",
            "S!B1": "=B2+1",
            "S!D1": "=D2+9",
            "S!E1": "=E2+9",
        }
        assert detect_copy_inconsistencies(snap(cells), "S") == []

    def test_other_sheets_ignored(self):
        cells = {
            "S!A1": "=A2+1",
            "S!B1": "=B2+1",
            "S!C1": "=C2+9",
            "T!A1": "=A2+1",
        }
        findings = detect_copy_inconsistencies(snap(cells), "T")
        assert findings == []

    def test_unparseable_cell_counts_as_its_own_form(self):
        cells = {
            "S!A1": "=A2+1",
            "S!B1": "=B2+1",
            "S!C1": "=C2+1",
            "S!D1": "=((broken",
        }
        findings = detect_copy_inconsistencies(snap(cells), "S")
        assert [str(f.location) for f in findings] == ["S!D1"]

    def test_seeded_faults_recalled_exactly(self, rng):
        for _ in range(10):
            length = rng.randrange(5, 31)
            row = rng.randrange(1, 50)
            faults = {rng.randrange(length)} if length < 9 else {
                rng.randrange(length) for _ in range(2)
            }
            cells = {}
            for i in range(length):
                col = i + 1
                template = f"={col_to_letters(col)}{row + 1}*2"
                if i in faults:
                    template = f"={col_to_letters(col)}{row + 1}*7"
                cells[f"S!{col_to_letters(col)}{row}"] = template
            findings = detect_copy_inconsistencies(snap(cells), "S")
            flagged = {f.location.col - 1 for f in findings}
            assert flagged == faults


class TestDeepNesting:
    def test_shallow_if_passes(self):
        assert detect_deep_nesting(snap({"S!A1": "=IF(A2,1,2)"})) == []

    def test_depth_four_flagged(self):
        cells = {"S!A1": "=IF(A2,IF(B2,IF(C2,IF(D2,1,0),0),0),0)"}
        findings = detect_deep_nesting(snap(cells))
        assert len(findings) == 1
        assert findings[0].observed == "4"
        assert findings[0].rule_id == "DEEP_NESTING"

    def test_non_if_calls_do_not_count(self):
        assert if_nesting_depth(parse_formula("=SUM(IF(A1,1,0))")) == 1
        assert detect_deep_nesting(snap({"S!A1": "=SUM(IF(A1,1,0))"})) == []

    def test_sibling_ifs_measure_max_not_sum(self):
        tree = parse_formula("=IF(A1,IF(B1,1,0),IF(C1,1,0))+IF(D1,1,0)")
        assert if_nesting_depth(tree) == 2

    @given(st.integers(1, 6))
    @settings(deadline=None)
    def test_raising_threshold_never_increases_findings(self, threshold):
        cells = {
            "S!A1": "=IF(A2,IF(B2,IF(C2,IF(D2,1,0),0),0),0)",
            "S!B9": "=IF(A2,IF(B2,1,0),0)",
        }
        lower = detect_deep_nesting(snap(cells), AuditConfig(if_depth_threshold=threshold))
        higher = detect_deep_nesting(snap(cells), AuditConfig(if_depth_threshold=threshold + 1))
        assert len(higher) <= len(lower)


class TestEmbeddedConstants:
    def test_scaling_constant_flagged(self):
        findings = detect_embedded_constants(snap({"S!A1": "=A2*1.05"}))
        assert len(findings) == 1
        assert "1.05" in findings[0].message
        assert findings[0].severity == "warning"

    def test_whitelisted_constants_pass(self):
        assert detect_embedded_constants(snap({"S!A1": "=A2*100"})) == []
        assert detect_embedded_constants(snap({"S!A1": "=A2*-1+0"})) == []

    def test_bare_literal_cell_passes(self):
        assert detect_embedded_constants(snap({"S!A1": "=42", "S!B1": "=-42"})) == []

    def test_custom_whitelist(self):
        cfg = AuditConfig(constant_whitelist=frozenset({Decimal("1.05")}))
        assert detect_embedded_constants(snap({"S!A1": "=A2*1.05"}), cfg) == []


class TestErrorValues:
    def test_literal_error(self):
        findings = detect_error_values(snap({"S!B2": "#DIV/0!"}))
        assert [str(f.location) for f in findings] == ["S!B2"]
        assert findings[0].severity == "critical"

    def test_cached_error(self):
        findings = detect_error_values(snap({"S!A1": ("=X1/Y1", "#N/A")}))
        assert len(findings) == 1 and findings[0].observed == "#N/A"

    def test_clean_workbook(self):
        assert detect_error_values(snap({"S!A1": 5, "S!B1": "=A1"})) == []


class TestAuditWorkbook:
    def test_parse_failure_is_a_finding_not_an_error(self):
        findings = audit_workbook(snap({"S!A1": "=((", "S!B1": 5}))
        assert [f.rule_id for f in findings] == ["PARSE_FAILURE"]

    @pytest.mark.parametrize(
        "source",
        ["=" + "(" * 110 + "1" + ")" * 110, "=" + "-" * 1200 + "1"],
        ids=["parentheses", "minus-signs"],
    )
    def test_nesting_past_the_cap_is_a_parse_failure(self, source):
        findings = audit_workbook(snap({"S!A1": source}))
        assert [f.rule_id for f in findings] == ["PARSE_FAILURE"]
        assert findings[0].message == (
            "formula could not be parsed: at offset 64: "
            "expected at most 64 nested parentheses, calls or minus signs"
        )

    def test_rule_views_partition_the_single_pass(self):
        cells = {
            "S!A1": "=B1*2", "S!B1": "=C1*2", "S!C1": "=D1*2", "S!D1": "=B1*3",
            "T!A1": "=IF(A2,IF(B2,IF(C2,IF(D2,1,0),0),0),0)",
            "T!B1": "=A2*7", "T!C1": "#REF!", "T!D1": "=((",
        }
        workbook = snap(cells)
        views = (
            detect_copy_inconsistencies(workbook, "S")
            + detect_copy_inconsistencies(workbook, "T")
            + detect_deep_nesting(workbook)
            + detect_embedded_constants(workbook)
            + detect_error_values(workbook)
            + detect_parse_failures(workbook)
        )
        assert sorted(views, key=lambda f: f.sort_key()) == audit_workbook(workbook)
        assert {f.rule_id for f in views} == {
            "COPY_INCONSISTENT", "DEEP_NESTING", "EMBEDDED_CONSTANT", "ERROR_VALUE", "PARSE_FAILURE",
        }

    def test_ordering_and_determinism(self):
        cells = {
            "S!C1": "#REF!",
            "S!A1": "=IF(A2,IF(B2,IF(C2,IF(D2,1,0),0),0),0)",
            "S!B1": "=A2*7",
        }
        first = audit_workbook(snap(cells))
        second = audit_workbook(snap(cells))
        assert first == second
        keys = [(f.location.sort_key(), f.rule_id) for f in first]
        assert keys == sorted(keys)

    def test_error_value_example(self):
        findings = audit_workbook(snap({"S!A1": ("=B1", "#REF!")}))
        assert [f.rule_id for f in findings] == ["ERROR_VALUE"]


def _copy_workbook(runs):
    """Cells of copy runs: each run is (template, sheet, row, col, length,
    down, edits), and edits maps a position in the run to a template whose
    copy replaces the cell there."""
    cells = {}
    for template, sheet, row, col, length, down, edits in runs:
        for i in range(length):
            host = CellAddress(sheet, row + i * down, col + i * (not down))
            cells[host] = Formula(render_copy(edits.get(i, template), host))
    return Snapshot("wb1", T0, "alice", cells)


_RUNS = st.lists(
    st.tuples(
        COPY_TEMPLATES,
        st.sampled_from(["S", "T"]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 8),
        st.booleans(),
        st.dictionaries(st.integers(0, 7), COPY_TEMPLATES, max_size=2),
    ),
    min_size=1,
    max_size=5,
)


class TestCopyFormCache:
    """audit_workbook parses each copy form once; these pin what that must
    not change."""

    @given(_RUNS, st.sampled_from([AuditConfig(), AuditConfig(if_depth_threshold=1, min_run_length=3)]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_cell_audit(self, runs, cfg):
        workbook = _copy_workbook(runs)
        assert audit_workbook(workbook, cfg) == audit_by_cell(workbook, cfg)

    def test_broken_copies_report_their_own_offsets(self):
        assert copy_key("=A9+", addr("S!B9")) == copy_key("=A10+", addr("S!B10"))
        findings = audit_workbook(snap({"S!B9": "=A9+", "S!B10": "=A10+"}))
        assert [(str(f.location), f.message) for f in findings] == [
            ("S!B9", "formula could not be parsed: at offset 3: expected an expression"),
            ("S!B10", "formula could not be parsed: at offset 4: expected an expression"),
        ]

    @pytest.mark.parametrize(
        "run, source, odd_one",
        [
            (["S!B1", "S!B2", "S!B3", "S!B4"], "=Data!$A$1:$B$2", "=Data!$A$1:$B$5"),  # the end of a named-sheet range
            (["S!B1", "S!B2", "S!B3", "S!B4"], "=A$1*2", "=A$4*2"),
            (["S!B1", "S!B2", "S!B3", "S!B4"], "=Data!$A$1*2", "=Data!$A$4*2"),
            (["S!B1", "S!B2", "S!B3", "S!B4"], "=Data!$A$1*2", "=Other!$A$1*2"),
            (["S!B1", "S!C1", "S!D1", "S!E1"], "=$A1*2", "=$D1*2"),
        ],
    )
    def test_fixed_references_are_not_shared(self, run, source, odd_one):
        """The last cell of the run differs from the others only in a fixed
        reference (moved as far as the cell sits from the first, or on
        another sheet): it must be flagged."""
        cells = dict.fromkeys(run[:-1], source)
        cells[run[-1]] = odd_one
        findings = audit_workbook(snap(cells))
        assert [str(f.location) for f in findings if f.rule_id == "COPY_INCONSISTENT"] == [run[-1]]

    def test_parses_once_per_copy_form(self, monkeypatch):
        sources = []

        def counted(source):
            sources.append(source)
            return parse_formula(source)

        monkeypatch.setattr(audit, "parse_formula", counted)
        templates = ["={c}{d}*2", "=IF({c}{d}>5,{c}{d}-5,0)", "=SUM({c}{d}:{c}{e})", "={c}{d}*Data!$B$2"]
        cells = {}
        for row in range(1, 17):
            for col in range(1, 31):
                c = col_to_letters(col)
                cells[f"S!{c}{row}"] = templates[row % 4].format(c=c, d=row + 1, e=row + 3)
        # two seeded faults, each a form of its own, and two broken copies
        cells["S!E1"], cells["S!G2"] = "=E2*3", "=G4*2"
        cells["S!C3"], cells["S!D7"] = "=C4*2+", "=D8*2+"
        workbook = snap(cells)
        findings = audit_workbook(workbook)
        assert len(workbook.cells) == 480
        assert len(sources) == 4 + 2 + 2
        assert [str(f.location) for f in findings if f.rule_id == "PARSE_FAILURE"] == ["S!C3", "S!D7"]
        assert findings == audit_by_cell(workbook)


class TestConfig:
    def test_defaults(self):
        cfg = AuditConfig()
        assert cfg.if_depth_threshold == 3
        assert cfg.min_run_length == 3
        assert cfg.majority_fraction == Fraction(2, 3)
        assert Decimal(100) in cfg.constant_whitelist

    def test_load_full_file(self):
        cfg = load_audit_config(
            """
            # audit tuning
            if_depth_threshold = 5
            min_run_length = 4
            majority_fraction = 3/4
            constant_whitelist = 0, 1, 2.5
            """
        )
        assert cfg.if_depth_threshold == 5
        assert cfg.min_run_length == 4
        assert cfg.majority_fraction == Fraction(3, 4)
        assert cfg.constant_whitelist == frozenset({Decimal(0), Decimal(1), Decimal("2.5")})

    def test_partial_file_keeps_defaults(self):
        cfg = load_audit_config("if_depth_threshold = 2\n")
        assert cfg.min_run_length == 3

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            load_audit_config("if_depth_threshold = many\n")
        with pytest.raises(ConfigError):
            load_audit_config("majority_fraction = 1/3\n")
        with pytest.raises(ConfigError):
            load_audit_config("unknown_key = 1\n")
