"""Formula grammar: parsing, canonical printing, R1C1 normalization."""

from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COPY_TEMPLATES, addr, render_copy

from gridaudit.audit import AuditConfig, _tree_findings
from gridaudit.grid import CellAddress
from gridaudit.formula import (
    Binary,
    BoolLit,
    Call,
    CellRef,
    ErrorLit,
    FormulaError,
    FormulaSyntaxError,
    MAX_NESTING,
    NumberLit,
    Range,
    Ref,
    TextLit,
    Unary,
    UnbalancedParens,
    UnknownToken,
    copy_key,
    normalize_relative,
    parse_formula,
    print_formula,
    references_of,
    shift_relative,
)


def rel(row, col):
    return CellRef(row=row, col=col)


class TestParsing:
    def test_precedence_of_multiplication(self):
        assert parse_formula("=A1+B2*2") == Binary(
            "+", Ref(rel(1, 1)), Binary("*", Ref(rel(2, 2)), NumberLit(Decimal(2)))
        )

    def test_unary_minus_binds_tighter_than_power(self):
        # mainstream spreadsheets evaluate -2^2 as (-2)^2 = 4
        assert parse_formula("=-2^2") == Binary(
            "^", Unary("neg", NumberLit(Decimal(2))), NumberLit(Decimal(2))
        )

    def test_call_with_comparison_and_text(self):
        assert parse_formula('=IF(A1>0,"hi",B1)') == Call(
            "IF",
            (
                Binary(">", Ref(rel(1, 1)), NumberLit(Decimal(0))),
                TextLit("hi"),
                Ref(rel(1, 2)),
            ),
        )

    def test_left_associativity(self):
        assert parse_formula("=1-2-3") == Binary(
            "-", Binary("-", NumberLit(Decimal(1)), NumberLit(Decimal(2))), NumberLit(Decimal(3))
        )
        assert parse_formula("=2^3^2") == Binary(
            "^", Binary("^", NumberLit(Decimal(2)), NumberLit(Decimal(3))), NumberLit(Decimal(2))
        )

    def test_comparison_binds_loosest(self):
        tree = parse_formula('=A1&"x"=B1+1')
        assert isinstance(tree, Binary) and tree.op == "="

    def test_percent_binds_tighter_than_neg(self):
        assert parse_formula("=-50%") == Unary("neg", Unary("percent", NumberLit(Decimal(50))))

    def test_absolute_and_mixed_refs(self):
        assert parse_formula("=$A$1") == Ref(CellRef(1, 1, row_abs=True, col_abs=True))
        assert parse_formula("=A$1") == Ref(CellRef(1, 1, row_abs=True, col_abs=False))
        assert parse_formula("=$A1") == Ref(CellRef(1, 1, row_abs=False, col_abs=True))

    def test_sheet_qualified_refs(self):
        assert parse_formula("=Sheet2!B3") == Ref(CellRef(3, 2, sheet="Sheet2"))
        assert parse_formula("='P&L 2024'!A1") == Ref(CellRef(1, 1, sheet="P&L 2024"))

    def test_ranges(self):
        assert parse_formula("=SUM(A1:B2)") == Call("SUM", (Range(rel(1, 1), rel(2, 2)),))
        qualified = parse_formula("=SUM(Data!A1:B2)")
        assert qualified == Call(
            "SUM",
            (Range(CellRef(1, 1, sheet="Data"), CellRef(2, 2, sheet="Data")),),
        )

    def test_range_endpoints_must_share_sheet(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=SUM(Data!A1:Other!B2)")

    def test_booleans_and_errors(self):
        assert parse_formula("=TRUE") == BoolLit(True)
        assert parse_formula("=false") == BoolLit(False)
        assert parse_formula("=#REF!+1") == Binary("+", ErrorLit("#REF!"), NumberLit(Decimal(1)))

    def test_function_name_that_looks_like_a_ref(self):
        assert parse_formula("=LOG10(100)") == Call("LOG10", (NumberLit(Decimal(100)),))

    def test_function_names_uppercased(self):
        assert parse_formula("=sum(A1,1)") == Call("SUM", (Ref(rel(1, 1)), NumberLit(Decimal(1))))

    def test_whitespace_insensitive_outside_strings(self):
        assert parse_formula('= A1 +  " a b " ') == parse_formula('=A1+" a b "')

    def test_string_escapes(self):
        assert parse_formula('="say ""hi"""') == TextLit('say "hi"')

    def test_scientific_numbers(self):
        assert parse_formula("=1.5e3") == NumberLit(Decimal("1.5E3"))

    def test_errors(self):
        with pytest.raises(UnbalancedParens):
            parse_formula("=(1+2")
        with pytest.raises(UnbalancedParens):
            parse_formula("=SUM(1,2")
        with pytest.raises(UnbalancedParens):
            parse_formula("=1)")
        with pytest.raises(UnknownToken):
            parse_formula("=1 @ 2")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("=1+")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("no equals")
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("=1+*2")
        assert info.value.position >= 0


class TestNestingCap:
    def test_nesting_at_the_cap_parses(self):
        assert parse_formula("=" + "(" * MAX_NESTING + "1" + ")" * MAX_NESTING) == NumberLit(Decimal(1))
        for source in ("=" + "SUM(" * MAX_NESTING + "1" + ")" * MAX_NESTING, "=" + "-" * MAX_NESTING + "1"):
            assert print_formula(parse_formula(source)) == source

    @pytest.mark.parametrize(
        "source, position",
        [
            ("=" + "(" * 110 + "1" + ")" * 110, 64),
            ("=" + "-" * 1200 + "1", 64),
            ("=" + "SUM(" * 65 + "1" + ")" * 65, 4 * 64 + 3),
            ("=" + "-(" * 33 + "1" + ")" * 33, 64),
        ],
        ids=["parentheses", "minus-signs", "calls", "mixed"],
    )
    def test_past_the_cap_is_a_syntax_error(self, source, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(source)
        assert info.value.position == position
        assert str(info.value) == (
            f"at offset {position}: expected at most 64 nested parentheses, calls or minus signs"
        )


class TestTokenEdges:
    @pytest.mark.parametrize(
        "source, outcome",
        [
            ('="abc', (FormulaSyntaxError, "at offset 0: expected closing quote")),
            ("=#X", (UnknownToken, "unknown token '#X' at offset 0")),
            ("=.5", (UnknownToken, "unknown token '.5' at offset 0")),
            ("=1.", (UnknownToken, "unknown token '.' at offset 1")),
            ("=12E", (FormulaSyntaxError, "at offset 2: expected end of formula")),
            ("=XFE1", (FormulaSyntaxError, "at offset 0: expected a reference, literal or function call")),
            ("=$XFE1", (UnknownToken, "unknown token '$XFE1' at offset 0")),
            ("=Sheet!XFE1", (UnknownToken, "unknown token '!XFE1' at offset 5")),
            ("='q'!XFE1", (UnknownToken, "unknown token \"'q'!XFE1\" at offset 0")),
            ("=LOG10 (1)", "=LOG10(1)"),
            ("=A1 (", (FormulaSyntaxError, "at offset 4: expected an expression")),
            ("=1 + 2", "=1+2"),
            ("=\u0663", (UnknownToken, "unknown token '\u0663' at offset 0")),
            ("=A1B", (FormulaSyntaxError, "at offset 2: expected end of formula")),
            ("=ABCD1", (FormulaSyntaxError, "at offset 0: expected a reference, literal or function call")),
            ("=SUM1(2)", "=SUM1(2)"),
            ("=a.b1", (FormulaSyntaxError, "at offset 0: expected a reference, literal or function call")),
            ("=1 @ 2", (UnknownToken, "unknown token '@ 2' at offset 2")),
            ("=#N/A#REF!", (FormulaSyntaxError, "at offset 4: expected end of formula")),
        ],
    )
    def test_printed_form_or_error(self, source, outcome):
        """These messages are PARSE_FAILURE finding text, so they are pinned."""
        if isinstance(outcome, str):
            assert print_formula(parse_formula(source)) == outcome
            return
        error, message = outcome
        with pytest.raises(FormulaError) as info:
            parse_formula(source)
        assert type(info.value) is error
        assert str(info.value) == message


class TestLongChains:
    @pytest.mark.parametrize("op", ["+", "^", "&", "%"])
    def test_five_thousand_term_chain(self, op):
        if op == "%":
            source, relative, shifted = "=A2" + "%" * 5000, "=R[1]C" + "%" * 5000, "=B3" + "%" * 5000
            count = 1
        else:
            source, relative, shifted = ("=" + op.join([term] * 5000) for term in ("A2", "R[1]C", "B3"))
            count = 5000
        tree = parse_formula(source)
        assert print_formula(tree) == source
        assert normalize_relative(tree, addr("S!A1")) == relative
        assert references_of(tree) == [rel(2, 1)] * count
        assert print_formula(shift_relative(tree, 1, 1)) == shifted


class TestPrinting:
    def test_canonicalizes_case_and_spacing(self):
        assert print_formula(parse_formula("=a1 + b2")) == "=A1+B2"

    def test_print_is_idempotent_fixed_point(self):
        for source in ("=a1+b2", "=SUM( A1 , 2 )", "=-2^2", '=IF(A1>0,"hi",B1)'):
            once = print_formula(parse_formula(source))
            assert print_formula(parse_formula(once)) == once

    def test_parenthesization_forced_by_precedence(self):
        tree = Binary("*", Binary("+", NumberLit(Decimal(1)), NumberLit(Decimal(2))), NumberLit(Decimal(3)))
        assert print_formula(tree) == "=(1+2)*3"

    def test_right_operand_parens_for_left_associative_ops(self):
        tree = Binary("-", NumberLit(Decimal(1)), Binary("-", NumberLit(Decimal(2)), NumberLit(Decimal(3))))
        assert print_formula(tree) == "=1-(2-3)"

    def test_negation_of_power_keeps_parens(self):
        source = "=-(2^2)"
        assert print_formula(parse_formula(source)) == "=-(2^2)"
        assert print_formula(parse_formula("=-2^2")) == "=-2^2"

    def test_quoted_sheet_names(self):
        assert print_formula(parse_formula("='My Sheet'!A1")) == "='My Sheet'!A1"
        assert print_formula(parse_formula("=Data!A1:B2")) == "=Data!A1:B2"


class TestNormalization:
    def test_relative_offsets_from_host(self):
        assert normalize_relative(parse_formula("=A1"), addr("S!C3")) == "=R[-2]C[-2]"

    def test_absolute_axes_ignore_host(self):
        for host in ("S!A1", "S!Z30"):
            assert normalize_relative(parse_formula("=$A$1"), addr(host)) == "=R1C1"

    def test_translated_copies_normalize_identically(self):
        left = normalize_relative(parse_formula("=B2+1"), addr("S!B3"))
        right = normalize_relative(parse_formula("=C2+1"), addr("S!C3"))
        assert left == right == "=R[-1]C+1"

    def test_zero_offset_renders_bare_axis(self):
        assert normalize_relative(parse_formula("=B9"), addr("S!B9")) == "=RC"

    def test_mixed_abs_rel(self):
        assert normalize_relative(parse_formula("=$B9"), addr("S!D9")) == "=RC2"
        assert normalize_relative(parse_formula("=B$9"), addr("S!D4")) == "=R9C[-2]"

    def test_sheet_qualified_axes_follow_the_host(self):
        out = normalize_relative(parse_formula("=Data!B9"), addr("S!C3"))
        assert out == "=Data!R[6]C[-1]"
        out = normalize_relative(parse_formula("=SUM(Data!A1:B2)"), addr("S!C3"))
        assert out == "=SUM(Data!R[-2]C[-2]:R[-1]C[-1])"
        out = normalize_relative(parse_formula("=SUM(Data!$A1:B$2)"), addr("S!C3"))
        assert out == "=SUM(Data!R[-2]C1:R2C[-1])"


class TestReferences:
    def test_duplicates_preserved(self):
        assert references_of(parse_formula("=A1+A1")) == [rel(1, 1), rel(1, 1)]

    def test_range_yields_range_node(self):
        refs = references_of(parse_formula("=SUM(A1:B2)"))
        assert refs == [Range(rel(1, 1), rel(2, 2))]

    def test_no_refs(self):
        assert references_of(parse_formula("=1+2")) == []

    def test_source_order(self):
        refs = references_of(parse_formula("=IF(C1,A1+B1,SUM(D1:D9))"))
        assert [r.col for r in refs[:3]] == [3, 1, 2]


# random canonical-form ASTs: printing then parsing must reproduce the tree

_numbers = st.builds(NumberLit, st.decimals(min_value=0, max_value=10**6, places=3, allow_nan=False, allow_infinity=False))
_texts = st.builds(TextLit, st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters='"'), max_size=8))
_bools = st.builds(BoolLit, st.booleans())
_errors = st.builds(ErrorLit, st.sampled_from(["#DIV/0!", "#VALUE!", "#NAME?"]))
_refs = st.builds(
    Ref,
    st.builds(
        CellRef,
        st.integers(1, 99),
        st.integers(1, 26),
        st.booleans(),
        st.booleans(),
        st.none() | st.sampled_from(["Data", "My Sheet"]),
    ),
)


def _ranges():
    def build(r1, c1, r2, c2, sheet, abs_flags):
        start = CellRef(min(r1, r2), min(c1, c2), abs_flags[0], abs_flags[1], sheet)
        end = CellRef(max(r1, r2), max(c1, c2), abs_flags[2], abs_flags[3], sheet)
        return Range(start, end)

    return st.builds(
        build,
        st.integers(1, 50),
        st.integers(1, 20),
        st.integers(1, 50),
        st.integers(1, 20),
        st.none() | st.just("Data"),
        st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    )


_atoms = st.one_of(_numbers, _texts, _bools, _errors, _refs, _ranges())


def _trees(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["neg", "percent"]), children),
        st.builds(
            Binary,
            st.sampled_from(["+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">="]),
            children,
            children,
        ),
        st.builds(
            Call,
            st.sampled_from(["SUM", "IF", "MAX", "LOG10", "X.Y"]),
            st.lists(children, max_size=3).map(tuple),
        ),
    )


_formulas = st.recursive(_atoms, _trees, max_leaves=12)


class TestProperties:
    @given(_formulas)
    @settings(max_examples=250, deadline=None)
    def test_print_parse_round_trip(self, tree):
        assert parse_formula(print_formula(tree)) == tree

    @given(_formulas)
    @settings(max_examples=150, deadline=None)
    def test_reparsing_canonical_output_is_stable(self, tree):
        text = print_formula(tree)
        again = print_formula(parse_formula(text))
        assert again == text

    @given(
        _formulas,
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.integers(10, 40),
        st.integers(10, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_invariance(self, tree, dr, dc, host_row, host_col):
        from gridaudit.grid import CellAddress

        shifted_ok = all(
            ref.row + dr >= 1 and ref.col + dc >= 1
            for ref in _relative_refs(tree)
        )
        if not shifted_ok:
            return
        host = CellAddress("S", host_row, host_col)
        moved = shift_relative(tree, dr, dc)
        moved_host = CellAddress("S", host_row + dr, host_col + dc)
        assert normalize_relative(moved, moved_host) == normalize_relative(tree, host)


def _relative_refs(tree):
    out = []
    for item in references_of(tree):
        refs = [item.start, item.end] if isinstance(item, Range) else [item]
        for ref in refs:
            if not (ref.row_abs and ref.col_abs):
                out.append(ref)
    return out


_HOSTS = [addr("S!A1"), addr("S!C7"), addr("S!AD999")]
_KEY_CFG = AuditConfig(if_depth_threshold=1)


# random text (one piece), and grammar templates with edits
_KEY_TEMPLATES = st.one_of(
    st.text(alphabet="=$!:'\"()+-*%,. #AaBcXZ019_", max_size=24).map(lambda text: [text]),
    COPY_TEMPLATES,
)


class TestCopyKey:
    """copy_key against parse_formula: equal keys must mean equal parses,
    R1C1 forms and tree findings, and the key scan fails exactly where
    tokenizing does."""

    @given(st.lists(_KEY_TEMPLATES, min_size=1, max_size=3))
    @settings(max_examples=500, deadline=None)
    def test_equal_keys_audit_alike(self, templates):
        outcome_of: dict[tuple, object] = {}
        for host in _HOSTS:
            for source in (render_copy(template, host) for template in templates):
                try:
                    key = copy_key(source, host)
                except FormulaError as exc:
                    with pytest.raises(FormulaError) as info:
                        parse_formula(source)
                    assert (type(info.value), str(info.value)) == (type(exc), str(exc))
                    continue
                try:
                    tree = parse_formula(source)
                except FormulaError as exc:
                    # only the parser can fail on a source the key scan read
                    assert not isinstance(exc, UnknownToken) and getattr(exc, "expected", "") != "closing quote"
                    outcome = None
                else:
                    outcome = (normalize_relative(tree, host), _tree_findings(tree, _KEY_CFG))
                assert outcome_of.setdefault(key, outcome) == outcome

    def test_source_without_equals_sign_fails_as_in_parsing(self):
        with pytest.raises(FormulaSyntaxError, match="expected '=' at start of formula"):
            copy_key("A1+1", addr("S!B1"))

    def test_translated_copies_share_a_key(self):
        key = copy_key("=SUM(B2:B4)*$A$1+Data!C3", addr("S!A1"))
        assert copy_key("=SUM(C9:C11)*$A$1+Data!D10", addr("S!B8")) == key
        assert copy_key("= sum( C9 : C11 ) * $A$1 + Data!D10", addr("S!B8")) != key

    @pytest.mark.parametrize(
        "first, second, step",
        [
            ("=Data!A$1", "=Data!A$2", (1, 0)),  # a $ row stays put on a named sheet too
            ("=A$1", "=A$2", (1, 0)),  # a $ row stays put
            ("=$A1", "=$B1", (0, 1)),  # a $ column stays put
            ("=Data!A1:B2", "=Data!A1:B3", (1, 0)),  # a named sheet pins no axis: the start must move
            ("=Data!A1", "=Other!A1", (0, 0)),
        ],
    )
    def test_fixed_references_keep_copies_apart(self, first, second, step):
        """second sits step (rows, columns) from first's host and differs
        from a true copy of first in one reference: a $ axis moved, a
        relative axis stayed, or the sheet changed."""
        host = addr("S!C1")
        moved = CellAddress("S", host.row + step[0], host.col + step[1])
        assert copy_key(first, host) != copy_key(second, moved)
        assert normalize_relative(parse_formula(first), host) != normalize_relative(parse_formula(second), moved)
