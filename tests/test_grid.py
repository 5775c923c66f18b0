"""Snapshot model, file format and content digest."""

import hashlib
from datetime import datetime, timezone
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, addr, cell, snap
from oracles import sha256_hex, unescape_by_char

from gridaudit.grid import (
    BadAddress,
    BadTimestamp,
    Boolean,
    CellAddress,
    CellLines,
    DuplicateCell,
    ErrorValue,
    Formula,
    MalformedHeader,
    Number,
    Region,
    Snapshot,
    SnapshotError,
    Text,
    _unescape,
    canonical_decimal,
    col_to_letters,
    in_number_range,
    letters_to_col,
    parse_location,
    parse_region,
    parse_snapshot_file,
    read_stored_lines,
    sha256,
    snapshot_digest,
    write_snapshot_file,
)

# computed once with an independent SHA-256 over b"SNAP1\twb1\n", then pinned
EMPTY_WB1_DIGEST = "374e6be4dfd7539b2222f4666ab86636bf215bf7cc002594f5b9c15229774496"


class TestAddresses:
    def test_column_letters(self):
        assert col_to_letters(1) == "A"
        assert col_to_letters(26) == "Z"
        assert col_to_letters(27) == "AA"
        assert col_to_letters(16384) == "XFD"

    def test_letters_round_trip_full_range(self):
        for col in range(1, 16385):
            assert letters_to_col(col_to_letters(col)) == col

    def test_sheet_equality_is_case_insensitive(self):
        assert addr("Sheet1!A1") == addr("SHEET1!A1")
        assert hash(addr("Sheet1!A1")) == hash(addr("sheet1!A1"))
        assert addr("Sheet1!A1") != addr("Sheet2!A1")

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            CellAddress("S", 0, 1)
        with pytest.raises(ValueError):
            CellAddress("", 1, 1)

    def test_region_contains(self):
        region = parse_region("Sheet1!B2:D4")
        assert region.contains(addr("sheet1!C3"))
        assert not region.contains(addr("Sheet1!A1"))
        assert not region.contains(addr("Other!C3"))

    def test_region_rendering(self):
        assert str(parse_region("S!B2:D4")) == "S!B2:D4"
        assert str(parse_region("S!B2")) == "S!B2"
        assert parse_location("S!B2:D4") == Region("S", 2, 2, 4, 4)
        assert parse_location("S!B2") == addr("S!B2")


class TestSnapshotFile:
    def test_parse_single_number_cell(self):
        text = "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\nSheet1\tA1\tV\tN\t5\n"
        parsed = parse_snapshot_file(text)
        assert parsed.cells == {addr("Sheet1!A1"): Number(Decimal(5))}
        assert parsed.actor == "alice"
        assert parsed.timestamp == T0

    def test_parse_empty_cell_map(self):
        parsed = parse_snapshot_file("SNAP1\twb1\t2024-03-01T09:00:00Z\talice\n")
        assert parsed.cells == {}

    def test_duplicate_cell_rejected(self):
        text = (
            "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\n"
            "Sheet1\tA1\tV\tN\t5\n"
            "SHEET1\tA1\tV\tN\t6\n"
        )
        with pytest.raises(DuplicateCell):
            parse_snapshot_file(text)

    def test_write_sorts_cells(self):
        s = snap({"Sheet1!B2": 1, "Sheet1!A1": 2})
        lines = write_snapshot_file(s).splitlines()
        assert lines[1].startswith("Sheet1\tA1") and lines[2].startswith("Sheet1\tB2")

    def test_write_empty_is_header_only(self):
        assert write_snapshot_file(snap({})) == "SNAP1\twb1\t2024-03-01T09:00:00Z\talice\n"

    def test_round_trip_mixed_content(self):
        s = snap(
            {
                "Sheet1!A1": 5,
                "Sheet1!B2": ("=A1*B1", 10),
                "Sheet1!C3": "tab\tand\nnewline\\slash",
                "Sheet1!D4": True,
                "Sheet1!E5": "#REF!",
                "Data!A1": "=SUM(A1:B2)",
            },
            att="signed off\tby alice",
        )
        assert parse_snapshot_file(write_snapshot_file(s)) == s

    def test_attestation_line(self):
        s = snap({"S!A1": 1}, att="reviewed")
        text = write_snapshot_file(s)
        assert text.splitlines()[1] == "ATTEST\treviewed"
        assert parse_snapshot_file(text).attestation == "reviewed"

    def test_sheet_named_attest_first_is_a_cell_not_an_attestation(self):
        s = snap({"ATTEST!A1": 5, "S!A1": 6})
        parsed = parse_snapshot_file(write_snapshot_file(s))
        assert parsed == s
        assert parsed.attestation is None

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            parse_snapshot_file("")
        with pytest.raises(MalformedHeader):
            parse_snapshot_file("SNAP2\twb\t2024-03-01T09:00:00Z\ta\n")
        with pytest.raises(MalformedHeader):
            parse_snapshot_file("SNAP1\twb\t2024-03-01T09:00:00Z\n")

    def test_bad_timestamp(self):
        with pytest.raises(BadTimestamp):
            parse_snapshot_file("SNAP1\twb\tyesterday\ta\n")
        with pytest.raises(BadTimestamp):  # naive timestamps are rejected
            parse_snapshot_file("SNAP1\twb\t2024-03-01T09:00:00\ta\n")

    def test_bad_cell_lines(self):
        header = "SNAP1\twb\t2024-03-01T09:00:00Z\ta\n"
        for line in (
            "Sheet1\tA0\tV\tN\t5",
            "Sheet1\tZZZZ1\tV\tN\t5",
            "Sheet1\tA1\tV\tN\tfive",
            "Sheet1\tA1\tV\tQ\t5",
            "Sheet1\tA1\tV\tN",
            "Sheet1\tA1\tF\tA1+1",
            "Sheet1\tA1\tV\tB\tmaybe",
            "Sheet1\tA1\tV\tE\t#NOPE!",
        ):
            with pytest.raises(BadAddress):
                parse_snapshot_file(header + line + "\n")

    def test_formula_must_start_with_equals(self):
        with pytest.raises(ValueError):
            Formula("A1+1")

    def test_timestamp_normalized_to_utc(self):
        parsed = parse_snapshot_file("SNAP1\twb\t2024-03-01T11:00:00+02:00\ta\n")
        assert parsed.timestamp == datetime(2024, 3, 1, 9, tzinfo=timezone.utc)
        assert "2024-03-01T09:00:00Z" in write_snapshot_file(parsed)


class TestStoredLines:
    """read_stored_lines keeps a file's cell lines as stored; CellLines.cells
    parses them, each once, and holds them to the order the writer gives."""

    TEXT = write_snapshot_file(snap({"S!A1": 1, "S!A2": 2, "S!B2": "x"}))  # lines 2-4: A1, A2, B2

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("blank", "line 3: cell line needs a sheet and an address: ''"),
            ("repeated", "line 4: S!A2 does not sort after the cell line before it"),
            ("swapped", "line 4: S!A2 does not sort after the cell line before it"),
        ],
    )
    def test_a_bad_line_raises(self, damage, message):
        head, *lines, end = self.TEXT.split("\n")
        if damage == "blank":
            lines[1] = ""
        elif damage == "repeated":
            lines.insert(1, lines[1])
        else:
            lines[1], lines[2] = lines[2], lines[1]
        *_, stored = read_stored_lines("\n".join([head, *lines, end]))
        with pytest.raises(SnapshotError, match=f"^{message}$"):
            stored.cells()

    def test_set_and_remove_edit_the_lines_once_cells_has_run(self):
        *_, stored = read_stored_lines(self.TEXT)
        cells = stored.cells()
        stored.set(addr("S!A3"), cell(3))
        stored.remove(addr("S!A1"))
        cells[addr("S!A3")] = cell(3)
        del cells[addr("S!A1")]
        assert list(stored) == list(CellLines(cells))


class TestDigest:
    def test_actor_and_timestamp_excluded(self):
        cells = {"S!A1": 7, "S!B2": "=A1+1"}
        a = snap(cells, actor="alice")
        b = snap(cells, actor="bob", at=datetime(2030, 1, 1, tzinfo=timezone.utc))
        assert snapshot_digest(a) == snapshot_digest(b)

    def test_single_value_change_alters_digest(self):
        a = snap({"S!A1": 5})
        b = snap({"S!A1": 6})
        expect_a = sha256_hex(b"SNAP1\twb1\nS\tA1\tV\tN\t5\n")
        expect_b = sha256_hex(b"SNAP1\twb1\nS\tA1\tV\tN\t6\n")
        assert snapshot_digest(a) == expect_a
        assert snapshot_digest(b) == expect_b
        assert expect_a != expect_b

    def test_empty_workbook_digest_pinned(self):
        s = Snapshot("wb1", T0, "anyone", {})
        assert snapshot_digest(s) == EMPTY_WB1_DIGEST
        assert sha256_hex(b"SNAP1\twb1\n") == EMPTY_WB1_DIGEST

    def test_insertion_order_invariance(self):
        first = snap({"S!A1": 1, "S!B2": 2})
        second_cells = {"S!B2": 2, "S!A1": 1}
        second = snap(second_cells)
        assert snapshot_digest(first) == snapshot_digest(second)

    def test_equal_decimals_digest_equal(self):
        a = snap({"S!A1": Decimal("5")})
        b = snap({"S!A1": Decimal("5.00")})
        assert a.cells == b.cells
        assert snapshot_digest(a) == snapshot_digest(b)


class TestCanonicalDecimal:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("5", "5"),
            ("5.00", "5"),
            ("0.50", "0.5"),
            ("-0", "0"),
            ("1E+3", "1000"),
            ("1e-3", "0.001"),
            ("-12.340", "-12.34"),
        ],
    )
    def test_rendering(self, raw, expected):
        assert canonical_decimal(Decimal(raw)) == expected

    def test_digits_past_the_context_precision_are_kept(self):
        raw = "1.2345678901234567890123456789012"
        assert canonical_decimal(Decimal(raw)) == raw
        assert canonical_decimal(Decimal(raw + "000E+2")) == "123.45678901234567890123456789012"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**60), 10**60), st.integers(-80, 80), st.integers(0, 5))
    def test_exact_for_any_precision(self, digits, exponent, zeros):
        value = Decimal(f"{digits}E{exponent}")
        text = canonical_decimal(value)
        assert Decimal(text) == value
        assert "E" not in text and not (("." in text) and text.endswith(("0", ".")))
        # an equal value written with more trailing zeros renders alike
        assert canonical_decimal(Decimal(f"{digits * 10**zeros}E{exponent - zeros}")) == text

    @pytest.mark.parametrize(
        "raw, ok",
        [
            ("1E+999999", True),
            ("9.99E+999999", True),
            ("1E+1000000", False),
            ("1E-999999", True),
            ("0.1E-999999", False),
            ("1E-5000000", False),
            ("0E+5000000", True),
            ("-2E+1000000", False),
            ("NaN", False),
            ("-Infinity", False),
        ],
    )
    def test_number_range(self, raw, ok):
        assert in_number_range(Decimal(raw)) is ok

    @pytest.mark.parametrize("raw", ["1e5000000", "1e-5000000", "2E+1000000"])
    def test_snapshot_number_out_of_range_is_a_bad_address(self, raw):
        with pytest.raises(BadAddress, match=r"line 2: number .* must be finite, with an exponent within ±999999"):
            parse_snapshot_file(f"SNAP1\twb1\t2024-03-01T09:00:00Z\ta\nS\tA1\tV\tN\t{raw}\n")


# hypothesis strategies for whole snapshots

_sheet = st.sampled_from(["Sheet1", "Data", "My Sheet", "ops"])
_address = st.builds(
    CellAddress, _sheet, st.integers(1, 50), st.integers(1, 50)
)
_number = st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**9, max_value=10**9)
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
_value = st.one_of(
    st.builds(Number, _number),
    st.builds(Text, _text),
    st.builds(Boolean, st.booleans()),
    st.builds(ErrorValue, st.sampled_from(["#DIV/0!", "#N/A", "#REF!"])),
)
_content = st.one_of(
    _value,
    st.builds(Formula, st.sampled_from(["=A1", "=SUM(B2:C9)", "=X9*2"]), st.none() | _value),
)
# escapes dense enough that lone, doubled, trailing and unknown ones all occur
_escaped_text = st.text() | st.text(st.sampled_from("\\tnrx\n\t\u00e9"), max_size=12)
_snapshot = st.builds(
    Snapshot,
    st.sampled_from(["wb1", "ledger-2024"]),
    st.just(T0),
    st.text(max_size=12),
    st.dictionaries(_address, _content, max_size=25),
    st.none() | st.text(max_size=20),
)


class TestProperties:
    @given(_snapshot)
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, s):
        text = write_snapshot_file(s)
        assert parse_snapshot_file(text) == s
        # the stored read, its cells built from the lines as stored
        workbook_id, timestamp, actor, attestation, lines = read_stored_lines(text)
        assert Snapshot(workbook_id, timestamp, actor, lines.cells(), attestation) == s

    @given(_snapshot)
    @settings(max_examples=80, deadline=None)
    def test_digest_matches_independent_sha256(self, s):
        content = write_snapshot_file(
            Snapshot(s.workbook_id, s.timestamp, s.actor, dict(s.cells))
        )
        lines = content.split("\n")[:-1]  # LF-delimited, drop trailing empty
        stripped = "SNAP1\t" + lines[0].split("\t")[1] + "\n"
        stripped += "".join(line + "\n" for line in lines[1:])
        assert snapshot_digest(s) == sha256_hex(stripped.encode("utf-8"))

    @given(_escaped_text)
    @settings(max_examples=300, deadline=None)
    def test_unescape_matches_char_by_char_oracle(self, text):
        try:
            expected = unescape_by_char(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                _unescape(text)
            assert str(caught.value) == str(exc)
        else:
            assert _unescape(text) == expected

    # record_hash feeds three pieces: the "seq\nprev\nkind\n" head, the
    # payload and the "\nrecorded_at" tail
    @given(st.binary(max_size=200), st.binary(max_size=200), st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_builtin_sha256_matches_hashlib(self, head, payload, tail):
        whole = head + payload + tail
        expected = hashlib.sha256(whole).hexdigest()
        assert sha256(whole).hexdigest() == expected
        hasher = sha256()
        for piece in (head, payload, tail):
            hasher.update(piece)
        assert hasher.hexdigest() == expected
        assert sha256_hex(whole) == expected
