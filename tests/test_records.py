"""Every record class against a ``dataclasses`` twin built from the same
fields and defaults: equality, hash, repr, immutability, defaults and
validation must agree with what ``@dataclass(frozen=True)`` would give."""

from __future__ import annotations

import dataclasses
import inspect
import itertools
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction

import pytest

from gridaudit import assess, audit, controls, diffing, findings, formula, grid, ledger, trend
from gridaudit.controls import Mode
from gridaudit.diffing import ChangeKind
from gridaudit.formula import BoolLit, CellRef, ErrorLit, NumberLit, Ref, TextLit, Unary, parse_formula
from gridaudit.grid import CellAddress, FrozenRecordError, Literal, Number, Region, Text

MODULES = (grid, formula, findings, diffing, audit, controls, trend, ledger, assess)

T0 = datetime(2024, 3, 1, 9, 0, tzinfo=timezone.utc)
T1 = T0 + timedelta(days=1)
A1 = CellAddress("S", 1, 1)
BOX = Region("S", 1, 1, 2, 2)
FAR = Region("S", 5, 5, 6, 6)
ONE = Number(Decimal(1))
ADDED = diffing.ChangeEvent(A1, ChangeKind.ADDED, None, Literal(ONE))
WINDOW = controls.CadenceWindow(frozenset({0, 1}), 9, 17)
STEP = controls.WorkflowStep("prepare", BOX)
USAGE = assess.UsageMetrics(2, 31.5, Fraction(1, 10), Fraction(1, 2), 5)
PROFILE = assess.RiskProfile(USAGE, "operational", 0.25, ("few actors",))

# record class -> constructor argument tuples; the first tuple also
# supplies the required arguments for the defaults check
SAMPLES = {
    grid.CellAddress: [("S", 1, 1), ("S", 2, 1)],
    grid.Region: [("S", 1, 1, 2, 2), ("S", 1, 1, 3, 3)],
    grid.Number: [(Decimal("1.0"),), (Decimal("1"),), (Decimal(2),)],
    grid.Text: [("a",), ("b",)],
    grid.Boolean: [(True,), (False,)],
    grid.ErrorValue: [("#REF!",), ("#N/A",)],
    grid.Literal: [(ONE,), (Text("a"),)],
    grid.Formula: [("=A1",), ("=A1", ONE)],
    grid.Snapshot: [("wb", T0, "ann"), ("wb", T0, "ann", {A1: Literal(ONE)}, "reviewed")],
    formula.CellRef: [(1, 1), (1, 1, True, False, "S")],
    formula.NumberLit: [(Decimal("1.0"),), (Decimal("1"),), (Decimal(2),)],
    formula.TextLit: [("x",), ("y",)],
    formula.BoolLit: [(True,), (False,)],
    formula.ErrorLit: [("#REF!",), ("#DIV/0!",)],
    formula.Ref: [(CellRef(1, 1),), (CellRef(2, 1),)],
    formula.Range: [(CellRef(1, 1), CellRef(2, 2)), (CellRef(1, 1), CellRef(3, 3))],
    formula.Unary: [("neg", NumberLit(Decimal(1))), ("percent", NumberLit(Decimal(1)))],
    formula.Binary: [
        ("+", Ref(CellRef(1, 1)), NumberLit(Decimal("1.0"))),
        ("+", Ref(CellRef(1, 1)), NumberLit(Decimal("1"))),
        ("+", Ref(CellRef(1, 1)), BoolLit(True)),  # True == Decimal(1), but the classes differ
        ("+", Ref(CellRef(1, 1)), Unary("neg", NumberLit(Decimal(1)))),
    ],
    formula.Call: [
        ("SUM", ()),
        ("SUM", (NumberLit(Decimal(1)),)),
        ("IF", (BoolLit(True), TextLit("x"), ErrorLit("#N/A"))),
    ],
    formula._Token: [("op", "+", 0), ("ref", "A1", 1, CellRef(1, 1))],
    findings.Finding: [
        ("ERROR_VALUE", "critical", A1, "error value", "#REF!"),
        ("COPY_INCONSISTENT", "warning", BOX, "odd one out", "=R[-1]C", "=RC[-1]"),
    ],
    diffing.ChangeEvent: [
        (A1, ChangeKind.ADDED, None, Literal(ONE)),
        (A1, ChangeKind.REMOVED, Literal(ONE), None),
    ],
    diffing.ChangeSet: [("wb", "a" * 64, "b" * 64, T0, T1, "ann", ()), ("wb", "a" * 64, "b" * 64, T0, T1, "ann", (ADDED,))],
    diffing.VolatilityMetrics: [(Fraction(1, 2), Fraction(0), Fraction(1, 4)), (Fraction(0), Fraction(1), Fraction(0))],
    audit.AuditConfig: [(), (4, 5, Fraction(3, 4), frozenset({Decimal(2)}))],
    controls.RegionRule: [(BOX, Mode.LOCKED), (BOX, Mode.FREE, True)],
    controls.CadenceWindow: [(frozenset({0, 1}), 9, 17), (frozenset({5}), 0, 24)],
    controls.CadenceRule: [(BOX, (WINDOW,)), (BOX, (WINDOW, controls.CadenceWindow(frozenset({6}), 0, 1)))],
    controls.BoundRule: [(BOX,), (BOX, Decimal(0), Decimal(10))],
    controls.TrendRule: [(A1,), (A1, 10, 2.5, 6)],
    controls.WorkflowStep: [("prepare", BOX), ("review", FAR)],
    controls.Workflow: [((STEP,),), ((STEP, controls.WorkflowStep("review", FAR)),)],
    controls.ControlPolicy: [
        ("wb",),
        ("wb", (controls.RegionRule(BOX, Mode.LOCKED),), (), (controls.BoundRule(FAR),), (), controls.Workflow((STEP,))),
    ],
    controls.TrendVerdict: [(A1, Decimal(5), 1.0, 0.5, 8.0, True), (A1, Decimal(5), 1.0, 0.5, 1.0, False)],
    ledger.LedgerRecord: [(0, "0" * 64, "INGEST", T0, b"x", "a" * 64), (1, "a" * 64, "FINDINGS", T1, b"", "b" * 64)],
    ledger.Entry: [
        (ledger.LedgerRecord(0, "0" * 64, "INGEST", T0, b"x", "a" * 64),),
        (
            ledger.LedgerRecord(0, "0" * 64, "INGEST", T0, b"x", "a" * 64),
            ledger.LedgerRecord(1, "a" * 64, "CHANGESET", T0, b"y", "b" * 64),
            ledger.LedgerRecord(2, "b" * 64, "FINDINGS", T0, b"", "c" * 64),
            ledger.LedgerRecord(3, "c" * 64, "ATTEST", T0, b"ok", "d" * 64),
        ),
    ],
    ledger.ChainVerification: [(True, None, 3), (False, 2, 3, "record hash does not match contents")],
    ledger.CellSeries: [(A1, ()), (A1, ((T0, ONE),))],
    ledger.AttributedChange: [(ADDED, "ann", T0), (ADDED, "bob", T0)],
    assess.UsageMetrics: [(2, 31.5, Fraction(1, 10), Fraction(1, 2), 5), (1, 0.0, Fraction(0), Fraction(0), 1)],
    assess.ClassifierConfig: [(), (3, 10.0, Fraction(1, 5), Fraction(1, 3))],
    assess.RiskProfile: [(USAGE, "operational", 0.25, ("few actors",)), (USAGE, "modeling", 0.75, ())],
    assess.ComplianceReport: [
        ("wb", T0, T1, T1, 3, True, {}, [], PROFILE, assess.ClassifierConfig(), None),
        ("wb", T0, T1, T1, 4, False, {404: []}, [], PROFILE, assess.ClassifierConfig(), controls.ControlPolicy("wb")),
    ],
}


def record_classes() -> set[type]:
    """Classes defined in gridaudit that share the records' frozen __setattr__."""
    return {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and obj.__setattr__ is Number.__setattr__
    }


def twin(cls: type) -> type:
    """The frozen dataclass with cls's fields, defaults and __post_init__."""
    fields = []
    for param in inspect.signature(cls).parameters.values():
        if param.default is param.empty:
            spec = dataclasses.field()
        else:
            spec = dataclasses.field(default=param.default)
        fields.append((param.name, cls.__annotations__[param.name], spec))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True)


def hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_every_record_class_has_samples():
    assert record_classes() == set(SAMPLES)
    assert len(SAMPLES) == 43


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    double = twin(cls)
    ours = [cls(*args) for args in SAMPLES[cls]]
    theirs = [double(*args) for args in SAMPLES[cls]]
    for obj, other in zip(ours, theirs):
        assert repr(obj) == repr(other)
        assert obj.__match_args__ == other.__match_args__
    if cls is CellAddress:
        return  # its own __eq__ and __hash__ ignore the sheet's case; see below
    for obj, other in zip(ours, theirs):
        assert hash_or_error(obj) == hash_or_error(other)
    for (a, b), (x, y) in zip(itertools.product(ours, repeat=2), itertools.product(theirs, repeat=2)):
        assert (a == b) == (x == y)
        assert (a != b) == (x != y)
    assert (ours[0] == cls(*SAMPLES[cls][0])) is True
    assert ours[0].__eq__(object()) is NotImplemented


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_fields_cannot_be_assigned_or_deleted(cls):
    obj = cls(*SAMPLES[cls][0])
    for name in (*cls.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(FrozenRecordError):
            delattr(obj, name)
    assert repr(obj) == repr(cls(*SAMPLES[cls][0]))


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_defaults_apply(cls):
    required = [p for p in inspect.signature(cls).parameters.values() if p.default is p.empty]
    args = SAMPLES[cls][0][: len(required)]
    assert repr(cls(*args)) == repr(twin(cls)(*args))


def test_snapshot_cells_are_a_fresh_dict_per_instance():
    first, second = grid.Snapshot("wb", T0, "ann"), grid.Snapshot("wb", T0, "ann")
    assert first.cells == {} and first.cells is not second.cells
    first.cells[A1] = Literal(ONE)
    assert second.cells == {}


@pytest.mark.parametrize(
    "build",
    [
        lambda: Number(Decimal("NaN")),
        lambda: grid.Formula("x"),
        lambda: grid.Snapshot("wb", datetime(2024, 3, 1), "ann"),
        lambda: grid.ErrorValue("#OOPS!"),
        lambda: CellAddress("", 1, 1),
        lambda: Region("S", 2, 1, 1, 1),
        lambda: audit.AuditConfig(min_run_length=2),
        lambda: controls.TrendRule(A1, window=4),
        lambda: controls.Workflow((STEP, controls.WorkflowStep("prepare", FAR))),
        lambda: findings.Finding("NO_SUCH_RULE", "warning", A1, "m", "o"),
        lambda: diffing.ChangeEvent(A1, ChangeKind.ADDED, Literal(ONE), Literal(ONE)),
    ],
)
def test_post_init_rejects_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_snapshot_timestamp_is_normalized_to_utc():
    local = datetime(2024, 3, 1, 10, 0, tzinfo=timezone(timedelta(hours=1)))
    assert grid.Snapshot("wb", local, "ann").timestamp.tzinfo is timezone.utc


def test_cell_address_ignores_sheet_case():
    lower, upper = CellAddress("s", 1, 1), CellAddress("S", 1, 1)
    assert lower == upper and hash(lower) == hash(upper)
    assert repr(lower) == "CellAddress(sheet='s', row=1, col=1)"
    assert CellAddress("s", 1, 2) != upper


def test_equal_numbers_compare_and_hash_equal_in_trees():
    assert NumberLit(Decimal("1.0")) == NumberLit(Decimal("1"))
    assert hash(NumberLit(Decimal("1.0"))) == hash(NumberLit(Decimal("1")))
    assert parse_formula("=A1+1.0") == parse_formula("=A1+1")


def chain(terms: list[str]):
    return parse_formula("=" + "+".join(terms))


def test_long_chains_compare_hash_and_print_without_recursion():
    a, b = chain(["A2"] * 5000), chain(["A2"] * 5000)
    c = chain(["A2"] * 4999 + ["A3"])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c
    text = repr(a)
    assert isinstance(text, str) and text.startswith("Binary(op='+', left=Binary(")


def outcome(cls, args, kwargs):
    """repr of cls(*args, **kwargs), or the text of the TypeError it raises."""
    try:
        return repr(cls(*args, **kwargs))
    except TypeError as exc:
        return f"TypeError: {exc}"


def bad_calls(cls) -> list[tuple[tuple, dict]]:
    """(args, kwargs) for calls that give every field, or none, one or two
    too few, one too many, one twice or one that is not a field."""
    names = [p.name for p in inspect.signature(cls).parameters.values()]
    args = max(SAMPLES[cls], key=len)
    full = dict(zip(names, args))
    calls = [
        ((), full),
        ((), {}),
        (args[:1], dict(list(full.items())[1:])),
        (args[:-1], {}),
        ((), dict(list(full.items())[:-1])),
        ((*args, *[None] * (len(names) - len(args) + 1)), {}),
        (args, {names[0]: args[0]}),
        (args, {"nope": 1}),
        ((*args, None, None), {"nope": 1}),  # the keyword's error comes first
        ((*args, None), {names[-1]: None}),
    ]
    if len(args) > 1:
        calls.append((args[:-2], {}))
    return calls


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_record_calls_fail_as_its_dataclass_twin_does(cls):
    double = twin(cls)
    for args, kwargs in bad_calls(cls):
        assert outcome(cls, args, kwargs) == outcome(double, args, kwargs), (args, kwargs)


def fresh(cls: type) -> type:
    """A new record class with cls's fields, defaults and __post_init__
    (but not its own __eq__, __hash__ or base) that has made no instance."""
    namespace = {"__annotations__": dict(cls.__annotations__)}
    for param in inspect.signature(cls).parameters.values():
        if param.default is not param.empty:
            namespace[param.name] = param.default
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return grid.record(type(cls.__name__, (), namespace))


@pytest.mark.parametrize("compiled", [False, True], ids=["closures", "compiled"])
@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_closures_and_compiled_methods_both_match_the_dataclass_twin(cls, compiled):
    ours, double = fresh(cls), twin(cls)
    for _ in range(grid._COMPILE_AFTER if compiled else 0):
        ours(*SAMPLES[cls][0])
    assert (ours.__init__.__code__.co_filename == "<string>") is compiled
    objs, others = [ours(*args) for args in SAMPLES[cls]], [double(*args) for args in SAMPLES[cls]]
    for obj, other in zip(objs, others):
        assert repr(obj) == repr(other)
        assert hash_or_error(obj) == hash_or_error(other)
    for (a, b), (x, y) in zip(itertools.product(objs, repeat=2), itertools.product(others, repeat=2)):
        assert ((a == b), (a != b)) == ((x == y), (x != y))
    assert objs[0].__eq__(object()) is NotImplemented
    for args, kwargs in bad_calls(cls):
        assert outcome(ours, args, kwargs) == outcome(double, args, kwargs), (args, kwargs)
