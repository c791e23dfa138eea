"""Laws of the package's result records: every ``_Record`` subclass behaves as
the ``@dataclass(frozen=True)`` with the same fields would.

Each law runs over every record class reachable from ``qlinalg.__all__``, and
compares against a twin that ``dataclasses.make_dataclass`` builds from the
class's own annotations.
"""

import copy
import dataclasses
import gc
import pickle
from fractions import Fraction

import pytest

import qlinalg
from qlinalg import (
    AddMultiple,
    IndexOutOfRange,
    LinearMap,
    Matrix,
    NotLinear,
    NotSubspace,
    OrthogonalityReport,
    Scale,
    Subspace,
    Swap,
    ZeroScale,
)
from qlinalg.errors import _Record

Q = Fraction

RECORDS = sorted(
    (
        value
        for name in qlinalg.__all__
        if isinstance(value := getattr(qlinalg, name), type) and issubclass(value, _Record)
    ),
    key=lambda cls: cls.__name__,
)

# Field values that each class's own checks accept; every other class takes
# any values, so it gets Fraction(i + 1, 3) for its i-th field.
VALID = {
    Scale: (Q(2), 0),
    AddMultiple: (Q(-1, 2), 0, 1),
    Swap: (0, 1),
    Subspace: (2, ((Q(1), Q(0)),)),
}


def fields(cls) -> list[str]:
    return list(vars(cls).get("__annotations__", {}))


def values(cls) -> tuple:
    return VALID.get(cls, tuple(Q(i + 1, 3) for i in range(len(fields(cls)))))


def twin(record):
    """The frozen dataclass with the record's class name, fields and values."""
    cls = type(record)
    made = dataclasses.make_dataclass(cls.__qualname__, fields(cls), frozen=True)
    return made(*(getattr(record, name) for name in fields(cls)))


def test_every_record_class_is_reachable_from_the_public_names():
    assert len(RECORDS) == 24
    assert set(RECORDS) == set(_Record.__subclasses__())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_hash_and_match_args_match_the_frozen_dataclass(cls):
    record = cls(*values(cls))
    assert repr(record) == repr(twin(record))
    assert hash(record) == hash(twin(record))
    assert cls.__match_args__ == type(twin(record)).__match_args__
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields(cls))
    assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = cls(*values(cls)), cls(*values(cls))
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_of_different_classes_are_never_equal():
    samples = [cls(*values(cls)) for cls in RECORDS]
    for i, a in enumerate(samples):
        for b in samples[i + 1:]:
            assert a != b and b != a
    # the same values, in records of different kinds
    assert Scale(2, 0) != Swap(2, 0)
    assert NotLinear(1, Q(2)) != NotSubspace(1, Q(2))
    assert Swap(0, 1) != (0, 1)


def test_records_differing_in_one_field_are_not_equal():
    assert Scale(2, 0) != Scale(2, 1)
    assert Scale(2, 0) != Scale(3, 0)
    assert OrthogonalityReport(False, (0, 1), Q(1)) != OrthogonalityReport(False, (0, 1), Q(2))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_agree(cls):
    by_position = cls(*values(cls))
    by_keyword = cls(**dict(zip(fields(cls), values(cls))))
    assert by_keyword == by_position
    assert repr(by_keyword) == repr(by_position)


def test_a_class_attribute_is_not_a_default():
    class R(_Record):
        x: int = 5

    try:
        with pytest.raises(TypeError):
            R()
        assert R(1).x == 1
    finally:
        # leave _Record.__subclasses__() as the reachability law reads it
        del R
        gc.collect()
    assert set(RECORDS) == set(_Record.__subclasses__())
    assert repr(OrthogonalityReport(ok=True, pair=None, value=None)) == (
        "OrthogonalityReport(ok=True, pair=None, value=None)"
    )
    with pytest.raises(TypeError):
        OrthogonalityReport(True)
    m = Matrix([[1, 2]])
    assert repr(LinearMap(m)) == f"LinearMap(matrix={m!r})"


@pytest.mark.parametrize("cls", [c for c in RECORDS if fields(c)], ids=lambda c: c.__name__)
def test_a_missing_unknown_or_extra_field_is_a_type_error(cls):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values(cls), bogus=1)
    with pytest.raises(TypeError):
        cls(*values(cls), 1)
    with pytest.raises(TypeError):  # one field both positionally and by keyword
        cls(*values(cls), **{fields(cls)[0]: values(cls)[0]})


def test_a_record_without_fields_takes_no_arguments():
    (empty,) = [cls for cls in RECORDS if not fields(cls)]
    assert repr(empty()) == f"{empty.__name__}()"
    assert empty() == empty() and hash(empty()) == hash(())
    with pytest.raises(TypeError):
        empty(1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen(cls):
    record = cls(*values(cls))
    before = repr(record)
    for name in [*fields(cls), "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls):
    record = cls(*values(cls))
    for other in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(other) is cls
        assert other == record and hash(other) == hash(record)
        assert repr(other) == repr(record)


def test_a_row_operation_matches_a_positional_pattern():
    match AddMultiple(Q(1, 2), 0, 1):
        case Scale(alpha, row):
            found = ("scale", alpha, row)
        case AddMultiple(alpha, source, target):
            found = ("add", alpha, source, target)
    assert found == ("add", Q(1, 2), 0, 1)


def test_records_are_not_iterable_tuples():
    with pytest.raises(TypeError):
        iter(Swap(0, 1))
    assert not isinstance(Scale(2, 0), tuple)


def test_row_operations_still_refuse_what_is_not_a_row_operation():
    with pytest.raises(ZeroScale):
        Scale(0, 1)
    with pytest.raises(ZeroScale):
        AddMultiple(0, 0, 1)
    with pytest.raises(ValueError):
        AddMultiple(1, 2, 2)
    with pytest.raises(ValueError):
        Swap(1, 1)
    with pytest.raises(IndexOutOfRange):
        Scale(1, -1)
    with pytest.raises(IndexOutOfRange):
        AddMultiple(1, -1, 0)
    with pytest.raises(IndexOutOfRange):
        Swap(0, -2)


@pytest.mark.parametrize(
    "build",
    [
        lambda r: Scale(3, r),
        lambda r: AddMultiple(2, r, 0),
        lambda r: AddMultiple(2, 0, r),
        lambda r: Swap(0, r),
        lambda r: Swap(r, 0),
    ],
    ids=["Scale", "AddMultiple-source", "AddMultiple-target", "Swap-second", "Swap-first"],
)
@pytest.mark.parametrize(
    "row", [1.5, True, False, Q(1), "1", None],
    ids=["float", "True", "False", "Fraction", "str", "None"],
)
def test_row_operations_refuse_a_row_index_that_is_not_an_int(build, row):
    with pytest.raises(TypeError, match="a row index must be an int"):
        build(row)


def test_row_operations_coerce_their_scalar():
    assert Scale("3/6", 0).alpha == Q(1, 2)
    assert AddMultiple(alpha=2, source=0, target=1) == AddMultiple(Q(2), 0, 1)
    assert type(Scale(2, 0).alpha) is Fraction


def test_post_init_runs_on_every_construction_and_is_looked_up_each_time(monkeypatch):
    assert Subspace(2, [[1, 0]]).basis == ((Q(1), Q(0)),)
    seen = []
    original = Subspace.__post_init__
    monkeypatch.setattr(
        Subspace, "__post_init__", lambda self: seen.append(self.ambient) or original(self)
    )
    Subspace(3, ())
    assert seen == [3]
