"""One argument contract, read from the signatures: every parameter of a
public callable annotated ``int`` or ``int | None`` refuses a bool, a float,
a ``Fraction`` and a string with ``TypeError``, as ``as_scalar`` refuses a
float.  ``True`` is neither row 1 nor size 1.

The callables are those pinned in ``golden/public_names.txt`` and
``golden/public_methods.txt``; the parameters found there are pinned below,
each with a probe that calls it with one value and valid other arguments.
"""

import inspect
from fractions import Fraction
from pathlib import Path

import pytest

import qlinalg
from qlinalg import (
    Matrix,
    Polynomial,
    Scale,
    Subspace,
    cofactor_expand,
    elementary_matrix,
    integral_functional,
    inverse_entry,
    matrix_power,
    poly_to_coords,
    split_augmented,
)

GOLDEN = Path(__file__).parent / "golden"
# as written under ``from __future__ import annotations``, and as evaluated
INT_ANNOTATIONS = ("int", "int | None", int, int | None)
NOT_INTS = (True, False, 1.0, Fraction(1), "1")

M = Matrix.parse("1 2 0; 0 1 3; 4 0 1")

# Each probe accepts 1 and passes its value to the named parameter alone.
PROBES = {
    "Matrix.__pow__(k)": lambda v: M ** v,
    "Matrix.col(j)": lambda v: M.col(v),
    "Matrix.drop(col)": lambda v: M.drop(col=v),
    "Matrix.drop(row)": lambda v: M.drop(row=v),
    "Matrix.identity(n)": lambda v: Matrix.identity(v),
    "Matrix.row(i)": lambda v: M.row(v),
    "Matrix.take_columns(start)": lambda v: M.take_columns(v, 2),
    "Matrix.take_columns(stop)": lambda v: M.take_columns(0, v),
    "Matrix.zero(cols)": lambda v: Matrix.zero(2, v),
    "Matrix.zero(rows)": lambda v: Matrix.zero(v, 2),
    "Polynomial.coefficient(k)": lambda v: Polynomial([1, 2]).coefficient(v),
    "Subspace.zero(ambient)": lambda v: Subspace.zero(v),
    "cofactor_expand(col)": lambda v: cofactor_expand(M, col=v),
    "cofactor_expand(row)": lambda v: cofactor_expand(M, row=v),
    "elementary_matrix(n)": lambda v: elementary_matrix(Scale(2, 0), v),
    "integral_functional(n)": lambda v: integral_functional(v),
    "inverse_entry(i)": lambda v: inverse_entry(M, v, 0),
    "inverse_entry(k)": lambda v: inverse_entry(M, 0, v),
    "matrix_power(k)": lambda v: matrix_power(M, v),
    "poly_to_coords(n)": lambda v: poly_to_coords(Polynomial([3]), v),
    "split_augmented(boundary)": lambda v: split_augmented(M, v),
}


def int_parameters(namespace, names, methods) -> list[str]:
    """``callable(parameter)`` for every parameter annotated ``int`` or
    ``int | None`` of the functions in ``names`` and the ``Class.attr``
    entries of ``methods`` that are not properties, looked up in ``namespace``."""
    found = []
    targets = [(name, namespace[name]) for name in names if inspect.isfunction(namespace[name])]
    for entry in methods:
        cls, attr = entry.split(".")
        value = vars(namespace[cls])[attr]
        if not isinstance(value, property):
            targets.append((entry, getattr(value, "__func__", value)))
    for label, func in targets:
        found += [
            f"{label}({p.name})"
            for p in inspect.signature(func).parameters.values()
            if p.annotation in INT_ANNOTATIONS
        ]
    return sorted(found)


def unchecked(probes) -> list[str]:
    """Each probe and value that gets through without a ``TypeError``."""
    missed = []
    for label, probe in probes.items():
        for value in NOT_INTS:
            try:
                probe(value)
            except TypeError:
                continue
            except Exception as e:  # noqa: BLE001 - any other outcome is a miss
                missed.append(f"{label} with {value!r}: {type(e).__name__}")
            else:
                missed.append(f"{label} with {value!r}: accepted")
    return missed


def _golden(name: str) -> list[str]:
    return (GOLDEN / name).read_text().split()


def test_the_int_parameters_are_pinned():
    found = int_parameters(
        vars(qlinalg), _golden("public_names.txt"), _golden("public_methods.txt")
    )
    assert len(found) == 21
    assert found == sorted(PROBES)


@pytest.mark.parametrize("label", sorted(PROBES))
def test_every_probe_accepts_an_int(label):
    PROBES[label](1)


def test_every_int_parameter_refuses_what_is_not_an_int():
    assert unchecked(PROBES) == []


def test_the_law_sees_an_unchecked_int_parameter():
    def shifted(n: int, by: int | None = None, scale: float = 1) -> int:
        return n + (by or 0)

    class Grid:
        def cell(self, i: int) -> int:
            if not 0 <= i < 3:
                raise IndexError(i)
            return i

        @property
        def size(self) -> int:
            return 3

    planted = dict(vars(qlinalg), shifted=shifted, Grid=Grid)
    found = int_parameters(
        planted,
        [*_golden("public_names.txt"), "shifted"],
        [*_golden("public_methods.txt"), "Grid.cell", "Grid.size"],
    )
    assert sorted(set(found) - set(PROBES)) == ["Grid.cell(i)", "shifted(by)", "shifted(n)"]
    assert unchecked({
        "shifted(n)": lambda v: shifted(v),
        "Grid.cell(i)": lambda v: Grid().cell(v),
        "Matrix.row(i)": PROBES["Matrix.row(i)"],
    }) == [
        "shifted(n) with True: accepted",
        "shifted(n) with False: accepted",
        "shifted(n) with 1.0: accepted",
        "shifted(n) with Fraction(1, 1): accepted",
        "Grid.cell(i) with True: accepted",
        "Grid.cell(i) with False: accepted",
        "Grid.cell(i) with 1.0: accepted",
        "Grid.cell(i) with Fraction(1, 1): accepted",
    ]
