"""The compiled composition-table check against core's pure one.

The constructor checks a finished table with the compiled kernel's
check_table where the library is built, and with FiniteCategory._table_fault
where it is not.  Built here with every warning an error and the
undefined-behaviour sanitizer on, the compiled check accepts exactly the
tables that the pure one accepts, and refuses the others with the same
message: an unknown id on a composable pair wins, in the lowest row, and
otherwise the first entry off the composable pairs in row-major order is
named.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from catramsey import kernel
from catramsey.core import CategoryError, FiniteCategory
from catramsey.generators import UniverseSpec, generate

_BASES = {f"{family}_3": generate(UniverseSpec(family, 3)) for family in ("LO", "Inj", "Surj")}
CATEGORIES = {**_BASES, **{f"{name}_op": cat.opposite() for name, cat in _BASES.items()}}


def outcome(reader, cat, table):
    """The constructor's verdict on `table` under `reader`: the category's
    table bytes, or the refusal's message."""
    morphisms = list(zip(cat.mor_dom, cat.mor_cod, cat.mor_labels))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "READER", reader)
        try:
            built = FiniteCategory(cat.object_labels, morphisms, array("i", table), cat.identities)
        except CategoryError as exc:
            return str(exc)
    return built._table.tobytes()


def assert_parity(compiled_kernel, cat, table):
    """Check the compiled check against the pure one; the common outcome."""
    got, want = outcome(compiled_kernel, cat, table), outcome(None, cat, table)
    assert got == want
    return got


def _cells(cat, composable):
    m = cat.n_morphisms
    return [g * m + f for g in range(m) for f in range(m) if cat.composable(g, f) == composable]


@st.composite
def tampered(draw):
    """A category of CATEGORIES and its table with one or two cells changed:
    an unknown id on a composable pair, an entry off the composable pairs,
    or both, the entry off them in an earlier row."""
    cat = draw(st.sampled_from(list(CATEGORIES.values())))
    m, table = cat.n_morphisms, list(cat._table)
    unknown_id = st.sampled_from([m, -2, 2**30])
    case = draw(st.sampled_from(["unknown", "off", "two", "both"]))
    if case == "both":
        cell = draw(st.sampled_from([c for c in _cells(cat, True) if c >= m]))
        off = draw(st.sampled_from([c for c in _cells(cat, False) if c // m < cell // m]))
        table[cell], table[off] = draw(unknown_id), draw(st.integers(0, m - 1))
        return cat, table, "unknown"
    kinds = [case] if case != "two" else draw(st.lists(st.sampled_from(["unknown", "off"]), min_size=2, max_size=2))
    for kind in kinds:
        if kind == "unknown":
            table[draw(st.sampled_from(_cells(cat, True)))] = draw(unknown_id)
        else:
            table[draw(st.sampled_from(_cells(cat, False)))] = draw(st.one_of(unknown_id, st.integers(0, m - 1)))
    return cat, table, case


@settings(max_examples=300, deadline=None)
@given(case=tampered())
def test_the_compiled_check_refuses_a_tampered_table_as_the_pure_one(compiled_kernel, case):
    cat, table, kind = case
    message = assert_parity(compiled_kernel, cat, table)
    assert isinstance(message, str)
    if kind == "unknown":
        assert message.endswith("an unknown morphism")
    elif kind == "off":
        assert message.endswith("are not composable")


@pytest.mark.parametrize("name", CATEGORIES)
def test_the_compiled_check_accepts_a_category_as_the_pure_one(compiled_kernel, name):
    cat = CATEGORIES[name]
    assert assert_parity(compiled_kernel, cat, cat._table) == cat._table.tobytes()


@pytest.mark.parametrize("m", [0, 1])
def test_the_compiled_check_takes_the_smallest_tables_as_the_pure_one(compiled_kernel, m):
    objects, morphisms = ["x"] * m, [(0, 0, "id")] * m
    cat = FiniteCategory(objects, morphisms, array("i", [0] * m * m), [0] * m)
    for cell in ([0, -1, 1, -2, 2**30, 2**31 - 1, -(2**31)] if m else [None]):
        table = [] if cell is None else [cell]
        message = assert_parity(compiled_kernel, cat, table)
        assert isinstance(message, bytes) == (cell in (None, 0, -1))


def test_the_compiled_check_refuses_what_it_cannot_hold(compiled_kernel):
    assert compiled_kernel.check_table(array("i"), (), ()) is None
    big = (0,) * 46341  # m * m past the C int range
    for table, dom, cod in (
        (array("i", [0]), (0,), ()),
        (array("i", [0, 0]), (0,), (0,)),
        (array("l", [0]), (0,), (0,)),
        ([0], (0,), (0,)),
        (array("i"), big, big),
    ):
        with pytest.raises(ValueError):
            compiled_kernel.check_table(table, dom, cod)
