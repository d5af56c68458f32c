"""The compiled composition-table check and id lookup against core's pure
ones.

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
from catramsey.core import CategoryError, FiniteCategory, concrete_category, product
from catramsey.generators import DEFAULT_CAPS, UniverseSpec, forgetful_LO_to_Inj, generate
from conftest import matrix_coloring_expansion, surj3_coloring_expansion

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


# the compiled id lookup of concrete_category against its dict


def built(reader, build, spy=None):
    """build() with `reader` as the compiled library, the dict's fallback
    when None: the category, or a refusal's message.  With `spy`, a list,
    each call of reader.lookup is recorded in it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "READER", reader)
        if spy is not None:
            lookup = reader.lookup
            mp.setattr(reader, "lookup", lambda *args: spy.append(args) or lookup(*args))
        try:
            return build()
        except CategoryError as exc:
            return str(exc)


def facts(cat):
    return cat.object_labels, cat.mor_labels, cat.mor_dom, cat.mor_cod, cat.identities, cat._table.tobytes()


def assert_built_alike(compiled_kernel, build, looked_up=True):
    """Check that build() gives the same category, or the same refusal,
    through the compiled lookup as through the dict; the common outcome."""
    calls = []
    got, want = built(compiled_kernel, build, calls), built(None, build)
    assert bool(calls) == looked_up
    if isinstance(want, str):
        assert got == want
        return want
    assert facts(got) == facts(want)
    return got


@pytest.mark.parametrize(
    "family, size", [(family, size) for family, cap in DEFAULT_CAPS.items() for size in range(1, cap + 1)]
)
def test_the_compiled_lookup_builds_a_family_as_the_dict(compiled_kernel, family, size):
    cat = assert_built_alike(compiled_kernel, lambda: generate(UniverseSpec(family, size)))
    back = built(None, lambda: generate(UniverseSpec(family, size)))
    assert cat.opposite()._table == back.opposite()._table


@pytest.mark.parametrize(
    "build",
    [
        lambda: forgetful_LO_to_Inj(3),
        lambda: forgetful_LO_to_Inj(4),
        matrix_coloring_expansion,
        surj3_coloring_expansion,
    ],
    ids=["forgetful_3", "forgetful_4", "coloring_inj_2", "coloring_surj_3"],
)
def test_the_compiled_lookup_builds_a_lifted_expansion_as_the_dict(compiled_kernel, build):
    assert_built_alike(compiled_kernel, lambda: build().upstairs)


def test_a_product_keeps_the_dict(compiled_kernel):
    # its values are pairs, which no array("Q") holds
    inj2, lo2 = generate(UniverseSpec("Inj", 2)), generate(UniverseSpec("LO", 2))
    assert_built_alike(compiled_kernel, lambda: product(inj2, lo2), looked_up=False)


# the maps of a 2-point set, each valued by its index here
_MAPS = [(0, 1), (1, 0), (0, 0), (1, 1)]


def _maps_by_index(compose=None, values=range(4), objects=1):
    """The 2-point maps as a category of ints, each map valued by its index
    in _MAPS.  One object holds them all; more objects form a chain
    0 -> 1 -> ... whose morphisms are the identities and the maps from each
    object to the next, which leaves hom(0, 2) empty."""

    def arrows(a, b):
        if objects == 1 or b == a + 1:
            return [(v, str(v)) for v in values]
        return [(0, "id")] if a == b else []

    return concrete_category([f"X{a}" for a in range(objects)], arrows, compose or _composites, lambda a: 0)[0]


def _composites(gs, fs):
    """g*f, x -> g[f[x]], of the maps of index g and f, as an index."""
    return [_MAPS.index(tuple(_MAPS[g][x] for x in _MAPS[f])) for g in gs for f in fs]


def _with_cell(value):
    """A composite of the 2-point maps whose block's cell g = 1, f = 2 is
    `value` instead."""

    def compose(gs, fs):
        block = _composites(gs, fs)
        block[1 * len(fs) + 2] = value
        return block

    return compose


@pytest.mark.parametrize(
    "case, looked_up, refusal",
    [
        ("plain", True, None),
        ("unlisted", True, "the composite 1*2 is not a morphism 0 -> 0"),
        ("past_uint64", False, "the composite 1*2 is not a morphism 0 -> 0"),
        ("negative", False, "the composite 1*2 is not a morphism 0 -> 0"),
        ("float_of_a_listed_int", False, None),
        ("short_block", False, "3 composites for 4 x 4 cells of 0 -> 0 -> 0"),
        ("long_array", False, "17 composites for 4 x 4 cells of 0 -> 0 -> 0"),
        ("repeated_value", True, None),
        ("no_hom_a_c", True, "the composite 6*1 is not a morphism 0 -> 2"),
        ("a_generator", True, None),
    ],
)
def test_the_compiled_lookup_refuses_as_the_dict(compiled_kernel, case, looked_up, refusal):
    build = {
        "plain": lambda: _maps_by_index(),
        "unlisted": lambda: _maps_by_index(_with_cell(99)),
        "past_uint64": lambda: _maps_by_index(_with_cell(2**64)),
        "negative": lambda: _maps_by_index(_with_cell(-1)),
        "float_of_a_listed_int": lambda: _maps_by_index(_with_cell(2.0)),
        "short_block": lambda: _maps_by_index(lambda gs, fs: [0] * 3),
        "long_array": lambda: _maps_by_index(lambda gs, fs: array("Q", [0] * 17)),
        # equal values in one hom-set: the dict keeps the last id, and so does the lookup
        "repeated_value": lambda: _maps_by_index(values=[0, 1, 2, 1, 3]),
        "no_hom_a_c": lambda: _maps_by_index(objects=3),
        "a_generator": lambda: _maps_by_index(lambda gs, fs: (g for g in gs for _ in fs)),
    }[case]
    outcome = assert_built_alike(compiled_kernel, build, looked_up)
    assert (outcome == refusal) if refusal else isinstance(outcome, FiniteCategory)


def test_the_compiled_lookup_refuses_what_it_cannot_hold(compiled_kernel):
    keys, ids, values, table = array("Q", [5, 7]), array("i", [0, 1]), array("Q", [7, 5]), array("i", [-1] * 4)
    assert compiled_kernel.lookup(keys, ids, values, table, 0, 2, 2) is None
    assert table.tolist() == [1, 0, -1, -1]
    assert compiled_kernel.lookup(keys, ids, array("Q", [5, 6]), table, 1, 1, 2) == 1
    assert compiled_kernel.lookup(array("Q"), array("i"), values, table, 0, 2, 2) == 0
    for args in (
        (array("q", [5, 7]), ids, values, table, 0, 2, 2),  # keys of another type
        (keys, array("i", [0]), values, table, 0, 2, 2),  # ids of another length
        (keys, ids, [7, 5], table, 0, 2, 2),  # values that are no array
        (keys, ids, values, array("l", [-1] * 4), 0, 2, 2),  # a table of another type
        (keys, ids, values, table, 0, 0, 2),  # no width
        (keys, ids, values, table, 0, 3, 2),  # rows wider than their stride
        (keys, ids, array("Q", [5, 7, 5]), table, 0, 2, 2),  # no whole rows
        (keys, ids, values, table, 3, 2, 2),  # past the table's end
        (keys, ids, values, table, -1, 2, 2),  # before its start
    ):
        with pytest.raises(ValueError):
            compiled_kernel.lookup(*args)
