import itertools
import math
import random
import weakref
from array import array

import pytest

from catramsey import core
from catramsey.core import (
    MAX_MORPHISMS,
    CategoryError,
    FiniteCategory,
    concrete_category,
    product,
    validate,
)
from catramsey.generators import UniverseSpec, forgetful_LO_to_Inj, generate
from catramsey.io import dumps_category, loads_category
from conftest import composition_table, iso_by_double_loop, obj, one_object_category, same_category


def test_one_object_category_valid():
    cat = one_object_category()
    report = validate(cat)
    assert report.ok
    assert report.all_mono


@pytest.mark.parametrize("a", [1.5, True])
def test_hom_refuses_an_object_id_that_is_not_an_int(lo6, a):
    with pytest.raises(CategoryError, match="unknown object id"):
        lo6.check_object(a)
    with pytest.raises(CategoryError, match="unknown object id"):
        lo6.hom(a, 4)


def test_oversized_category_refused_before_allocating():
    # the composition table is quadratic in the morphism count
    morphisms = [(0, 0, str(i)) for i in range(MAX_MORPHISMS + 1)]
    with pytest.raises(CategoryError, match="exceed the cap"):
        FiniteCategory(["x"], morphisms, array("i"), identities=[0])


def _two_point_maps(
    compose=lambda gs, fs: [tuple(g[x] for x in f) for g in gs for f in fs], identity=lambda a: (0, 1)
):
    # the maps of a 2-point set with values as image tuples
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    return concrete_category(["2"], lambda a, b: ((v, str(v)) for v in maps), compose, identity)


def test_concrete_category_numbers_by_value_and_streams_composition():
    cat, values = _two_point_maps()
    assert values == [(0, 1), (1, 0), (0, 0), (1, 1)]
    assert cat.identities == (0,)
    assert cat.compose(1, 1) == 0 and cat.compose(2, 1) == 2 and cat.compose(1, 2) == 3
    assert validate(cat).ok


def test_concrete_category_refuses_what_it_did_not_build():
    with pytest.raises(CategoryError, match="composite"):
        _two_point_maps(compose=lambda gs, fs: [(9, 9)] * (len(gs) * len(fs)))
    with pytest.raises(CategoryError, match="identity"):
        _two_point_maps(identity=lambda a: (2, 2))


def test_concrete_category_names_the_composite_a_block_misses():
    def compose(gs, fs):
        block = [tuple(g[x] for x in f) for g in gs for f in fs]
        block[1 * len(fs) + 2] = (9, 9)  # row g = 1, column f = 2
        return block

    with pytest.raises(CategoryError, match=r"the composite 1\*2 is not a morphism 0 -> 0"):
        _two_point_maps(compose=compose)
    with pytest.raises(CategoryError, match="3 composites for 4 x 4 cells of 0 -> 0 -> 0"):
        _two_point_maps(compose=lambda gs, fs: [gs[0]] * 3)


def test_concrete_category_stops_at_the_morphism_cap():
    listed = []

    def arrows(a, b):
        for i in range(2 * MAX_MORPHISMS):
            listed.append(i)
            yield i, str(i)

    with pytest.raises(CategoryError, match="cap"):
        concrete_category(["x"], arrows, lambda gs, fs: gs, lambda a: 0)
    assert len(listed) == MAX_MORPHISMS + 1


def test_closure_violation_reported_and_kept():
    # e*idx and idy*e are composable pairs, but their composites x -> x and
    # y -> y do not run from dom f to cod g
    compose = {(0, 0): 0, (1, 1): 1, (2, 0): 0, (1, 2): 1}
    morphisms = [(0, 0, "idx"), (1, 1, "idy"), (0, 1, "e")]
    cat = FiniteCategory(["x", "y"], morphisms, composition_table(3, compose), identities=[0, 1])
    assert validate(cat).closure_violations == [(1, 2), (2, 0)]
    entries = list(cat.compose_entries())
    assert entries == sorted((g, f, gf) for (g, f), gf in compose.items())


def test_lo3_valid_and_mono():
    cat = generate(UniverseSpec("LO", 3))
    report = validate(cat)
    assert report.ok
    assert report.all_mono


def test_identity_law_violation_flagged():
    # compose(id, e) = id instead of e breaks the left identity law
    cat = FiniteCategory(
        ["x"],
        [(0, 0, "id"), (0, 0, "e")],
        composition_table(2, {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}),
        identities=[0],
    )
    report = validate(cat)
    assert not report.ok
    assert 1 in report.identity_violations


def _missing_e_e():
    # e*e is left undefined
    table = composition_table(2, {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    return FiniteCategory(["x"], [(0, 0, "id"), (0, 0, "e")], table, identities=[0])


def test_missing_composition_detected():
    cat = _missing_e_e()
    report = validate(cat)
    assert report.missing_compositions == [(1, 1)]


def test_hom_counts(lo6, inj3):
    assert len(lo6.hom(obj(lo6, "LO", 2), obj(lo6, "LO", 3))) == 3
    assert len(inj3.hom(obj(inj3, "Inj", 2), obj(inj3, "Inj", 3))) == 6
    for cat in (lo6, inj3):
        for a in range(cat.n_objects):
            assert cat.identity(a) in cat.hom(a, a)


def test_automorphism_groups(lo6, inj3):
    for s in range(1, 7):
        assert lo6.automorphisms(obj(lo6, "LO", s)) == (lo6.identity(obj(lo6, "LO", s)),)
    assert len(inj3.automorphisms(obj(inj3, "Inj", 2))) == 2
    assert len(inj3.automorphisms(obj(inj3, "Inj", 3))) == 6
    # group axioms: closure and inverses under composition
    a3 = obj(inj3, "Inj", 3)
    auts = set(inj3.automorphisms(a3))
    for g in auts:
        assert any(inj3.compose(g, h) == inj3.identity(a3) for h in auts)
        for h in auts:
            assert inj3.compose(g, h) in auts


@pytest.mark.parametrize("family, size", [("LO", 5), ("Inj", 4), ("Surj", 4)])
def test_iso_matches_the_double_loop_on_generated_families_and_their_opposites(family, size):
    cat = generate(UniverseSpec(family, size))
    for c in (cat, cat.opposite()):
        for a, b in itertools.product(range(c.n_objects), repeat=2):
            assert c.iso(a, b) == iso_by_double_loop(c, a, b), (a, b)
        # only a size's own hom-set holds isos, and Aut(a) has size! of them
        # in Inj and Surj and one in LO
        assert [len(c.automorphisms(a)) for a in range(c.n_objects)] == [
            1 if family == "LO" else math.factorial(a + 1) for a in range(c.n_objects)
        ]


def test_iso_tries_every_left_inverse_of_an_unvalidated_table():
    # one object, e = 0, f = 1, g1 = 2, g2 = 3, not associative and with
    # composites left undefined: g1 and g2 are both left inverses of f, only
    # g2 a right one too, and g1 has no left inverse at all
    lines = ["objects: 1", "obj 0 x"] + [f"mor {i} 0 0 {i}" for i in range(4)]
    lines += [f"cmp 0 {i} {i}" for i in range(4)] + [f"cmp {i} 0 {i}" for i in range(1, 4)]
    lines += ["cmp 2 1 0", "cmp 1 2 1", "cmp 3 1 0", "cmp 1 3 0"]
    cat = loads_category("\n".join(lines) + "\n")
    assert not validate(cat).ok
    assert cat.automorphisms(0) == (0, 1, 3)


def test_subobject_classes(inj3, lo6):
    a2, b3 = obj(inj3, "Inj", 2), obj(inj3, "Inj", 3)
    classes = inj3.subobject_classes(a2, b3)
    assert len(classes) == 3
    assert all(len(c.members) == 2 for c in classes)
    covered = set().union(*(c.members for c in classes))
    assert covered == set(inj3.hom(a2, b3))
    # rigid objects give singleton classes
    la, lb = obj(lo6, "LO", 2), obj(lo6, "LO", 4)
    classes = lo6.subobject_classes(la, lb)
    assert len(classes) == len(lo6.hom(la, lb))
    # empty hom-set gives no classes
    assert inj3.subobject_classes(b3, a2) == ()


def test_subobject_classes_requires_mono(surj3):
    with pytest.raises(CategoryError):
        surj3.subobject_classes(1, 0)


def test_opposite_involution(surj3, lo4):
    for cat in (surj3, lo4):
        assert same_category(cat.opposite().opposite(), cat)


def test_opposite_is_built_once_without_back_reference():
    cat = generate(UniverseSpec("Surj", 3))
    op = cat.opposite()
    assert cat.opposite() is op
    assert op.opposite() is not cat
    assert same_category(op.opposite(), cat)
    # no reference cycle: dropping the last reference frees both at once,
    # without waiting for the cycle collector
    refs = weakref.ref(cat), weakref.ref(op)
    del cat, op
    assert [r() for r in refs] == [None, None]


def _pairwise_mono(cat, f):
    d = cat.mor_dom[f]
    return all(
        cat.compose(f, u) != cat.compose(f, v)
        for x in range(cat.n_objects)
        for u, v in itertools.combinations(cat.hom(x, d), 2)
    )


def _pairwise_epi(cat, f):
    c = cat.mor_cod[f]
    return all(
        cat.compose(u, f) != cat.compose(v, f)
        for x in range(cat.n_objects)
        for u, v in itertools.combinations(cat.hom(c, x), 2)
    )


def test_mono_and_epi_match_pairwise_reference(surj3, inj3):
    # an epi of a category is a mono of its opposite
    for cat in (surj3, surj3.opposite(), inj3):
        op = cat.opposite()
        for f in range(cat.n_morphisms):
            assert cat.is_mono(f) == _pairwise_mono(cat, f)
            assert op.is_mono(f) == _pairwise_epi(cat, f)
    # each side of the reference is exercised
    assert not all(surj3.is_mono(f) for f in range(surj3.n_morphisms))
    assert not all(_pairwise_epi(inj3, f) for f in range(inj3.n_morphisms))


def test_opposite_hom_counts(lo4):
    op = lo4.opposite()
    for a in range(lo4.n_objects):
        for b in range(lo4.n_objects):
            assert len(op.hom(a, b)) == len(lo4.hom(b, a))


def test_opposite_of_one_object_is_itself():
    cat = one_object_category()
    assert same_category(cat.opposite(), cat)


def test_product_hom_counts():
    lo3 = generate(UniverseSpec("LO", 3))
    prod = product(lo3, lo3)
    assert validate(prod).ok
    n = lo3.n_objects
    for a1 in range(n):
        for a2 in range(n):
            for b1 in range(n):
                for b2 in range(n):
                    got = len(prod.hom(a1 * n + a2, b1 * n + b2))
                    assert got == len(lo3.hom(a1, b1)) * len(lo3.hom(a2, b2))


def test_product_with_unit():
    lo3 = generate(UniverseSpec("LO", 3))
    unit = one_object_category()
    prod = product(lo3, unit)
    assert prod.n_objects == lo3.n_objects
    assert prod.n_morphisms == lo3.n_morphisms
    assert validate(prod).ok


def test_product_composes_componentwise(inj3):
    lo3 = generate(UniverseSpec("LO", 3))
    prod = product(inj3, lo3)
    assert prod.n_morphisms == inj3.n_morphisms * lo3.n_morphisms
    n2 = lo3.n_objects

    def factors(h):
        # "(l1*l2)" over objects o1 * n2 + o2 names one morphism of each factor
        l1, l2 = prod.mor_labels[h][1:-1].split("*")
        (d1, d2), (c1, c2) = divmod(prod.mor_dom[h], n2), divmod(prod.mor_cod[h], n2)
        (f1,) = [f for f in inj3.hom(d1, c1) if inj3.mor_labels[f] == l1]
        (f2,) = [f for f in lo3.hom(d2, c2) if lo3.mor_labels[f] == l2]
        return f1, f2

    assert validate(prod).ok
    for g, f, gf in prod.compose_entries():
        (g1, g2), (f1, f2) = factors(g), factors(f)
        assert factors(gf) == (inj3.compose(g1, f1), lo3.compose(g2, f2))
    assert [factors(e) for e in prod.identities] == [
        (inj3.identities[a1], lo3.identities[a2]) for a1 in range(inj3.n_objects) for a2 in range(n2)
    ]


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_a_block_cut_into_slabs_fills_the_same_table(rows, inj3, monkeypatch):
    # a hom(b, c) of more than _SLAB_ROWS morphisms is composed a run of rows
    # at a time, in every construction that goes through concrete_category
    lo3 = generate(UniverseSpec("LO", 3))
    builds = [
        lambda: generate(UniverseSpec("Surj", 4)),
        lambda: generate(UniverseSpec("Inj", 3)),
        lambda: product(inj3, lo3),
        lambda: forgetful_LO_to_Inj(3).upstairs,
        lambda: _two_point_maps()[0],
    ]
    whole = [build() for build in builds]
    monkeypatch.setattr(core, "_SLAB_ROWS", rows)
    for build, cat in zip(builds, whole):
        assert same_category(build(), cat)


def test_oversized_product_refused_before_composing(inj4, lo6, monkeypatch):
    # Inj_4 x LO_6 has 10,080 morphisms
    calls = []
    monkeypatch.setattr(FiniteCategory, "compose", lambda self, g, f: calls.append((g, f)))
    with pytest.raises(CategoryError, match="cap"):
        product(inj4, lo6)
    assert calls == []


def test_product_aut_multiplies():
    inj2 = generate(UniverseSpec("Inj", 2))
    lo2 = generate(UniverseSpec("LO", 2))
    prod = product(inj2, lo2)
    for a1 in range(inj2.n_objects):
        for a2 in range(lo2.n_objects):
            pair = a1 * lo2.n_objects + a2
            assert len(prod.automorphisms(pair)) == len(inj2.automorphisms(a1)) * len(lo2.automorphisms(a2))


def test_surj_morphisms_epi_not_all_mono(surj3):
    assert all(_pairwise_epi(surj3, m) for m in range(surj3.n_morphisms))
    assert not surj3.all_mono
    op = surj3.opposite()
    assert all(op.is_mono(m) for m in range(op.n_morphisms))


def test_unknown_object_rejected(lo4):
    with pytest.raises(CategoryError):
        lo4.hom(0, 99)


def _morphisms(cat):
    return [(cat.mor_dom[i], cat.mor_cod[i], cat.mor_labels[i]) for i in range(cat.n_morphisms)]


def _function_entries(cat):
    """g*f on every composable pair of a generated family, composing the
    image tuples that the labels spell out."""
    ids = {(cat.mor_dom[i], cat.mor_cod[i], label): i for i, label in enumerate(cat.mor_labels)}
    image = [tuple(map(int, label.split(","))) for label in cat.mor_labels]
    for g in range(cat.n_morphisms):
        for f in range(cat.n_morphisms):
            if cat.mor_cod[f] == cat.mor_dom[g]:
                gf = ",".join(str(image[g][x]) for x in image[f])
                yield (g, f), ids[(cat.mor_dom[f], cat.mor_cod[g], gf)]


def _lifted_entries(functor):
    """g*f on every composable upstairs pair: the upstairs morphism between
    the right objects that lies over the base composite."""
    up, down, over = functor.upstairs, functor.downstairs, functor.morphism_map
    for g in range(up.n_morphisms):
        for f in range(up.n_morphisms):
            if up.mor_cod[f] == up.mor_dom[g]:
                base = down.compose(over[g], over[f])
                (gf,) = [h for h in up.hom(up.mor_dom[f], up.mor_cod[g]) if over[h] == base]
                yield (g, f), gf


def _assert_same_tables(block, entries):
    assert list(block.compose_entries()) == list(entries.compose_entries())
    assert dumps_category(block) == dumps_category(entries)


def _generated(family, size):
    cat = generate(UniverseSpec(family, size))
    return cat, _function_entries(cat)


def _forgetful_upstairs(size):
    functor = forgetful_LO_to_Inj(size)
    return functor.upstairs, _lifted_entries(functor)


@pytest.mark.parametrize(
    "build",
    [lambda: _generated("LO", 7), lambda: _generated("Inj", 5), lambda: _generated("Surj", 5), lambda: _forgetful_upstairs(3)],
    ids=["LO_7", "Inj_5", "Surj_5", "forgetful_3"],
)
def test_block_built_tables_match_entry_built_ones(build):
    cat, entries = build()
    table = composition_table(cat.n_morphisms, entries)
    _assert_same_tables(cat, FiniteCategory(cat.object_labels, _morphisms(cat), table, cat.identities))
    # the transposed opposite against the opposite filled entry by entry
    swapped = [(c, d, label) for d, c, label in _morphisms(cat)]
    op_table = composition_table(cat.n_morphisms, (((f, g), gf) for g, f, gf in cat.compose_entries()))
    _assert_same_tables(cat.opposite(), FiniteCategory(cat.object_labels, swapped, op_table, cat.identities))


def test_opposite_of_a_loaded_category_keeps_its_faults_swapped():
    lo = generate(UniverseSpec("LO", 3))
    g, f = lo.hom(obj(lo, "LO", 2), obj(lo, "LO", 3))[0], lo.hom(obj(lo, "LO", 1), obj(lo, "LO", 2))[0]
    e = lo.hom(obj(lo, "LO", 1), obj(lo, "LO", 2))[1]
    # g*f goes missing, and g*e, a composable pair, runs LO_1 -> LO_1 instead of into LO_3
    wrong = lo.identity(obj(lo, "LO", 1))
    text = dumps_category(lo).replace(f"cmp {g} {f} {lo.compose(g, f)}\n", "")
    text = text.replace(f"cmp {g} {e} {lo.compose(g, e)}\n", f"cmp {g} {e} {wrong}\n")
    cat = loads_category(text)
    assert (validate(cat).missing_compositions, validate(cat).closure_violations) == ([(g, f)], [(g, e)])
    op = cat.opposite()
    report = validate(op)
    assert (report.missing_compositions, report.closure_violations) == ([(f, g)], [(e, g)])
    assert (e, g, wrong) in list(op.compose_entries())
    assert same_category(op.opposite(), cat)


def _associativity_by_triples(cat):
    """validate's associativity check as a loop over composable triples,
    three compose calls each."""
    return [
        (h, g, f)
        for f in range(cat.n_morphisms)
        for g in cat._out[cat.mor_cod[f]]
        for h in cat._out[cat.mor_cod[g]]
        if cat.compose(h, cat.compose(g, f)) != cat.compose(cat.compose(h, g), f)
    ]


@pytest.mark.parametrize("family, size", [("Inj", 3), ("Surj", 3), ("LO", 4)])
def test_associativity_read_by_columns_finds_what_the_triple_loop_finds(family, size):
    # composites replaced by other morphisms of their hom-sets, in a
    # generated category, whose morphisms out of an object have consecutive
    # ids, and in its opposite, where they do not; the report lists the
    # same violations in the same order as the triple loop
    rng = random.Random(size)
    for cat in (generate(UniverseSpec(family, size)), generate(UniverseSpec(family, size)).opposite()):
        cells = [(g, f, gf) for g, f, gf in cat.compose_entries() if len(cat.hom(cat.mor_dom[f], cat.mor_cod[g])) > 1]
        found = 0
        for g, f, gf in rng.sample(cells, min(len(cells), 40)):
            entries = {(x, y): xy for x, y, xy in cat.compose_entries()}
            entries[g, f] = rng.choice([h for h in cat.hom(cat.mor_dom[f], cat.mor_cod[g]) if h != gf])
            table = composition_table(cat.n_morphisms, entries)
            tampered = FiniteCategory(cat.object_labels, _morphisms(cat), table, cat.identities)
            violations = validate(tampered).associativity_violations
            assert violations == _associativity_by_triples(tampered), (g, f)
            found += bool(violations)
        assert found
    assert any(list(out) != list(range(out[0], out[-1] + 1)) for out in cat._out if out)


@pytest.mark.parametrize(
    "table, message",
    [
        (array("i", [0, 0]), "cells"),
        (array("l", [0]), "cells"),
        (array("i", [1]), "unknown"),
        (array("i", [-2]), "unknown"),
        # the finished table is the only composition format
        ({(0, 0): 0}, "cells"),
        ([((0, 0), 0)], "cells"),
        ([0], "cells"),
    ],
)
def test_a_finished_table_naming_unknown_ids_is_refused(table, message):
    with pytest.raises(CategoryError, match=message):
        FiniteCategory(["x"], [(0, 0, "id")], table, identities=[0])


def test_a_finished_table_with_an_unknown_id_off_the_composable_pairs_is_refused():
    # cell (0, 1) is idx*idy, which is no composable pair: any entry there is
    # refused, a known id as well as an unknown one
    objects, morphisms = ["x", "y"], [(0, 0, "idx"), (1, 1, "idy")]
    for stray in (9, -3, 1, 0):
        with pytest.raises(CategoryError, match=f"cell 0\\*1 holds {stray}, but 0 and 1 are not composable"):
            FiniteCategory(objects, morphisms, array("i", [0, stray, -1, 1]), identities=[0, 1])
    # the offending cell is named in a row whose composable cells are full too
    with pytest.raises(CategoryError, match="cell 1\\*0 holds 1"):
        FiniteCategory(objects, morphisms, array("i", [0, -1, 1, 1]), identities=[0, 1])


def test_row_reads_match_compose_and_refuse_a_missing_composite(surj3):
    ids = range(surj3.n_morphisms)
    for g in ids:
        fs = [f for f in ids if surj3.mor_cod[f] == surj3.mor_dom[g]]
        assert surj3.post(g, fs) == [surj3.compose(g, f) for f in fs]
        # a few cells of the row, in any order and with repeats
        for picked in (fs[:1], fs[::-1], fs[1::3] + fs[:2], [fs[-1]] * 3, []):
            assert surj3.post(g, picked) == surj3.post(g, tuple(picked)) == [surj3.compose(g, f) for f in picked]
        hs = [h for h in ids if surj3.mor_dom[h] == surj3.mor_cod[g]]
        assert surj3.pre(hs, g) == [surj3.compose(h, g) for h in hs]
    cat = _missing_e_e()
    for fs in ([0, 1], (0, 1), [1], (1, 0)):
        with pytest.raises(CategoryError, match="1 and 1"):
            cat.post(1, fs)
    with pytest.raises(CategoryError, match="1 and 1"):
        cat.pre([0, 1], 1)


def _three_point_maps():
    # one object, so every pair composes: the 27 maps of a 3-point set, as
    # image tuples
    maps = list(itertools.product(range(3), repeat=3))
    compose = lambda gs, fs: [tuple(g[x] for x in f) for g in gs for f in fs]  # noqa: E731
    return concrete_category(["3"], lambda a, b: ((v, str(v)) for v in maps), compose, lambda a: (0, 1, 2))[0]


def test_row_and_column_reads_are_exact_for_any_sequence():
    cat = _three_point_maps()
    hom = cat.hom(0, 0)
    assert hom == range(27)
    # a run test such as last - first + 1 == len would read (3, 1, 5) as 3, 4, 5
    others = ((3, 1, 5), hom[::-1], (2, 2, 7), range(0), range(4, 4), range(5, 3), hom[1::2], range(3, 9))
    for g in (0, 5, 26):
        assert cat.post(g, hom) == cat.post(g, tuple(hom)) == cat.post(g, list(hom))
        assert cat.pre(hom, g) == cat.pre(tuple(hom), g) == cat.pre(list(hom), g)
        for ids in (hom, *others):
            assert cat.post(g, ids) == [cat.compose(g, f) for f in ids], ids
            assert cat.pre(ids, g) == [cat.compose(h, g) for h in ids], ids
