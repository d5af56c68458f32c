"""Random small concrete categories against the definition-level oracle of
conftest.py.  Every family the other tests use is all-mono or all-epi, with a
trivial or full symmetric Aut(C); these categories mix mono, epi and neither,
give partial Aut(C) groups (so repeated and identity rows in a search's
layout) and empty hom-sets."""

import itertools

import pytest
from hypothesis import given, note, settings, strategies as st

from catramsey.arrows import ArrowQuery, check_arrow, check_arrow_dual, check_arrow_native_dual
from catramsey.core import FiniteCategory, validate
from catramsey.degrees import degree_bounds
from catramsey.essential import EssentialQuery, find_essential_at_B
from catramsey.io import dumps_category
from conftest import (ArrowDefinition, composition_table, essential_exists_by_partitions, is_category_by_definition,
                      iso_by_double_loop, random_categories)

# the oracle enumerates k ** |hom(A, C)| colorings
HOM_CAP = 9
KT = ((2, 1), (3, 1), (3, 2))
RANDOM = settings(max_examples=80, deadline=None, derandomize=True)


def queries(cat: FiniteCategory, mode: str = "morphism"):
    """Every (A, B, C, k, t) with |hom(A, C)| at most HOM_CAP."""
    for A, B, C in itertools.product(range(cat.n_objects), repeat=3):
        if len(cat.hom(A, C)) <= HOM_CAP:
            for k, t in KT:
                yield ArrowQuery(A, B, C, k, t, mode)


@RANDOM
@given(random_categories())
def test_iso_matches_the_double_loop(cat):
    # partial automorphism groups, isos between distinct objects and empty
    # hom-sets, in the category and its opposite
    for c in (cat, cat.opposite()):
        for a, b in itertools.product(range(c.n_objects), repeat=2):
            assert c.iso(a, b) == iso_by_double_loop(c, a, b), (a, b)


@RANDOM
@given(random_categories())
def test_dual_routes_agree(cat):
    # the queries whose colored domain, hom(C, A) here, is small
    for q in queries(cat.opposite()):
        via_opposite, native = check_arrow_dual(cat, q), check_arrow_native_dual(cat, q)
        assert (via_opposite.holds, via_opposite.witness) == (native.holds, native.witness), q


@RANDOM
@given(random_categories())
def test_check_arrow_follows_the_definition_where_B_maps_to_C(cat):
    # in both modes, subobject mode on the all-mono draws; a failing verdict's
    # witness must defeat every w as the definition reads it
    for mode in ("morphism", "subobject") if cat.all_mono else ("morphism",):
        for q in queries(cat, mode):
            if cat.hom(q.B, q.C):
                definition = ArrowDefinition(cat, q.A, q.B, q.C, mode)
                verdict = check_arrow(cat, q)
                assert verdict.holds == definition.holds(q.k, q.t), q
                if not verdict.holds:
                    colors = definition.colors_of(verdict.domain, verdict.witness)
                    assert colors is not None and set(colors) <= set(range(q.k)), q
                    assert definition.defeats(colors, q.t), q


@RANDOM
@given(cat=random_categories(), data=st.data())
def test_validate_flags_a_tampered_table(cat, data):
    # one composite g*f replaced by another morphism of its hom-set: validate
    # says what the axioms checked cell by cell say, and a cell that an
    # identity composes is always a fault
    assert validate(cat).ok and is_category_by_definition(cat)
    cells = [(g, f, gf) for g, f, gf in cat.compose_entries() if len(cat.hom(cat.mor_dom[f], cat.mor_cod[g])) > 1]
    if not cells:
        return
    g, f, gf = data.draw(st.sampled_from(cells))
    entries = {(x, y): xy for x, y, xy in cat.compose_entries()}
    entries[g, f] = data.draw(st.sampled_from([h for h in cat.hom(cat.mor_dom[f], cat.mor_cod[g]) if h != gf]))
    morphisms = list(zip(cat.mor_dom, cat.mor_cod, cat.mor_labels))
    tampered = FiniteCategory(cat.object_labels, morphisms, composition_table(cat.n_morphisms, entries), cat.identities)
    report = validate(tampered)
    assert report.ok == is_category_by_definition(tampered)
    if g in cat.identities or f in cat.identities:
        assert not report.ok


# the partition oracle enumerates the kernels of every coloring of hom(A, ambient)
ESSENTIAL_HOM_CAP = 6


@RANDOM
@given(random_categories())
def test_essential_colorings_follow_the_definition(cat):
    # the scan over w finds an essential t-coloring of hom(A, B) exactly when
    # the definition, read through partitions, says that one exists
    for A, B, ambient in itertools.product(range(cat.n_objects), repeat=3):
        hom_ab, hom_af = cat.hom(A, B), cat.hom(A, ambient)
        if hom_ab and cat.hom(B, ambient) and len(hom_ab) <= ESSENTIAL_HOM_CAP and len(hom_af) <= ESSENTIAL_HOM_CAP:
            for t in (2, 3):
                q = EssentialQuery(A, B, ambient, t)
                assert (find_essential_at_B(cat, q) is not None) == essential_exists_by_partitions(cat, q), q


# ROADMAP item 1: with no w in hom(B, C), the definition fails for every
# coloring, but check_arrow holds whenever at most t colors can occur
ITEM_1 = "ROADMAP item 1 (a): vacuous decisions hold where the definition fails"


@pytest.mark.xfail(strict=True, reason=ITEM_1)
@RANDOM
@given(random_categories())
def test_vacuous_arrows_follow_the_definition(cat):
    note(dumps_category(cat))
    for q in queries(cat):
        if not cat.hom(q.B, q.C):
            assert check_arrow(cat, q).holds == ArrowDefinition(cat, q.A, q.B, q.C).holds(q.k, q.t), q


@pytest.mark.xfail(strict=True, reason=ITEM_1)
@RANDOM
@given(random_categories())
def test_degree_bounds_match_the_least_t_by_brute_force(cat):
    # upper bound: over every (B, k), the least t at which some C of the
    # universe has the arrow, None when some (B, k) has no such t
    note(dumps_category(cat))
    k_max = 2
    for A in range(cat.n_objects):
        universe = [C for C in range(cat.n_objects) if len(cat.hom(A, C)) <= HOM_CAP]
        pool = [B for B in range(cat.n_objects) if cat.hom(A, B)]
        if not universe:
            continue
        definitions = {(B, C): ArrowDefinition(cat, A, B, C) for B in pool for C in universe}
        least = [
            next((t for t in range(1, k_max + 1) if any(definitions[B, C].holds(k, t) for C in universe)), None)
            for B, k in itertools.product(pool, range(2, k_max + 1))
        ]
        expected = None if None in least else max(least)
        assert degree_bounds(cat, A, k_max=k_max, B_pool=pool, C_universe=universe).upper == expected, A
