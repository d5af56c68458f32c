import gc
import itertools
import random
import sys
import weakref
from array import array
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from catramsey import arrows
from catramsey.arrows import (
    ArrowQuery,
    check_arrow,
    check_arrow_dual,
    check_arrow_native_dual,
)
from catramsey.core import CategoryError, FiniteCategory
from catramsey.degrees import degree_bounds
from catramsey.generators import UniverseSpec, generate
from catramsey.io import dumps_category, loads_category
from conftest import composition_table, obj, oracle_arrow


def test_classical_lo_instances(lo6):
    A, B = obj(lo6, "LO", 2), obj(lo6, "LO", 3)
    holds = check_arrow(lo6, ArrowQuery(A, B, obj(lo6, "LO", 6), 2, 1))
    assert holds.holds is True
    fails = check_arrow(lo6, ArrowQuery(A, B, obj(lo6, "LO", 5), 2, 1))
    assert fails.holds is False
    assert fails.witness is not None
    # replay independently: no w may see a single color
    color = dict(zip(fails.domain, fails.witness))
    for w in lo6.hom(B, obj(lo6, "LO", 5)):
        seen = {color[lo6.compose(w, f)] for f in lo6.hom(A, B)}
        assert len(seen) > 1


def test_pigeonhole_inj(inj3):
    v = check_arrow(inj3, ArrowQuery(obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3), 2, 1))
    assert v.holds is True


def test_t_at_least_k_always_holds(lo4):
    A, B = obj(lo4, "LO", 1), obj(lo4, "LO", 2)
    v = check_arrow(lo4, ArrowQuery(A, B, obj(lo4, "LO", 3), 2, 2))
    assert v.holds is True


def test_oracle_agreement_lo(lo4):
    for a, b, c in itertools.product(range(lo4.n_objects), repeat=3):
        for k, t in ((2, 1), (2, 2), (3, 2)):
            got = check_arrow(lo4, ArrowQuery(a, b, c, k, t))
            want, _ = oracle_arrow(lo4, a, b, c, k, t)
            assert got.holds == want, (a, b, c, k, t)


def test_oracle_agreement_inj(inj3):
    for a, b, c in itertools.product(range(inj3.n_objects), repeat=3):
        for k, t in ((2, 1), (2, 2)):
            for mode in ("morphism", "subobject"):
                got = check_arrow(inj3, ArrowQuery(a, b, c, k, t, mode))
                want, _ = oracle_arrow(inj3, a, b, c, k, t, mode)
                assert got.holds == want, (a, b, c, k, t, mode)


def test_oracle_agreement_surj(surj3):
    for a, b, c in itertools.product(range(surj3.n_objects), repeat=3):
        for k, t in ((2, 1), (2, 2)):
            got = check_arrow(surj3, ArrowQuery(a, b, c, k, t))
            want, _ = oracle_arrow(surj3, a, b, c, k, t)
            assert got.holds == want, (a, b, c, k, t)


def test_monotonicity_in_t_and_k(inj4):
    queries = [
        (a, b, c)
        for a, b, c in itertools.product(range(3), range(3), range(inj4.n_objects))
    ]
    for a, b, c in queries:
        previous = None
        for t in (1, 2, 3):
            v = check_arrow(inj4, ArrowQuery(a, b, c, 3, t))
            if previous is True:
                assert v.holds is True  # holds(k, t) implies holds(k, t+1)
            previous = v.holds
        fails_at_2 = check_arrow(inj4, ArrowQuery(a, b, c, 2, 1)).holds is False
        if fails_at_2:
            assert check_arrow(inj4, ArrowQuery(a, b, c, 3, 1)).holds is False


def test_vacuous_edges(inj3):
    a2, b3, c1 = obj(inj3, "Inj", 2), obj(inj3, "Inj", 3), obj(inj3, "Inj", 1)
    # hom(B, C) empty and the domain is >t-colorable: fails
    v = check_arrow(inj3, ArrowQuery(a2, b3, a2, 2, 1))
    assert v.holds is False
    # hom(B, C) and the domain both empty: holds
    v = check_arrow(inj3, ArrowQuery(a2, b3, c1, 2, 1))
    assert v.holds is True


def test_aut_rows_are_built_only_for_decisions_that_search(monkeypatch):
    # on a category no other test has queried, each route reads Aut(C) once
    # per (A, C), at the first decision on it that searches, from the
    # category it works in; vacuous and trivial exits never read it, nor
    # does a later search with another B, k or t
    inj3 = generate(UniverseSpec("Inj", 3))
    calls = []
    for cat in (inj3, inj3.opposite()):
        real = cat.automorphisms
        monkeypatch.setattr(cat, "automorphisms", lambda c, cat=cat, real=real: calls.append((cat, c)) or real(c))
    for route, reads in ((check_arrow, inj3), (check_arrow_dual, inj3.opposite()), (check_arrow_native_dual, inj3)):
        searches, exits = Counter(), 0
        triples = itertools.product(range(inj3.n_objects), repeat=3)
        for (a, b, c), (k, t) in itertools.product(triples, ((2, 1), (3, 1))):
            calls.clear()
            if route(inj3, ArrowQuery(a, b, c, k, t)).note:
                exits += 1
                assert calls == [], (route.__name__, a, b, c, k)
            else:
                searches[a, c] += 1
                assert calls == ([(reads, c)] if searches[a, c] == 1 else []), (route.__name__, a, b, c, k)
        assert exits and max(searches.values()) >= 2, route.__name__


def test_a_context_dies_with_its_category():
    # the contexts live on the category the route reads, each route's apart,
    # and hold nothing that keeps it alive
    surj4 = generate(UniverseSpec("Surj", 4))
    q = ArrowQuery(3, 3, 3, 2, 1)  # Aut(Surj_4) acting on itself: every route searches
    for route in (check_arrow, check_arrow_dual, check_arrow_native_dual):
        assert not route(surj4, q).note
    contexts = [*surj4._contexts.values(), *surj4.opposite()._contexts.values()]
    assert len(contexts) == 3 and all(ctx.rows is not None for ctx in contexts)
    refs = [weakref.ref(ctx) for ctx in contexts]
    del surj4, contexts
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def _fresh(cat: FiniteCategory) -> FiniteCategory:
    """A category with the tables of `cat` and no contexts, nor opposite."""
    morphisms = list(zip(cat.mor_dom, cat.mor_cod, cat.mor_labels))
    return FiniteCategory(cat.object_labels, morphisms, array("i", cat._table), cat.identities)


def _summary(v):
    return v.holds, v.witness, v.domain, v.nodes, v.note


@pytest.mark.parametrize(
    "family, asks",
    [
        ("Surj", [(check_arrow_dual, "morphism"), (check_arrow_native_dual, "morphism")]),
        ("Inj", [(check_arrow, "subobject"), (check_arrow, "morphism")]),
    ],
)
def test_a_verdict_does_not_depend_on_the_queries_before_it(family, asks):
    # every query, asked in shuffled order on one category whose contexts
    # fill up as it goes, answers as it does alone on a fresh category
    cat = generate(UniverseSpec(family, 4))
    triples = list(itertools.product(range(cat.n_objects), repeat=3))
    asks = [(route, ArrowQuery(a, b, c, 2, 1, mode)) for route, mode in asks for a, b, c in triples]
    random.Random(4).shuffle(asks)
    searches = Counter()
    for route, q in asks:
        got = route(cat, q)
        assert _summary(got) == _summary(route(_fresh(cat), q)), (route.__name__, q)
        searches[route, q.A, q.C, q.mode] += not got.note
    # some decisions searched on rows an earlier query built
    assert max(searches.values()) >= 2


def test_threads_sharing_a_category_get_the_verdicts_of_one_thread():
    # threads that race to build the same contexts, and the opposite, on
    # one category, switching as often as the interpreter allows
    surj4 = generate(UniverseSpec("Surj", 4))
    triples = list(itertools.product(range(surj4.n_objects), repeat=3))
    routes = (check_arrow_dual, check_arrow_native_dual)
    asks = [(route, ArrowQuery(a, b, c, 2, 1)) for route in routes for a, b, c in triples]
    alone = _fresh(surj4)
    want = {(route, q): _summary(route(alone, q)) for route, q in asks}

    def ask_all(seed):
        order = random.Random(seed).sample(asks, len(asks))
        return {(route, q): _summary(route(surj4, q)) for route, q in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(ask_all, seed) for seed in range(4)]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == want for got in results)


def test_subobject_mode_needs_mono(surj3):
    with pytest.raises(CategoryError):
        check_arrow(surj3, ArrowQuery(1, 1, 2, 2, 1, "subobject"))


def test_query_validation(lo4):
    with pytest.raises(CategoryError):
        ArrowQuery(0, 1, 2, 1, 1)
    with pytest.raises(CategoryError):
        ArrowQuery(0, 1, 2, 2, 0)
    with pytest.raises(CategoryError):
        ArrowQuery(0, 1, 2, 2, 1, "weird")


@pytest.mark.parametrize("k, t", [(2, 1.5), (2.5, 1), (True, 1), (2, True)], ids=["t-float", "k-float", "k-bool", "t-bool"])
def test_a_color_count_that_is_not_an_int_is_refused(k, t):
    # "at most 1.5 colors" is at most 1, where LO_6 fails (R(3,3) = 6): the
    # search must never see a k or t that is not an int
    with pytest.raises(CategoryError, match="must be ints"):
        ArrowQuery(1, 2, 4, k, t)


@pytest.mark.parametrize("A, B, C", [(1.5, 2, 4), (1, 2, 4.0), (1, True, 4)], ids=["A-float", "C-float", "B-bool"])
def test_an_object_id_that_is_not_an_int_is_refused(lo6, A, B, C):
    # an object that does not exist decides nothing, not even trivially
    with pytest.raises(CategoryError, match="unknown object id"):
        check_arrow(lo6, ArrowQuery(A, B, C, 2, 1))


def test_dual_route_equals_opposite_route(surj3):
    for a, b, c in itertools.product(range(surj3.n_objects), repeat=3):
        for t in (1, 2):
            q = ArrowQuery(a, b, c, 2, t)
            via_opposite = check_arrow_dual(surj3, q)
            native = check_arrow_native_dual(surj3, q)
            assert via_opposite.holds == native.holds
            assert via_opposite.witness == native.witness


def test_dual_route_on_shared_opposite_matches_fresh_opposite():
    surj4 = generate(UniverseSpec("Surj", 4))
    fresh = FiniteCategory(
        surj4.object_labels,
        [(surj4.mor_cod[i], surj4.mor_dom[i], surj4.mor_labels[i]) for i in range(surj4.n_morphisms)],
        composition_table(surj4.n_morphisms, {(f, g): gf for g, f, gf in surj4.compose_entries()}),
        surj4.identities,
    )
    queries = [(1, 1, 3, 1), (2, 2, 3, 1), (2, 3, 3, 1), (3, 3, 3, 1), (0, 1, 2, 1), (1, 2, 3, 2)]
    for a, b, c, t in queries:
        q = ArrowQuery(a, b, c, 2, t)
        shared = check_arrow_dual(surj4, q)
        direct = check_arrow(fresh, q)
        assert (shared.holds, shared.witness, shared.domain, shared.nodes) == (
            direct.holds,
            direct.witness,
            direct.domain,
            direct.nodes,
        )
    assert surj4.opposite() is surj4.opposite()


def test_lo_failure_same_via_both_dual_routes(lo6):
    # the opposite of LO reverses the failing instance; both routes agree
    A, B, C = obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 5)
    q = ArrowQuery(A, B, C, 2, 1)
    assert check_arrow_dual(lo6, q).holds == check_arrow_native_dual(lo6, q).holds


def test_mode_bridge_implication(inj3):
    # subobject verdict at t with k lifted implies morphism verdict at
    # t * |Aut(A)| with the same k
    a2 = obj(inj3, "Inj", 2)
    n_aut = len(inj3.automorphisms(a2))
    for b in range(inj3.n_objects):
        for c in range(inj3.n_objects):
            for k, t in ((2, 1), (2, 2)):
                sub = check_arrow(inj3, ArrowQuery(a2, b, c, k, t, "subobject"))
                if sub.holds is True:
                    mor = check_arrow(inj3, ArrowQuery(a2, b, c, k, t * n_aut))
                    assert mor.holds is True


def test_determinism_across_threads(lo6):
    A, B, C = obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 5)
    verdicts = [check_arrow(lo6, ArrowQuery(A, B, C, 2, 1), threads=th) for th in (1, 4, 8)]
    assert len({(v.holds, tuple(v.witness), v.nodes) for v in verdicts}) == 1


def test_budget_cap_gives_inconclusive(lo6):
    # a holding instance cannot be certified without exhausting the tree, so
    # a starved budget must come back inconclusive, never as a guess
    A, B, C = obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6)
    v = check_arrow(lo6, ArrowQuery(A, B, C, 2, 1), budget=0)
    assert v.holds is None
    assert "budget" in v.note


def test_ramsey_property_check(lo6, inj4):
    # degree 1 on a one-object B pool: the upper witness is the first C of the
    # universe with the k = 2, t = 1 arrow.  Universes are restricted to
    # objects receiving B, so holds cannot be vacuous
    def first_witness(cat, A, B, universe):
        bound = degree_bounds(cat, A, "morphism", 2, [B], universe)
        assert bound.upper == 1
        return bound.upper_witnesses[(B, 2)]

    A, B = obj(lo6, "LO", 2), obj(lo6, "LO", 3)
    universe = [c for c in range(lo6.n_objects) if lo6.hom(B, c)]
    assert first_witness(lo6, A, B, universe) == obj(lo6, "LO", 6)
    a1, b2 = obj(inj4, "Inj", 1), obj(inj4, "Inj", 2)
    universe = [c for c in range(inj4.n_objects) if inj4.hom(b2, c)]
    assert first_witness(inj4, a1, b2, universe) == obj(inj4, "Inj", 3)
    # a pair with a single endomorphism is its own witness
    l1 = obj(lo6, "LO", 1)
    assert first_witness(lo6, l1, l1, [l1]) == l1


@pytest.mark.parametrize("route", [check_arrow_native_dual, check_arrow_dual])
def test_witness_outside_range_k_fails_replay_on_both_dual_routes(route, monkeypatch):
    # a kernel whose witness colors lie outside range(k) must be caught by
    # each route's own replay, not returned as a failing verdict
    real = arrows.solve

    def shifted(problem, budget, threads):
        outcome = real(problem, budget=budget, threads=threads)
        if outcome.witness is not None:
            outcome.witness = [c + 5 for c in outcome.witness]
        return outcome

    surj4 = generate(UniverseSpec("Surj", 4))
    q = ArrowQuery(1, 1, 3, 2, 1)
    assert route(surj4, q).holds is False
    monkeypatch.setattr(arrows, "solve", shifted)
    with pytest.raises(RuntimeError, match="witness failed replay"):
        route(surj4, q)


def test_missing_composite_is_a_category_error_on_both_row_routes():
    # a file that lacks one cmp line inside hom(B, C) * hom(A, B): the row
    # reads must refuse the -1 cell, not index with it
    lo = generate(UniverseSpec("LO", 3))
    A, B, C = (obj(lo, "LO", s) for s in (1, 2, 3))
    g, f = lo.hom(B, C)[1], lo.hom(A, B)[0]
    cat = loads_category(dumps_category(lo).replace(f"cmp {g} {f} {lo.compose(g, f)}\n", ""))
    with pytest.raises(CategoryError, match=f"{g} and {f} are not composable"):
        check_arrow(cat, ArrowQuery(A, B, C, 2, 1))
    # in place, the dual query (C, B, A) composes hom(B, C) after hom(A, B)
    with pytest.raises(CategoryError, match=f"{g} and {f} are not composable"):
        check_arrow_native_dual(cat, ArrowQuery(C, B, A, 2, 1))


def _interleaved(cat):
    """`cat` renumbered so that no hom-set of two or more morphisms has
    consecutive ids: the first morphism of every hom-set, then the second,
    and so on.  Each hom-set keeps its order.  Returns it and each old id's
    new one."""
    rank = {}
    for (a, b), fs in cat._hom.items():
        rank.update({f: (i, a, b) for i, f in enumerate(fs)})
    order = sorted(range(cat.n_morphisms), key=rank.__getitem__)
    new = {f: i for i, f in enumerate(order)}
    morphisms = [(cat.mor_dom[f], cat.mor_cod[f], cat.mor_labels[f]) for f in order]
    table = composition_table(cat.n_morphisms, {(new[g], new[f]): new[gf] for g, f, gf in cat.compose_entries()})
    return FiniteCategory(cat.object_labels, morphisms, table, [new[e] for e in cat.identities]), new


def test_interleaved_hom_sets_give_the_verdicts_of_consecutive_ones():
    # hom-sets of consecutive ids are ranges, read by slices; the others are
    # tuples, read cell by cell
    surj4 = generate(UniverseSpec("Surj", 4))
    interleaved, new = _interleaved(surj4)
    consecutive, interleaved = (loads_category(dumps_category(cat)) for cat in (surj4, interleaved))
    assert all(type(fs) is range for fs in consecutive._hom.values())
    assert all(type(fs) is tuple for fs in interleaved._hom.values() if len(fs) > 1)
    searched = set()
    routes = (check_arrow, check_arrow_dual, check_arrow_native_dual)
    for route, (a, b, c), t in itertools.product(routes, itertools.product(range(surj4.n_objects), repeat=3), (1, 2)):
        want, got = (route(cat, ArrowQuery(a, b, c, 3, t)) for cat in (consecutive, interleaved))
        assert (got.holds, got.nodes, got.note) == (want.holds, want.nodes, want.note)
        assert got.domain == [new[f] for f in want.domain]
        assert got.witness == want.witness
        if want.witness is not None and want.nodes:
            searched.add((route, t))
    assert len(searched) == 6
