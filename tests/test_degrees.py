import itertools

import pytest
from hypothesis import given, settings, strategies as st

from catramsey.arrows import ArrowVerdict
from catramsey.core import MAX_MORPHISMS, CategoryError
from catramsey.degrees import (
    default_pool,
    degree_bounds,
    dual_degree_bounds,
    verify_aut_bridge,
    verify_product,
)
from catramsey.generators import UniverseSpec, generate
from conftest import obj, one_object_category, oracle_degree_lower, oracle_degree_upper


def test_lo_degree_is_one(lo6):
    A = obj(lo6, "LO", 2)
    d = degree_bounds(lo6, A, "morphism", 2, B_pool=[obj(lo6, "LO", 3)])
    assert (d.lower, d.upper) == (1, 1)
    assert d.tight
    assert d.scope == "universe-relative"


def test_inj_degrees(inj4):
    A2 = obj(inj4, "Inj", 2)
    dm = degree_bounds(inj4, A2, "morphism", 2)
    ds = degree_bounds(inj4, A2, "subobject", 2)
    assert (dm.lower, dm.upper) == (2, 2)
    assert (ds.lower, ds.upper) == (1, 1)
    # the lower-bound evidence names a (B, k) defeating every C at t = 1
    assert dm.lower_witness is not None
    assert dm.lower_witness["per_C"]


def test_degree_against_oracle(lo4, inj3):
    for cat, a in ((lo4, obj(lo4, "LO", 2)), (inj3, obj(inj3, "Inj", 2))):
        pool = default_pool(cat, a)
        for mode, k_max in itertools.product(("morphism", "subobject"), (2, 3)):
            d = degree_bounds(cat, a, mode, k_max, pool, pool)
            assert d.upper == oracle_degree_upper(cat, a, mode, k_max, pool, pool)
            assert d.lower == oracle_degree_lower(cat, a, mode, k_max, pool, pool)


def test_aut_bridge(inj4, lo6):
    A2 = obj(inj4, "Inj", 2)
    dm = degree_bounds(inj4, A2, "morphism", 2)
    ds = degree_bounds(inj4, A2, "subobject", 2)
    rep = verify_aut_bridge(inj4, A2, dm, ds)
    assert rep["status"] == "ok"
    assert rep["morphism_degree"] == 2 and rep["aut"] == 2 and rep["subobject_degree"] == 1
    # rigid objects: both modes agree
    for s in (1, 2, 3):
        A = obj(lo6, "LO", s)
        pool = [obj(lo6, "LO", s + 1)]
        dm = degree_bounds(lo6, A, "morphism", 2, B_pool=pool)
        ds = degree_bounds(lo6, A, "subobject", 2, B_pool=pool)
        rep = verify_aut_bridge(lo6, A, dm, ds)
        assert rep["status"] == "ok"
        assert rep["morphism_degree"] == rep["subobject_degree"]


def test_aut_bridge_inj_1set(inj3):
    A1 = obj(inj3, "Inj", 1)
    dm = degree_bounds(inj3, A1, "morphism", 2)
    ds = degree_bounds(inj3, A1, "subobject", 2)
    rep = verify_aut_bridge(inj3, A1, dm, ds)
    assert rep["status"] == "ok"
    assert rep["morphism_degree"] == 1


def test_aut_lower_bound_corollary(inj4, inj3):
    # tight morphism-mode degree is at least |Aut(A)|, wherever the bound is
    # within reach: the upper scan is capped at k_max, so only objects with
    # |Aut(A)| <= k_max can witness the inequality in a truncation
    for cat in (inj4, inj3):
        for a in range(cat.n_objects):
            n_aut = len(cat.automorphisms(a))
            if n_aut > 2:
                continue
            d = degree_bounds(cat, a, "morphism", 2)
            if d.tight:
                assert d.upper >= n_aut


def test_aut_bridge_out_of_reach_is_inconclusive(inj4):
    # a 3-set has six automorphisms; with k_max = 2 no bound can reach six,
    # so the bridge must refuse to judge rather than report a violation
    A3 = obj(inj4, "Inj", 3)
    dm = degree_bounds(inj4, A3, "morphism", 2)
    ds = degree_bounds(inj4, A3, "subobject", 2)
    rep = verify_aut_bridge(inj4, A3, dm, ds)
    assert rep["status"] == "inconclusive"
    assert rep["aut"] == 6


def test_not_tight_reported_inconclusive(inj4):
    A2 = obj(inj4, "Inj", 2)
    d = degree_bounds(inj4, A2, "morphism", 2)
    loose = degree_bounds(inj4, A2, "subobject", 2)
    loose.lower = None
    rep = verify_aut_bridge(inj4, A2, d, loose)
    assert rep["status"] == "inconclusive"


def test_universe_growth_never_raises_upper():
    small = generate(UniverseSpec("Inj", 3))
    large = generate(UniverseSpec("Inj", 4))
    a2s, a2l = obj(small, "Inj", 2), obj(large, "Inj", 2)
    for mode in ("morphism", "subobject"):
        ds = degree_bounds(small, a2s, mode, 2, B_pool=[obj(small, "Inj", 2)])
        dl = degree_bounds(large, a2l, mode, 2, B_pool=[obj(large, "Inj", 2)])
        assert dl.upper <= ds.upper


def test_product_theorem(inj4):
    lo2 = generate(UniverseSpec("LO", 2))
    rep = verify_product(inj4, lo2, obj(inj4, "Inj", 2), obj(lo2, "LO", 1))
    assert rep["status"] == "ok"
    assert rep["factor_degrees"] == [2, 1]
    assert rep["product_degree_upper"] <= rep["bound"] == 2


def test_product_lo_lo_unit_instance():
    lo2 = generate(UniverseSpec("LO", 2))
    rep = verify_product(lo2, lo2, obj(lo2, "LO", 1), obj(lo2, "LO", 1))
    assert rep["status"] == "ok"
    assert rep["bound"] == 1
    assert rep["product_degree_upper"] == 1


def test_product_with_unit_category(inj4):
    unit = one_object_category()
    rep = verify_product(inj4, unit, obj(inj4, "Inj", 2), 0)
    assert rep["status"] == "ok"
    assert rep["product_degree_upper"] == 2
    assert rep["bound"] == 2


def test_dual_routes_agree(surj3):
    for a in range(surj3.n_objects):
        via_opposite = dual_degree_bounds(surj3, a, route="opposite")
        native = dual_degree_bounds(surj3, a, route="native")
        assert via_opposite.B_pool == native.B_pool
        assert (via_opposite.lower, via_opposite.upper) == (native.lower, native.upper)


def test_dual_of_self_dual_unit():
    unit = one_object_category()
    d = degree_bounds(unit, 0, "morphism", 2)
    dd = dual_degree_bounds(unit, 0, route="opposite")
    assert (d.lower, d.upper) == (dd.lower, dd.upper) == (1, 1)


def test_empty_pool_rejected(inj4):
    with pytest.raises(CategoryError):
        degree_bounds(inj4, 0, "morphism", 2, B_pool=[])


def test_k_max_is_bounded_by_the_largest_domain():
    # no domain has more than MAX_MORPHISMS items, so more colours only
    # repeat a verdict while the scan and its witness map keep growing
    unit = one_object_category()
    d = degree_bounds(unit, 0, "morphism", MAX_MORPHISMS)
    assert (d.upper, len(d.upper_witnesses)) == (1, MAX_MORPHISMS - 1)
    with pytest.raises(CategoryError, match="k_max"):
        degree_bounds(unit, 0, "morphism", MAX_MORPHISMS + 1)



cells = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(2, 3), st.integers(1, 3))


@given(
    outcomes=st.dictionaries(cells, st.sampled_from([True, False, None])),
    B_pool=st.lists(st.integers(0, 2), min_size=1, max_size=4),
    C_universe=st.lists(st.integers(0, 2), min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_degree_scan_evaluates_each_cell_once(outcomes, B_pool, C_universe):
    # scripted verdicts need not be monotone in t, and the pools may repeat
    # objects; a cell is never asked twice, and never once its (B, C, k) held
    calls = []

    def evaluate(cat, q, budget, threads):
        calls.append((q.B, q.C, q.k, q.t))
        holds = outcomes.get((q.B, q.C, q.k, q.t), False)
        return ArrowVerdict(holds, [q.t] if holds is False else None, [q.C], 0)

    d = degree_bounds(one_object_category(), 0, "morphism", 3, B_pool, C_universe, evaluator=evaluate)
    assert len(calls) == len(set(calls))
    held = {(B, C, k, t) for (B, C, k, t) in calls if outcomes.get((B, C, k, t)) is True}
    for B, C, k, t in calls:
        assert not any((B, C, k) == (b, c, kk) and t2 < t for b, c, kk, t2 in held)
    if d.upper is not None:
        assert d.lower == d.upper
        # every (B, k) has a C that held at the upper bound or below
        for (B, k), C in d.upper_witnesses.items():
            assert any((B, C, k, t) in held for t in range(1, d.upper + 1))
    if d.lower_witness is not None:
        # the evidence defeats every C at lower - 1, each by its own coloring
        w = d.lower_witness
        assert set(w["per_C"]) == set(C_universe)
        for C, coloring in w["per_C"].items():
            assert (w["B"], C, w["k"], d.lower - 1) in calls
            assert coloring == {C: d.lower - 1}
    else:
        assert d.lower in (1, None)
