import pytest
from hypothesis import given, settings, strategies as st

from catramsey.arrows import ArrowVerdict
from catramsey.core import CategoryError, one_object_category
from catramsey.degrees import (
    _ArrowMemo,
    default_pool,
    degree_bounds,
    dual_degree_bounds,
    verify_aut_bridge,
    verify_product,
)
from catramsey.generators import UniverseSpec, generate
from conftest import obj, oracle_degree_upper


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
        for mode in ("morphism", "subobject"):
            d = degree_bounds(cat, a, mode, 2, pool, pool)
            assert d.upper == oracle_degree_upper(cat, a, mode, 2, pool, pool)


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



cells = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(2, 3), st.integers(1, 3))


@given(
    outcomes=st.dictionaries(cells, st.sampled_from([True, False, None])),
    queries=st.lists(cells, max_size=40),
)
@settings(max_examples=150, deadline=None)
def test_arrow_memo_settles_like_a_full_scan(outcomes, queries):
    # scripted verdicts need not be monotone in t, so the test sees which
    # earlier entry settled a query; the reference scans the whole memo in
    # insertion order for the first entry of the same (B, C, k) that does
    calls = []

    def evaluate(cat, q, budget, threads):
        calls.append((q.B, q.C, q.k, q.t))
        return ArrowVerdict(outcomes.get((q.B, q.C, q.k, q.t)), None, [], 0)

    memo = _ArrowMemo(None, "morphism", evaluate, 0, 1)
    ref: dict = {}
    ref_calls = []
    for key in queries:
        B, C, k, t = key
        if key not in ref:
            for (b2, c2, k2, t2), h2 in ref.items():
                if (b2, c2, k2) == (B, C, k) and (h2 is True and t2 <= t or h2 is False and t2 >= t):
                    ref[key] = h2
                    break
            else:
                ref_calls.append(key)
                ref[key] = outcomes.get(key)
        assert memo.verdict(0, B, C, k, t).holds == ref[key]
    assert calls == ref_calls
