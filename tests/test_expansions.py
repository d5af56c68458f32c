import pytest

from catramsey.core import CategoryError, FiniteCategory
from catramsey.expansions import (
    ColoringExpansionSpec,
    ExpansionFunctor,
    aut_decomposition,
    build_coloring_expansion,
    check_directed,
    check_disjoint_union,
    check_expansion_property,
    check_min_expansions,
    check_precompact,
    check_reasonable,
    check_restriction_laws,
    check_separates_points,
    check_unique_restrictions,
    expected_fiber_size,
    identity_expansion,
    restrict,
    verify_additivity,
    verify_ratio_formula,
)
from catramsey.generators import UniverseSpec, forgetful_LO_to_Inj, generate
from conftest import obj


@pytest.fixture(scope="module")
def forgetful3():
    return forgetful_LO_to_Inj(3)


def _arrow_category():
    # downstairs X --e--> Y, identities included
    return FiniteCategory(
        ["X", "Y"],
        [(0, 0, "id_X"), (1, 1, "id_Y"), (0, 1, "e")],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2},
        [0, 1],
    )


def _functor_with_unlifted_edge():
    # two copies over X but e lifts from only one of them
    down = _arrow_category()
    up = FiniteCategory(
        ["X1", "X2", "Y1"],
        [(0, 0, "id"), (1, 1, "id"), (2, 2, "id"), (0, 2, "e1")],
        {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (2, 3): 3},
        [0, 1, 2],
    )
    return ExpansionFunctor(up, down, {0: 0, 1: 0, 2: 1}, {0: 0, 1: 0, 2: 1, 3: 2})


def _functor_with_duplicate_lift():
    # e lifts from both copies over X into the same target
    down = _arrow_category()
    up = FiniteCategory(
        ["X1", "X2", "Y1"],
        [(0, 0, "id"), (1, 1, "id"), (2, 2, "id"), (0, 2, "e1"), (1, 2, "e2")],
        {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (2, 3): 3, (4, 1): 4, (2, 4): 4},
        [0, 1, 2],
    )
    return ExpansionFunctor(up, down, {0: 0, 1: 0, 2: 1}, {0: 0, 1: 0, 2: 1, 3: 2, 4: 2})


def test_forgetful_axioms(forgetful3):
    U = forgetful3
    assert U.validate_functor()["status"] == "ok"
    assert check_reasonable(U)["status"] == "ok"
    assert check_unique_restrictions(U)["status"] == "ok"
    assert check_separates_points(U)["status"] == "ok"
    sizes = check_precompact(U)["fiber_sizes"]
    # the fiber over an n-set holds one object per linear order of it
    import math
    for a in range(U.downstairs.n_objects):
        n = int(U.downstairs.object_labels[a].rsplit("_", 1)[1])
        assert sizes[a] == math.factorial(n)


def test_forgetful_restriction_laws(forgetful3):
    assert check_restriction_laws(forgetful3)["status"] == "ok"
    assert check_disjoint_union(forgetful3)["status"] == "ok"


def test_forgetful_expansion_property(forgetful3):
    rep = check_expansion_property(forgetful3)
    assert rep["status"] == "ok"
    assert rep["holds"] is True
    assert rep["routes_agree"]
    assert check_directed(forgetful3.upstairs)["status"] == "ok"


def test_aut_decomposition(forgetful3):
    U = forgetful3
    a2 = obj(U.downstairs, "Inj", 2)
    rep = aut_decomposition(U, a2)
    assert rep["status"] == "ok"
    assert rep["aut_down"] == 2
    # linear orders are rigid; both fiber objects lie in one iso class
    for entry in rep["entries"]:
        assert entry["aut_up"] == 1
        assert entry["iso_class_size"] == 2


def test_additivity(forgetful3):
    U = forgetful3
    down = U.downstairs
    a2, a3 = obj(down, "Inj", 2), obj(down, "Inj", 3)
    rep = verify_additivity(U, a2, 2, B_pool_down=[a2], C_universe_down=[a2, a3])
    assert rep["status"] == "ok"
    assert rep["downstairs_degree"] == 2
    assert sorted(rep["fiber_degrees"].values()) == [1, 1]
    assert rep["sum"] == 2
    assert rep["equality_expected"] is True
    assert rep["equality"] is True


def test_ratio_formula(forgetful3):
    U = forgetful3
    down = U.downstairs
    a2, a3 = obj(down, "Inj", 2), obj(down, "Inj", 3)
    rep = verify_ratio_formula(U, a2, 2, B_pool_down=[a2], C_universe_down=[a2, a3])
    assert rep["status"] == "ok"
    assert rep["downstairs_subobject_degree"] == 1
    assert rep["weighted_sum_over_aut"] == rep["aut_down"] * 1 == 2
    assert rep["representative_sum"] == 1
    assert len(rep["iso_class_representatives"]) == 1


def test_unlifted_edge_breaks_reasonable():
    U = _functor_with_unlifted_edge()
    assert U.validate_functor()["status"] == "ok"
    rep = check_reasonable(U)
    assert rep["status"] == "violation"
    assert any(v["A_up"] == 1 for v in rep["violations"])
    # the lift that does exist is still a unique restriction
    assert check_unique_restrictions(U)["status"] == "ok"


def test_duplicate_lift_breaks_uniqueness():
    U = _functor_with_duplicate_lift()
    assert U.validate_functor()["status"] == "ok"
    rep = check_unique_restrictions(U)
    assert rep["status"] == "violation"
    assert any(len(v["sources"]) == 2 for v in rep["violations"])
    # the same double counting shows up as an overlap in the hom-set union
    assert check_disjoint_union(U)["status"] == "violation"
    # downstream checks refuse rather than guess
    assert check_separates_points(U)["status"] == "violation"
    with pytest.raises(CategoryError):
        restrict(U, 2, 2)
    rep = verify_additivity(U, 0)
    assert rep["status"] == "violation"
    assert rep["reason"] == "hypotheses fail"


@pytest.mark.parametrize(
    "drop_object, expected",
    [
        (True, ["object_map not total"]),
        (False, ["morphism_map not total", "morphism_map names an unknown downstairs id"]),
    ],
)
def test_partial_functor_map_reported_without_lookup(forgetful3, drop_object, expected):
    U = forgetful3
    object_map, morphism_map = dict(U.object_map), dict(U.morphism_map)
    if drop_object:
        del object_map[0]
    else:
        del morphism_map[0]
        morphism_map[1] = 999
    rep = ExpansionFunctor(U.upstairs, U.downstairs, object_map, morphism_map).validate_functor()
    assert rep == {"status": "violation", "problems": expected}


def test_identity_expansion(lo4):
    U = identity_expansion(lo4)
    assert U.validate_functor()["status"] == "ok"
    assert check_reasonable(U)["status"] == "ok"
    assert check_restriction_laws(U)["status"] == "ok"
    assert all(s == 1 for s in check_precompact(U)["fiber_sizes"].values())
    for a in range(lo4.n_objects):
        assert aut_decomposition(U, a)["status"] == "ok"


def test_coloring_expansion_counts_and_axioms():
    base = generate(UniverseSpec("Inj", 2))
    a1 = obj(base, "Inj", 1)
    spec = ColoringExpansionSpec(base, (a1,), ((a1, 2),))
    U = build_coloring_expansion(spec)
    assert U.validate_functor()["status"] == "ok"
    for c in range(base.n_objects):
        want = 2 ** len(base.hom(a1, c))
        assert len(U.fiber(c)) == want == expected_fiber_size(spec, c)
    assert check_reasonable(U)["status"] == "ok"
    assert check_unique_restrictions(U)["status"] == "ok"
    assert check_separates_points(U)["status"] == "ok"
    assert check_restriction_laws(U)["status"] == "ok"
    assert check_disjoint_union(U)["status"] == "ok"


def test_coloring_expansion_min_expansions():
    base = generate(UniverseSpec("Inj", 2))
    a1 = obj(base, "Inj", 1)
    U = build_coloring_expansion(ColoringExpansionSpec(base, (a1,), ((a1, 2),)))
    rep = check_min_expansions(U, a1)
    assert rep["status"] == "ok"
    assert rep["ambients"]
    for entry in rep["ambients"]:
        assert entry["distinct_restrictions"] >= entry["required"] == 2


def test_coloring_expansion_truncation_is_honest():
    # the 2-element base is too small to settle the expansion property
    base = generate(UniverseSpec("Inj", 2))
    a1 = obj(base, "Inj", 1)
    U = build_coloring_expansion(ColoringExpansionSpec(base, (a1,), ((a1, 2),)))
    assert check_expansion_property(U)["status"] == "inconclusive"


def test_coloring_expansion_caps():
    base = generate(UniverseSpec("Inj", 3))
    a1 = obj(base, "Inj", 1)
    with pytest.raises(CategoryError):
        build_coloring_expansion(ColoringExpansionSpec(base, (a1,), ((a1, 7),)))
    with pytest.raises(CategoryError):
        ColoringExpansionSpec(base, (a1,), ((a1, 0),))
        build_coloring_expansion(ColoringExpansionSpec(base, (a1,), ((a1, 0),)))


def test_min_expansions_requires_coloring_expansion(forgetful3):
    rep = check_min_expansions(forgetful3, 0)
    assert rep["status"] == "inconclusive"
