import hashlib
import json

import pytest

from catramsey import io as catio
from catramsey.cli import main
from catramsey.core import CategoryError, FiniteCategory
from catramsey.expansions import (
    ColoringExpansionSpec,
    ExpansionFunctor,
    build_coloring_expansion,
    check_directed,
    check_disjoint_union,
    check_expansion_property,
    check_precompact,
    check_reasonable,
    check_restriction_laws,
    check_separates_points,
    check_unique_restrictions,
    expected_fiber_size,
    restrict,
    verify_additivity,
    verify_ratio_formula,
)
from catramsey.generators import UniverseSpec, forgetful_LO_to_Inj, generate
from conftest import composition_table, matrix_coloring_expansion, obj, surj3_coloring_expansion


@pytest.fixture(scope="module")
def forgetful3():
    return forgetful_LO_to_Inj(3)


def _arrow_category():
    # downstairs X --e--> Y, identities included
    return FiniteCategory(
        ["X", "Y"],
        [(0, 0, "id_X"), (1, 1, "id_Y"), (0, 1, "e")],
        composition_table(3, {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}),
        [0, 1],
    )


def _functor_with_unlifted_edge():
    # two copies over X but e lifts from only one of them
    down = _arrow_category()
    up = FiniteCategory(
        ["X1", "X2", "Y1"],
        [(0, 0, "id"), (1, 1, "id"), (2, 2, "id"), (0, 2, "e1")],
        composition_table(4, {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (2, 3): 3}),
        [0, 1, 2],
    )
    return ExpansionFunctor(up, down, {0: 0, 1: 0, 2: 1}, {0: 0, 1: 0, 2: 1, 3: 2})


def _functor_with_duplicate_lift():
    # e lifts from both copies over X into the same target
    down = _arrow_category()
    up = FiniteCategory(
        ["X1", "X2", "Y1"],
        [(0, 0, "id"), (1, 1, "id"), (2, 2, "id"), (0, 2, "e1"), (1, 2, "e2")],
        composition_table(5, {(0, 0): 0, (1, 1): 1, (2, 2): 2, (3, 0): 3, (2, 3): 3, (4, 1): 4, (2, 4): 4}),
        [0, 1, 2],
    )
    return ExpansionFunctor(up, down, {0: 0, 1: 0, 2: 1}, {0: 0, 1: 0, 2: 1, 3: 2, 4: 2})


@pytest.mark.parametrize(
    "build, digest",
    [
        (lambda: forgetful_LO_to_Inj(2), "d8e74e2348a5aba8d2390e3cef2c7a6a3aa75f48d73c76a4d66a62c215bed376"),
        (lambda: forgetful_LO_to_Inj(3), "9839c58ae7687593fc2cfcf93318bd8210b24e4bbe874ce16013c34d484d44e5"),
        (lambda: forgetful_LO_to_Inj(4), "f26f59bf0001487ac969c424d7fc725a84b1158c937a02418b943206b66260dd"),
        (matrix_coloring_expansion, "88044fa8254fb232513a3bda5dec2bd5ab0e749ff625e0885dfa132ac45d8ba4"),
        (surj3_coloring_expansion, "06cd4ad2de8e031b613923a60e8c20032d39038034ae9c5ec0378b31ffeddc10"),
        (_functor_with_unlifted_edge, "46276400bbf6d61b67b78e3bb296dbe6c6757b7a708b986d1d45f0154a05cf20"),
        (_functor_with_duplicate_lift, "42b0608b9cd9d91d06600e17a9a530d4f35f2e6d245c5c96a9070abe9082ee7e"),
    ],
    ids=["forgetful_2", "forgetful_3", "forgetful_4", "coloring_inj_2", "coloring_surj_3",
         "unlifted_edge", "duplicate_lift"],
)
def test_expansion_check_report_is_pinned(build, digest, tmp_path, capsys):
    # every axiom check of `catramsey expansion check`, violations and
    # witnesses included, as sorted JSON
    path = tmp_path / "functor.txt"
    catio.dump_functor_file(build(), str(path))
    main(["expansion", "check", "--functor", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


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


def test_restrict_refuses_a_morphism_not_into_the_object():
    # hom(Inj_2, Inj_2) does not end at Inj_1, the image of the fiber object
    U = forgetful_LO_to_Inj(2)
    with pytest.raises(CategoryError, match="does not end at"):
        restrict(U, U.fiber(0)[0], U.downstairs.hom(1, 1)[0])


@pytest.mark.parametrize(
    "kind, up, down, message",
    [
        ("object", 0, None, "object_map has no entry for upstairs object 0"),
        ("morphism", 0, None, "morphism_map has no entry for upstairs morphism 0"),
        ("morphism", 1, 999, "morphism_map sends upstairs morphism 1 to unknown downstairs morphism 999"),
        ("object", 2, 7, "object_map sends upstairs object 2 to unknown downstairs object 7"),
        ("object", 9, 1, "object_map names unknown upstairs object 9"),
    ],
    ids=[
        "object_dropped",
        "morphism_dropped",
        "unknown_downstairs_morphism",
        "unknown_downstairs_object",
        "unknown_upstairs_object",
    ],
)
def test_partial_functor_map_is_refused_when_built(kind, up, down, message):
    # a map that misses an upstairs id (down None drops its entry), or names
    # an id outside its category, never reaches an index or a check
    U = forgetful_LO_to_Inj(2)
    maps = {"object": dict(U.object_map), "morphism": dict(U.morphism_map)}
    if down is None:
        del maps[kind][up]
    else:
        maps[kind][up] = down
    with pytest.raises(CategoryError, match=message):
        ExpansionFunctor(U.upstairs, U.downstairs, maps["object"], maps["morphism"])


@pytest.mark.parametrize(
    "drop_object, expected",
    [
        (True, ["object_map has no entry for upstairs object 0"]),
        (False, ["morphism_map has no entry for upstairs morphism 0"]),
    ],
)
def test_partial_functor_map_reported_without_lookup(forgetful3, drop_object, expected):
    # the refusal names the first fault, the missing id, before any index is
    # built; the unknown downstairs morphism 999 comes after it
    U = forgetful3
    object_map, morphism_map = dict(U.object_map), dict(U.morphism_map)
    if drop_object:
        del object_map[0]
    else:
        del morphism_map[0]
        morphism_map[1] = 999
    with pytest.raises(CategoryError) as err:
        ExpansionFunctor(U.upstairs, U.downstairs, object_map, morphism_map)
    assert [str(err.value)] == expected


@pytest.mark.parametrize(
    "index, drop, message",
    [
        ("fibers", "object", "upstairs object 0"),
        ("lifts", "morphism", "upstairs morphism 0"),
        ("lifts", "object", "upstairs object 0"),
        ("restrictions", "object", "upstairs object 0"),
    ],
)
def test_partial_functor_map_is_a_category_error_in_every_index(index, drop, message):
    # the total functor builds the index; a partial one never reaches it
    U = forgetful_LO_to_Inj(2)
    assert getattr(U, index)
    object_map, morphism_map = dict(U.object_map), dict(U.morphism_map)
    del (object_map if drop == "object" else morphism_map)[0]
    with pytest.raises(CategoryError, match=message):
        getattr(ExpansionFunctor(U.upstairs, U.downstairs, object_map, morphism_map), index)


def test_partial_object_map_is_a_category_error_in_the_axiom_checks():
    U = forgetful_LO_to_Inj(2)
    object_map = dict(U.object_map)
    del object_map[0]
    for check in (check_reasonable, check_unique_restrictions, check_restriction_laws,
                  check_disjoint_union, check_separates_points):
        with pytest.raises(CategoryError, match="upstairs object 0"):
            check(ExpansionFunctor(U.upstairs, U.downstairs, object_map, dict(U.morphism_map)))


def test_identity_expansion(lo4):
    objects, morphisms = range(lo4.n_objects), range(lo4.n_morphisms)
    U = ExpansionFunctor(lo4, lo4, dict(zip(objects, objects)), dict(zip(morphisms, morphisms)))
    assert U.validate_functor()["status"] == "ok"
    assert check_reasonable(U)["status"] == "ok"
    assert check_restriction_laws(U)["status"] == "ok"
    assert all(s == 1 for s in check_precompact(U)["fiber_sizes"].values())


def test_coloring_expansion_counts_and_axioms():
    base = generate(UniverseSpec("Inj", 2))
    a1 = obj(base, "Inj", 1)
    spec = ColoringExpansionSpec(base, ((a1, 2),))
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


def test_coloring_expansion_truncation_is_honest():
    # the 2-element base is too small to settle the expansion property
    base = generate(UniverseSpec("Inj", 2))
    a1 = obj(base, "Inj", 1)
    U = build_coloring_expansion(ColoringExpansionSpec(base, ((a1, 2),)))
    assert check_expansion_property(U)["status"] == "inconclusive"


def test_coloring_expansion_caps():
    base = generate(UniverseSpec("Inj", 3))
    a1 = obj(base, "Inj", 1)
    with pytest.raises(CategoryError):
        build_coloring_expansion(ColoringExpansionSpec(base, ((a1, 7),)))
    with pytest.raises(CategoryError):
        build_coloring_expansion(ColoringExpansionSpec(base, ((a1, 0),)))


def test_coloring_spec_derives_its_small_objects_and_refuses_a_repeat():
    base = generate(UniverseSpec("Inj", 2))
    a1, a2 = obj(base, "Inj", 1), obj(base, "Inj", 2)
    assert ColoringExpansionSpec(base, ((a2, 2), (a1, 1))).small_objects == (a2, a1)
    with pytest.raises(CategoryError, match=f"small object {a1} twice"):
        ColoringExpansionSpec(base, ((a1, 1), (a2, 2), (a1, 2)))
