"""Acceptance gate: the ten headline checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py`; each test reports one
pass/fail line.  Every expected value here was frozen from an independent
brute-force oracle or from a hand computation recorded in the test body.
"""

import time

import pytest

from catramsey.arrows import ArrowQuery, check_arrow
from catramsey.core import one_object_category
from catramsey.degrees import degree_bounds, verify_aut_bridge, verify_product
from catramsey.essential import crosscheck_essential_arrow
from catramsey.expansions import (
    ColoringExpansionSpec,
    build_coloring_expansion,
    check_disjoint_union,
    check_precompact,
    check_reasonable,
    check_restriction_laws,
    check_separates_points,
    check_unique_restrictions,
    expected_fiber_size,
    verify_additivity,
    verify_ratio_formula,
)
from catramsey.generators import UniverseSpec, forgetful_LO_to_Inj, generate
from catramsey.matrix import run_matrix
from conftest import obj


@pytest.fixture(scope="module")
def matrix_reports():
    return {th: run_matrix(threads=th) for th in (1, 4, 8)}


def test_01_classical_arrow_pair(lo6):
    # LO_6 -> (LO_3)^{LO_2}_{2,1} holds; LO_5 fails with a replayable witness
    A, B = obj(lo6, "LO", 2), obj(lo6, "LO", 3)
    t0 = time.monotonic()
    holds = check_arrow(lo6, ArrowQuery(A, B, obj(lo6, "LO", 6), 2, 1))
    fails = check_arrow(lo6, ArrowQuery(A, B, obj(lo6, "LO", 5), 2, 1))
    elapsed = time.monotonic() - t0
    assert holds.holds is True
    assert fails.holds is False and fails.witness is not None
    color = dict(zip(fails.domain, fails.witness))
    for w in lo6.hom(B, obj(lo6, "LO", 5)):
        assert len({color[lo6.compose(w, f)] for f in lo6.hom(A, B)}) > 1
    assert elapsed < 60


def test_02_aut_degree_bridge(inj4):
    # Inj truncation max 4, A = 2-set: morphism degree 2, subobject degree 1,
    # |Aut| = 2, and 2 = 2 * 1 exactly
    A2 = obj(inj4, "Inj", 2)
    dm = degree_bounds(inj4, A2, "morphism", 2)
    ds = degree_bounds(inj4, A2, "subobject", 2)
    assert (dm.lower, dm.upper) == (2, 2) and dm.tight
    assert (ds.lower, ds.upper) == (1, 1) and ds.tight
    rep = verify_aut_bridge(inj4, A2, dm, ds)
    assert rep["status"] == "ok"
    assert rep["morphism_degree"] == rep["aut"] * rep["subobject_degree"] == 2


def test_03_expansion_additivity():
    # order-forgetting functor, A = 2-set: downstairs degree 2 equals the sum
    # of the two fiber degrees 1 + 1, with all hypotheses verified first
    U = forgetful_LO_to_Inj(3)
    down = U.downstairs
    a2, a3 = obj(down, "Inj", 2), obj(down, "Inj", 3)
    rep = verify_additivity(U, a2, 2, B_pool_down=[a2], C_universe_down=[a2, a3])
    assert rep["status"] == "ok"
    assert all(rep["hypotheses"][h] == "ok" for h in rep["hypotheses"])
    assert rep["downstairs_degree"] == 2
    assert sorted(rep["fiber_degrees"].values()) == [1, 1]
    assert rep["equality"] is True and rep["equality_expected"] is True


def test_04_ratio_formula():
    # same instance, subobject mode: downstairs degree 1 equals the sum over
    # one representative per upstairs isomorphism class
    U = forgetful_LO_to_Inj(3)
    down = U.downstairs
    a2, a3 = obj(down, "Inj", 2), obj(down, "Inj", 3)
    rep = verify_ratio_formula(U, a2, 2, B_pool_down=[a2], C_universe_down=[a2, a3])
    assert rep["status"] == "ok"
    assert rep["downstairs_subobject_degree"] == rep["representative_sum"] == 1


def test_05_product_bound(inj4, matrix_reports):
    # product degree <= product of factor degrees; exact on the unit case;
    # the inequality also holds in the consolidated matrix cell
    lo2 = generate(UniverseSpec("LO", 2))
    rep = verify_product(inj4, lo2, obj(inj4, "Inj", 2), obj(lo2, "LO", 1))
    assert rep["status"] == "ok"
    assert rep["product_degree_upper"] <= rep["bound"] == 2
    unit = verify_product(inj4, one_object_category(), obj(inj4, "Inj", 2), 0)
    assert unit["status"] == "ok" and unit["equality"] is True
    cell = matrix_reports[1].report["cells"]["product_inj2_lo1"]
    assert cell["status"] == "ok"
    assert cell["product_degree_upper"] <= cell["bound"]


def test_06_dual_routes_bit_identical(matrix_reports):
    # every verdict through the native reversed-arrow route equals the
    # opposite-category route across the full Surj <= 3 matrix
    cell = matrix_reports[1].report["cells"]["dual_routes_surj"]
    assert cell["status"] == "ok"
    assert cell["checked"] > 0
    assert cell["mismatches"] == []


def test_07_essential_arrow_equivalence(lo6, inj3):
    # essential-coloring existence agrees with the arrow relation on every
    # (A, B, ambient, t) cell with nonempty hom-sets, ambient the top object
    cells = 0
    for cat in (lo6, inj3):
        top = cat.n_objects - 1
        for A in range(cat.n_objects):
            for B in range(cat.n_objects):
                if not cat.hom(A, B) or not cat.hom(B, top):
                    continue
                for t in (2, 3):
                    rep = crosscheck_essential_arrow(cat, A, B, top, t)
                    assert rep["status"] == "ok", (A, B, t, rep)
                    cells += 1
    assert cells == 54


def test_08_coloring_expansion_axioms():
    # the pair category (C, theta) over Inj max 2 passes all four axiom
    # checks and its fiber sizes match the product counting formula
    base = generate(UniverseSpec("Inj", 2))
    a1, a2 = obj(base, "Inj", 1), obj(base, "Inj", 2)
    spec = ColoringExpansionSpec(base, ((a1, 1), (a2, 2)))
    U = build_coloring_expansion(spec)
    assert check_reasonable(U)["status"] == "ok"
    assert check_unique_restrictions(U)["status"] == "ok"
    assert check_separates_points(U)["status"] == "ok"
    sizes = check_precompact(U)["fiber_sizes"]
    for c in range(base.n_objects):
        assert sizes[c] == expected_fiber_size(spec, c)


def test_09_restriction_calculus():
    # identity, composition and iso-transport laws plus the hom-set
    # disjoint-union decomposition, exhaustively on the forgetful functor
    U = forgetful_LO_to_Inj(3)
    assert check_restriction_laws(U)["status"] == "ok"
    assert check_disjoint_union(U)["status"] == "ok"


def test_10_matrix_determinism(matrix_reports):
    # the canonical matrix report is byte-identical across thread counts
    blobs = {th: rep.canonical_json() for th, rep in matrix_reports.items()}
    assert blobs[1] == blobs[4] == blobs[8]
    assert matrix_reports[1].status == "ok"
