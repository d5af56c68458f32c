import math

import pytest

from catramsey.core import CategoryError, validate
from catramsey.generators import UniverseSpec, generate, forgetful_LO_to_Inj
from conftest import obj


def test_spec_validation():
    with pytest.raises(CategoryError):
        UniverseSpec("LO", 0)
    with pytest.raises(CategoryError):
        UniverseSpec("LO", 8)
    with pytest.raises(CategoryError):
        UniverseSpec("Surj", 6)
    with pytest.raises(CategoryError):
        UniverseSpec("Inj", 7)
    with pytest.raises(CategoryError):
        UniverseSpec("Foo", 3)


def test_lo_hom_counts_are_binomials(lo6):
    for a in range(1, 7):
        for b in range(1, 7):
            got = len(lo6.hom(obj(lo6, "LO", a), obj(lo6, "LO", b)))
            assert got == math.comb(b, a)


def test_inj_hom_counts_are_falling_factorials(inj4):
    for a in range(1, 5):
        for b in range(1, 5):
            got = len(inj4.hom(obj(inj4, "Inj", a), obj(inj4, "Inj", b)))
            expected = math.perm(b, a) if a <= b else 0
            assert got == expected


def test_surj_hom_counts_by_inclusion_exclusion(surj3):
    def count(a, b):
        return sum((-1) ** j * math.comb(b, j) * (b - j) ** a for j in range(b + 1))

    for a in range(1, 4):
        for b in range(1, 4):
            got = len(surj3.hom(obj(surj3, "Surj", a), obj(surj3, "Surj", b)))
            assert got == (count(a, b) if a >= b else 0)
    assert len(surj3.hom(obj(surj3, "Surj", 3), obj(surj3, "Surj", 2))) == 6


def test_generated_categories_validate(lo4, inj3, surj3):
    for cat, mono in ((lo4, True), (inj3, True), (surj3, False)):
        report = validate(cat)
        assert report.ok
        assert report.all_mono == mono


def test_lo_directed(lo6):
    for a in range(lo6.n_objects):
        for b in range(lo6.n_objects):
            c = max(a, b)
            assert lo6.hom(a, c) and lo6.hom(b, c)


def test_forgetful_fibers():
    U = forgetful_LO_to_Inj(3)
    inj = U.downstairs
    assert len(U.fiber(obj(inj, "Inj", 1))) == 1
    assert len(U.fiber(obj(inj, "Inj", 2))) == 2
    assert len(U.fiber(obj(inj, "Inj", 3))) == 6
    assert U.validate_functor()["status"] == "ok"
    assert validate(U.upstairs).ok


def test_forgetful_over_the_morphism_cap_is_refused():
    # 40,635 upstairs morphisms: refused while numbering, before any composition
    with pytest.raises(CategoryError, match="cap"):
        forgetful_LO_to_Inj(5)


def test_forgetful_restriction_is_induced_order():
    # restricting an ordered 3-set along an injection from a 2-set must give
    # the order pulled back through the injection
    from catramsey.expansions import restrict, check_unique_restrictions

    U = forgetful_LO_to_Inj(3)
    inj = U.downstairs
    assert check_unique_restrictions(U)["status"] == "ok"
    a2 = obj(inj, "Inj", 2)
    for b_up in U.fiber(obj(inj, "Inj", 3)):
        order = U.upstairs.object_labels[b_up].split("_")[-1]
        pos = {int(v): i for i, v in enumerate(order)}
        for e in inj.hom(a2, obj(inj, "Inj", 3)):
            img = [int(x) for x in inj.mor_labels[e].split(",")]
            expected_order = "01" if pos[img[0]] < pos[img[1]] else "10"
            a_up = restrict(U, b_up, e)
            assert U.upstairs.object_labels[a_up].endswith("_" + expected_order)
