import pytest

from catramsey.core import CategoryError
from catramsey.essential import (
    EssentialQuery,
    crosscheck_essential_arrow,
    find_essential_at_B,
    _replay_essential,
)
from conftest import essential_exists_by_partitions, obj


def test_t_at_least_hom_ab_is_trivial(lo4):
    # the discrete coloring of hom(A, B) is always essential
    A, B, F = obj(lo4, "LO", 1), obj(lo4, "LO", 2), obj(lo4, "LO", 4)
    t = len(lo4.hom(A, B))
    lam = find_essential_at_B(lo4, EssentialQuery(A, B, F, t))
    assert lam is not None
    assert set(lam) == set(lo4.hom(A, B))
    assert max(lam.values()) < t


def test_ambient_equals_B(lo4):
    # w = id_B gives the discrete fiber partition, so essential iff
    # t >= |hom(A, B)|
    A, B = obj(lo4, "LO", 1), obj(lo4, "LO", 3)
    n = len(lo4.hom(A, B))
    assert find_essential_at_B(lo4, EssentialQuery(A, B, B, n)) is not None
    if n > 2:
        assert find_essential_at_B(lo4, EssentialQuery(A, B, B, n - 1)) is None


def test_agrees_with_partition_oracle(lo4, inj3):
    cells = [
        (lo4, obj(lo4, "LO", 1), obj(lo4, "LO", 2), obj(lo4, "LO", 3)),
        (lo4, obj(lo4, "LO", 2), obj(lo4, "LO", 3), obj(lo4, "LO", 4)),
        (inj3, obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3)),
        (inj3, obj(inj3, "Inj", 2), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3)),
    ]
    for cat, A, B, F in cells:
        for t in (2, 3):
            q = EssentialQuery(A, B, F, t)
            got = find_essential_at_B(cat, q) is not None
            want = essential_exists_by_partitions(cat, q)
            assert got == want, (cat.object_labels[A], cat.object_labels[B], t)


def test_returned_coloring_replays(inj3):
    q = EssentialQuery(obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3), 2)
    lam = find_essential_at_B(inj3, q)
    assert lam is not None
    # some w must realize the kernel containment
    assert any(
        _replay_essential(inj3, q, lam, w) for w in inj3.hom(q.B, q.ambient)
    )


def test_block_relabeling_is_still_essential(inj3):
    # essentiality depends on ker lambda only, so renaming colors preserves it
    q = EssentialQuery(obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3), 2)
    lam = find_essential_at_B(inj3, q)
    assert lam is not None
    swapped = {f: 1 - c for f, c in lam.items()}
    assert any(
        _replay_essential(inj3, q, swapped, w) for w in inj3.hom(q.B, q.ambient)
    )


def test_crosscheck_lo(lo6):
    A, B, F = obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6)
    r2 = crosscheck_essential_arrow(lo6, A, B, F, 2)
    assert r2["status"] == "ok"
    assert r2["essential_exists"] is False and r2["arrow_all_k"] is False
    assert r2["failing_k"] is not None
    r3 = crosscheck_essential_arrow(lo6, A, B, F, 3)
    assert r3["status"] == "ok"
    assert r3["essential_exists"] is True and r3["arrow_all_k"] is True


def test_crosscheck_inj(inj3):
    A, B, F = obj(inj3, "Inj", 1), obj(inj3, "Inj", 2), obj(inj3, "Inj", 3)
    for t in (2, 3):
        r = crosscheck_essential_arrow(inj3, A, B, F, t)
        assert r["status"] == "ok"


def test_preconditions(lo4):
    with pytest.raises(CategoryError):
        EssentialQuery(0, 1, 3, 1)  # t < 2
    # hom(A, B) empty: LO has no map from a larger to a smaller order
    with pytest.raises(CategoryError):
        find_essential_at_B(lo4, EssentialQuery(obj(lo4, "LO", 3), obj(lo4, "LO", 2), obj(lo4, "LO", 4), 2))
    # hom(B, ambient) empty
    with pytest.raises(CategoryError):
        find_essential_at_B(lo4, EssentialQuery(obj(lo4, "LO", 1), obj(lo4, "LO", 4), obj(lo4, "LO", 2), 2))


def test_partition_oracle_cap(lo6):
    # |hom(LO_2, LO_6)| = 15 > cap, the oracle must refuse rather than churn
    with pytest.raises(CategoryError):
        essential_exists_by_partitions(
            lo6, EssentialQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2)
        )
