"""Shared fixtures and independent brute-force oracles.

The oracles re-derive everything from the category tables with plain loops
and exhaustive enumeration, deliberately sharing no code with the search
engine they check.
"""

from __future__ import annotations

import itertools
from array import array

import pytest

from catramsey.core import CategoryError, FiniteCategory
from catramsey.expansions import ColoringExpansionSpec, build_coloring_expansion
from catramsey.generators import UniverseSpec, generate, object_of_size
from catramsey.io import dumps_category
from catramsey.kernel import restricted_growth


def composition_table(m: int, entries) -> array:
    """The finished m*m table of a category given by its (g, f) -> g*f
    entries, as a mapping or as an iterable of ((g, f), gf) items."""
    table = array("i", [-1]) * (m * m)
    for (g, f), gf in entries.items() if isinstance(entries, dict) else entries:
        table[g * m + f] = gf
    return table


def same_category(x: FiniteCategory, y: FiniteCategory) -> bool:
    """Whether x and y are the same category under the same numbering: the
    same file bytes (objects, morphisms, composition) and identities."""
    return dumps_category(x) == dumps_category(y) and x.identities == y.identities


def oracle_arrow(cat: FiniteCategory, A: int, B: int, C: int, k: int, t: int, mode: str = "morphism"):
    """Exhaustively test every coloring; returns (holds, witness_or_None)."""
    hom_ac = [m for m in range(cat.n_morphisms) if cat.mor_dom[m] == A and cat.mor_cod[m] == C]
    hom_ab = [m for m in range(cat.n_morphisms) if cat.mor_dom[m] == A and cat.mor_cod[m] == B]
    hom_bc = [m for m in range(cat.n_morphisms) if cat.mor_dom[m] == B and cat.mor_cod[m] == C]
    if mode == "morphism":
        items = hom_ac
        item_of = {m: i for i, m in enumerate(items)}
    else:
        auts = cat.automorphisms(A)
        item_of = {}
        items = []
        for f in hom_ac:
            if f in item_of:
                continue
            cls = {cat.compose(f, a) for a in auts}
            for g in cls:
                item_of[g] = len(items)
            items.append(f)
    bundles = [{item_of[cat.compose(w, f)] for f in hom_ab} for w in hom_bc]

    if not hom_bc:
        if min(k, len(items)) <= t:
            return True, None
        return False, [i % k for i in range(len(items))]
    for coloring in itertools.product(range(k), repeat=len(items)):
        if all(len({coloring[i] for i in b}) > t for b in bundles):
            return False, list(coloring)
    return True, None


def oracle_degree_upper(cat, A, mode, k_max, B_pool, C_universe):
    """Least t such that every (B, k) has a witnessing C, by raw enumeration."""
    for t in range(1, k_max + 1):
        if all(
            any(oracle_arrow(cat, A, B, C, k, t, mode)[0] for C in C_universe)
            for B in B_pool
            for k in range(2, k_max + 1)
        ):
            return t
    return None


def oracle_degree_lower(cat, A, mode, k_max, B_pool, C_universe):
    """Greatest t such that some (B, k) defeats every C at t - 1, by raw
    enumeration; 1 when no (B, k) defeats every C at any t < k_max."""
    return max(
        [1]
        + [
            t
            for t in range(2, k_max + 1)
            if any(
                not any(oracle_arrow(cat, A, B, C, k, t - 1, mode)[0] for C in C_universe)
                for B in B_pool
                for k in range(2, k_max + 1)
            )
        ]
    )


# the partition oracle refuses larger hom(A, ambient): Bell(12) kernels
PARTITION_DOMAIN_CAP = 12


def essential_exists_by_partitions(cat: FiniteCategory, q) -> bool:
    """Whether an essential t-coloring of hom(A, B) exists, straight from the
    definition: some lambda such that every kernel of a coloring of
    hom(A, ambient) is met by a w.  Exponential in both hom-set sizes."""
    hom_ab = cat.hom(q.A, q.B)
    hom_af = cat.hom(q.A, q.ambient)
    if len(hom_af) > PARTITION_DOMAIN_CAP:
        raise CategoryError(f"|hom(A, ambient)| = {len(hom_af)} exceeds partition cap {PARTITION_DOMAIN_CAP}")
    hom_bf = cat.hom(q.B, q.ambient)
    kernels = [dict(zip(hom_af, p)) for p in restricted_growth(len(hom_af), len(hom_af))]
    for lam in restricted_growth(len(hom_ab), q.t):
        pairs = [(f1, f2) for (f1, c1), (f2, c2) in itertools.product(zip(hom_ab, lam), repeat=2) if c1 == c2]
        if all(
            any(all(ker[cat.compose(w, f1)] == ker[cat.compose(w, f2)] for f1, f2 in pairs) for w in hom_bf)
            for ker in kernels
        ):
            return True
    return False


def one_object_category() -> FiniteCategory:
    """The terminal category: one object and only its identity."""
    return FiniteCategory(["pt"], [(0, 0, "id")], array("i", [0]), [0])


@pytest.fixture(scope="session")
def lo6():
    return generate(UniverseSpec("LO", 6))


@pytest.fixture(scope="session")
def lo4():
    return generate(UniverseSpec("LO", 4))


@pytest.fixture(scope="session")
def inj3():
    return generate(UniverseSpec("Inj", 3))


@pytest.fixture(scope="session")
def inj4():
    return generate(UniverseSpec("Inj", 4))


@pytest.fixture(scope="session")
def surj3():
    return generate(UniverseSpec("Surj", 3))


def obj(cat, family, size):
    return object_of_size(cat, family, size)


def matrix_coloring_expansion():
    """The matrix's coloring expansion: Inj_2, degree 1 on Inj_1 and 2 on Inj_2."""
    inj = generate(UniverseSpec("Inj", 2))
    a1, a2 = object_of_size(inj, "Inj", 1), object_of_size(inj, "Inj", 2)
    return build_coloring_expansion(ColoringExpansionSpec(inj, ((a1, 1), (a2, 2))))


def surj3_coloring_expansion():
    """The Surj_3 coloring expansion with degree 2 on object 2."""
    surj = generate(UniverseSpec("Surj", 3))
    return build_coloring_expansion(ColoringExpansionSpec(surj, ((2, 2),)))
