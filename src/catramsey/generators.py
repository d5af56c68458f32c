"""Concrete finite categories for verification runs.

Three families, truncated at a size cap: linear orders with order embeddings
(LO), finite sets with injections (Inj), finite sets with surjections (Surj).
Objects are sizes 1..max_size; a morphism from size a to size b is a function
{0..a-1} -> {0..b-1} stored as its image tuple, which also serves as the label
and fixes a canonical deterministic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import CategoryError, FiniteCategory

# Inj_6 has 2,365 morphisms, a 22 MB composition table; Inj_7 would have
# 16,064 and need about 1 GB.
DEFAULT_CAPS = {"LO": 7, "Inj": 6, "Surj": 5}


@dataclass(frozen=True)
class UniverseSpec:
    family: str  # LO | Inj | Surj
    max_size: int

    def __post_init__(self):
        if self.family not in ("LO", "Inj", "Surj"):
            raise CategoryError(f"unknown family {self.family!r}")
        if self.max_size < 1:
            raise CategoryError("max_size must be >= 1")
        if self.max_size > DEFAULT_CAPS[self.family]:
            raise CategoryError(
                f"max_size {self.max_size} exceeds cap {DEFAULT_CAPS[self.family]} for {self.family}"
            )


def _functions(family: str, a: int, b: int) -> list[tuple[int, ...]]:
    """All morphisms size a -> size b as image tuples, in lexicographic order."""
    if family == "LO":
        # monotone injections = sorted a-subsets of range(b)
        return [tuple(c) for c in itertools.combinations(range(b), a)]
    if family == "Inj":
        return sorted(itertools.permutations(range(b), a))
    # surjections a -> b
    if a < b:
        return []
    out = []
    for img in itertools.product(range(b), repeat=a):
        if len(set(img)) == b:
            out.append(img)
    return out


def generate(spec: UniverseSpec) -> FiniteCategory:
    """Build the truncated category for the given family.

    Object i (0-based) has size i+1 and label "<family>_<size>".
    """
    family, n = spec.family, spec.max_size
    objects = [f"{family}_{s}" for s in range(1, n + 1)]

    morphisms: list[tuple[int, int, str]] = []
    fn_of: list[tuple[int, ...]] = []
    hom: dict[tuple[int, int], range] = {}  # morphisms are numbered hom-set by hom-set
    index: dict[tuple[int, int, tuple[int, ...]], int] = {}
    for a in range(n):
        for b in range(n):
            start = len(morphisms)
            for img in _functions(family, a + 1, b + 1):
                index[(a, b, img)] = len(morphisms)
                morphisms.append((a, b, ",".join(map(str, img))))
                fn_of.append(img)
            hom[(a, b)] = range(start, len(morphisms))

    def compose():
        for (a, b), fs in hom.items():
            for c in range(n):
                for g in hom[(b, c)]:
                    gi = fn_of[g]
                    for f in fs:
                        yield (g, f), index[(a, c, tuple(gi[x] for x in fn_of[f]))]

    identities = [index[(s, s, tuple(range(s + 1)))] for s in range(n)]
    return FiniteCategory(objects, morphisms, compose(), identities)


def object_of_size(cat: FiniteCategory, family: str, size: int) -> int:
    label = f"{family}_{size}"
    try:
        return cat.object_labels.index(label)
    except ValueError:
        raise CategoryError(f"no object labeled {label}") from None


def forgetful_LO_to_Inj(max_size: int):
    """The order-forgetting expansion over Inj.

    Upstairs objects are ordered n-sets, one per permutation of {0..n-1}: the
    object (n, pi) carries the order pi(0) < pi(1) < ... < pi(n-1) on the
    underlying n-set.  Upstairs morphisms are the injections that are monotone
    with respect to the chosen orders; forgetting the order is surjective on
    objects and injective on hom-sets.
    """
    from .expansions import ExpansionFunctor

    inj = generate(UniverseSpec("Inj", max_size))

    up_objects: list[tuple[int, tuple[int, ...]]] = []  # (size, order)
    for s in range(1, max_size + 1):
        for pi in itertools.permutations(range(s)):
            up_objects.append((s, pi))
    up_index = {ob: i for i, ob in enumerate(up_objects)}
    up_labels = [f"LOset_{s}_" + "".join(map(str, pi)) for s, pi in up_objects]

    def monotone(f: tuple[int, ...], src: tuple[int, ...], dst: tuple[int, ...]) -> bool:
        # f respects the orders: positions of f(src[i]) in dst increase with i
        pos = {v: i for i, v in enumerate(dst)}
        seq = [pos[f[x]] for x in src]
        return all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))

    up_morphisms: list[tuple[int, int, str]] = []
    up_fn: list[tuple[int, ...]] = []
    up_mindex: dict[tuple[int, int, tuple[int, ...]], int] = {}
    mor_map: dict[int, int] = {}  # upstairs morphism -> downstairs morphism
    inj_index = {}
    for m in range(inj.n_morphisms):
        key = (inj.mor_dom[m], inj.mor_cod[m], tuple(int(x) for x in inj.mor_labels[m].split(",")))
        inj_index[key] = m
    for u in range(len(up_objects)):
        su, piu = up_objects[u]
        for v in range(len(up_objects)):
            sv, piv = up_objects[v]
            for f in itertools.permutations(range(sv), su):
                if monotone(f, piu, piv):
                    mid = len(up_morphisms)
                    up_morphisms.append((u, v, ",".join(map(str, f))))
                    up_fn.append(f)
                    up_mindex[(u, v, f)] = mid
                    mor_map[mid] = inj_index[(su - 1, sv - 1, f)]

    compose = {}
    for g in range(len(up_morphisms)):
        gd, gc, _ = up_morphisms[g]
        for f in range(len(up_morphisms)):
            fd, fc, _ = up_morphisms[f]
            if fc != gd:
                continue
            img = tuple(up_fn[g][x] for x in up_fn[f])
            compose[(g, f)] = up_mindex[(fd, gc, img)]

    ids = [up_mindex[(u, u, tuple(range(up_objects[u][0])))] for u in range(len(up_objects))]
    upstairs = FiniteCategory(up_labels, up_morphisms, compose, ids)
    obj_map = {u: up_objects[u][0] - 1 for u in range(len(up_objects))}
    return ExpansionFunctor(upstairs=upstairs, downstairs=inj, object_map=obj_map, morphism_map=mor_map)
