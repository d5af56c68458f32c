"""Concrete finite categories for verification runs.

Three families, truncated at a size cap: linear orders with order embeddings
(LO), finite sets with injections (Inj), finite sets with surjections (Surj).
Objects are sizes 1..max_size; a morphism from size a to size b is a function
{0..a-1} -> {0..b-1} given by its image tuple, which spells its label and
fixes a canonical deterministic order.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Sequence

from .core import CategoryError, FiniteCategory, concrete_category

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
    return [img for img in itertools.product(range(b), repeat=a) if len(set(img)) == b]


def _values(images: list[Sequence[int]]) -> list[int]:
    """Each image as the 8 bytes of one array("Q") element, padded with 255,
    read back as that element."""
    return array("Q", b"".join(bytes(img).ljust(8, b"\xff") for img in images)).tolist()


def generate(spec: UniverseSpec) -> FiniteCategory:
    """Build the truncated category for the given family.

    Object i (0-based) has size i+1 and label "<family>_<size>".  A
    morphism's value is its image as the 8 bytes of one array("Q") element,
    padded with 255 (every cap is below 8 points), so hom(a, b) lays out end
    to end as one bytes object, and g*f, x -> g[f[x]], is f's bytes
    translated by g's image padded to a 256-byte table with 255, which keeps
    f's padding: a block of compose is one join of those translations.
    """
    family, n = spec.family, spec.max_size
    tables: dict[int, bytes] = {}  # value -> the translate table of its image

    def arrows(a: int, b: int):
        images = _functions(family, a + 1, b + 1)
        values = _values(images)
        for value, img in zip(values, images):
            tables[value] = bytes(img).ljust(256, b"\xff")
        return zip(values, (",".join(map(str, img)) for img in images))

    def compose(gs: list[int], fs: list[int]) -> array:
        # every g*f of the block, row-major, decoded at once
        blob = array("Q", fs).tobytes()
        return array("Q", b"".join(map(blob.translate, map(tables.__getitem__, gs))))

    cat, _ = concrete_category(
        [f"{family}_{s}" for s in range(1, n + 1)],
        arrows,
        compose,
        lambda a: _values([range(a + 1)])[0],
    )
    return cat


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
    from .expansions import lifted_expansion

    inj = generate(UniverseSpec("Inj", max_size))
    # (Inj object, order), where the Inj object of size s is s - 1
    up_objects = [(s - 1, pi) for s in range(1, max_size + 1) for pi in itertools.permutations(range(s))]
    up_labels = [f"LOset_{a + 1}_" + "".join(map(str, pi)) for a, pi in up_objects]
    objs = range(max_size)
    hom_fns = {(a, b): list(zip(inj.hom(a, b), _functions("Inj", a + 1, b + 1))) for a in objs for b in objs}

    def lifting(src, dst):
        # f respects the orders: positions of f(pi(i)) in dst's order increase with i
        (a, pi), (b, sigma) = src, dst
        pos = {v: i for i, v in enumerate(sigma)}
        return [e for e, f in hom_fns[a, b] if all(pos[f[x]] < pos[f[y]] for x, y in zip(pi, pi[1:]))]

    return lifted_expansion(inj, up_objects, up_labels, lifting)
