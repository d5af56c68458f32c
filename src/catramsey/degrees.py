"""Universe-relative Ramsey degrees and the identities relating them.

A degree bound quantifies over explicit finite pools: upper is the least t
such that for every B in B_pool and every k <= k_max some C in C_universe
satisfies the arrow, lower is the greatest t for which some (B, k) defeats
every C at t - 1.  Both are evidence relative to the pools, never global
claims; reports carry the label "universe-relative" for that reason.

On finite pools with conclusive verdicts the two coincide: one scan over
t = 1, 2, ... stops at the first t every (B, k) meets, and each smaller t
it passes is defeated by some (B, k), the last of which is kept as the
lower-bound evidence.  An inconclusive verdict on the (B, k) that stops a t
leaves both bounds unset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import MAX_MORPHISMS, CategoryError, FiniteCategory, product
from .kernel import DEFAULT_BUDGET
from .arrows import ArrowQuery, check_arrow, check_arrow_native_dual


@dataclass
class DegreeBound:
    object: int
    mode: str
    lower: int | None
    upper: int | None
    k_max: int
    B_pool: list[int]
    C_universe: list[int]
    upper_witnesses: dict = field(default_factory=dict)  # (B, k) -> witness C
    lower_witness: dict | None = None  # {"B", "k", "per_C": {C: coloring}}
    scope: str = "universe-relative"

    @property
    def tight(self) -> bool:
        return self.lower is not None and self.lower == self.upper

    def as_dict(self) -> dict:
        return {
            "object": self.object,
            "mode": self.mode,
            "lower": self.lower,
            "upper": self.upper,
            "k_max": self.k_max,
            "B_pool": list(self.B_pool),
            "C_universe": list(self.C_universe),
            "upper_witnesses": {f"{b},{k}": c for (b, k), c in self.upper_witnesses.items()},
            "lower_witness": self.lower_witness,
            "scope": self.scope,
        }


def default_pool(cat: FiniteCategory, A: int) -> list[int]:
    """Objects containing a copy of A."""
    return [x for x in range(cat.n_objects) if cat.hom(A, x)]


def degree_bounds(
    cat: FiniteCategory,
    A: int,
    mode: str = "morphism",
    k_max: int = 2,
    B_pool: list[int] | None = None,
    C_universe: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    evaluator=check_arrow,
) -> DegreeBound:
    cat.check_object(A)
    B_pool = default_pool(cat, A) if B_pool is None else list(B_pool)
    C_universe = default_pool(cat, A) if C_universe is None else list(C_universe)
    if not B_pool or not C_universe:
        raise CategoryError("empty B_pool or C_universe")
    # colourings start at 2 colours; no domain has more than MAX_MORPHISMS
    # items, and more colours than items only repeat a verdict while the
    # scan keeps growing
    if type(k_max) is not int or not 2 <= k_max <= MAX_MORPHISMS:
        raise CategoryError(f"k_max must be an int in 2..{MAX_MORPHISMS}, got {k_max!r}")

    held: set[tuple[int, int, int]] = set()  # (B, C, k) that held at a smaller t
    lower_witness = None
    # t = k_max always works because k <= k_max colors can never exceed k_max
    for t in range(1, k_max + 1):
        witnesses = {}
        for B, k in itertools.product(dict.fromkeys(B_pool), range(2, k_max + 1)):
            failed = {}
            for C in dict.fromkeys(C_universe):
                if (B, C, k) not in held:
                    v = evaluator(cat, ArrowQuery(A, B, C, k, t, mode), budget=budget, threads=threads)
                    if v.holds is not True:
                        failed[C] = v
                        continue
                    held.add((B, C, k))
                witnesses[(B, k)] = C
                break
            else:
                break  # no C holds for this (B, k)
        else:
            return DegreeBound(A, mode, t, t, k_max, B_pool, C_universe, witnesses, lower_witness)
        if any(v.holds is None for v in failed.values()):
            # cannot certify failure at this t, so no bound can be claimed
            return DegreeBound(A, mode, None, None, k_max, B_pool, C_universe)
        if t < k_max:
            # (B, k) defeats every C at t, so the degree is at least t + 1
            per_c = {C: dict(zip(v.domain, v.witness)) if v.witness else {} for C, v in failed.items()}
            lower_witness = {"B": B, "k": k, "per_C": per_c}
    return DegreeBound(A, mode, k_max, None, k_max, B_pool, C_universe, {}, lower_witness)


def verify_aut_bridge(cat: FiniteCategory, A: int, bounds_m: DegreeBound, bounds_s: DegreeBound) -> dict:
    """Check morphism degree = |Aut(A)| * subobject degree on tight bounds."""
    n_aut = len(cat.automorphisms(A))
    if not (bounds_m.tight and bounds_s.tight):
        return {"status": "inconclusive", "reason": "bounds not tight", "aut": n_aut}
    if bounds_m.k_max < n_aut:
        # the truncated upper bound never exceeds k_max, so the identity is
        # out of reach of this k range
        return {"status": "inconclusive", "reason": "k_max below |Aut(A)|", "aut": n_aut}
    lhs = bounds_m.upper
    rhs = n_aut * bounds_s.upper
    return {
        "status": "ok" if lhs == rhs and lhs >= n_aut else "violation",
        "morphism_degree": lhs,
        "aut": n_aut,
        "subobject_degree": bounds_s.upper,
        "product": rhs,
        "aut_lower_bound_ok": lhs >= n_aut,
        "scope": "universe-relative",
    }


def verify_product(
    cat1: FiniteCategory,
    cat2: FiniteCategory,
    A1: int,
    A2: int,
    k_max: int = 2,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict:
    """Product-category degree bound against the product of factor degrees."""
    d1 = degree_bounds(cat1, A1, "morphism", k_max, budget=budget, threads=threads)
    d2 = degree_bounds(cat2, A2, "morphism", k_max, budget=budget, threads=threads)
    if not (d1.tight and d2.tight):
        return {"status": "inconclusive", "reason": "factor bounds not tight"}

    prod = product(cat1, cat2)
    n2 = cat2.n_objects

    def pair(o1, o2):
        return o1 * n2 + o2

    A12 = pair(A1, A2)
    B_pool = [pair(b1, b2) for b1 in d1.B_pool for b2 in d2.B_pool]
    C_universe = [pair(c1, c2) for c1 in d1.C_universe for c2 in d2.C_universe]
    dp = degree_bounds(prod, A12, "morphism", k_max, B_pool, C_universe, budget, threads)
    if dp.upper is None:
        return {"status": "inconclusive", "reason": "product bound inconclusive"}
    bound = d1.upper * d2.upper
    return {
        "status": "ok" if dp.upper <= bound else "violation",
        "factor_degrees": [d1.upper, d2.upper],
        "product_degree_upper": dp.upper,
        "bound": bound,
        "equality": dp.tight and dp.upper == bound,
        "scope": "universe-relative",
    }


def dual_degree_bounds(
    cat: FiniteCategory,
    A: int,
    mode: str = "morphism",
    k_max: int = 2,
    B_pool: list[int] | None = None,
    C_universe: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
    route: str = "opposite",
) -> DegreeBound:
    """Degrees of the opposite category.

    route "opposite" materializes the opposite category and reuses the direct
    machinery; route "native" evaluates reversed arrows in place.  The two
    must agree wherever both run.
    """
    if route == "opposite":
        return degree_bounds(cat.opposite(), A, mode, k_max, B_pool, C_universe, budget, threads)
    if route == "native":
        if mode != "morphism":
            raise CategoryError("native dual route supports morphism mode only")
        into_A = [x for x in range(cat.n_objects) if cat.hom(x, A)]
        B_pool = into_A if B_pool is None else B_pool
        C_universe = into_A if C_universe is None else C_universe
        return degree_bounds(cat, A, mode, k_max, B_pool, C_universe, budget, threads, check_arrow_native_dual)
    raise CategoryError(f"unknown route {route!r}")
