"""Universe-relative Ramsey degrees and the identities relating them.

A degree bound quantifies over explicit finite pools: upper is the least t
such that for every B in B_pool and every k <= k_max some C in C_universe
satisfies the arrow, lower is the greatest t for which some (B, k) defeats
every C at t - 1.  Both are evidence relative to the pools, never global
claims; reports carry the label "universe-relative" for that reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import CategoryError, FiniteCategory, product
from .kernel import DEFAULT_BUDGET
from .arrows import ArrowQuery, ArrowVerdict, check_arrow, check_arrow_native_dual


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


class _ArrowMemo:
    """Per-computation verdict memo exploiting monotonicity in t."""

    def __init__(self, cat, mode, evaluator, budget, threads):
        self.cat = cat
        self.mode = mode
        self.evaluator = evaluator
        self.budget = budget
        self.threads = threads
        self.memo: dict[tuple[int, int, int, int], ArrowVerdict] = {}
        # (B, C, k) -> [(t, verdict)], in the memo's insertion order
        self.cells: dict[tuple[int, int, int], list[tuple[int, ArrowVerdict]]] = {}

    def verdict(self, A, B, C, k, t) -> ArrowVerdict:
        key = (B, C, k, t)
        if key not in self.memo:
            cell = self.cells.setdefault((B, C, k), [])
            # holds at smaller t, or fails at larger t, settles this cell
            for t2, v in cell:
                if (v.holds is True and t2 <= t) or (v.holds is False and t2 >= t):
                    break
            else:
                q = ArrowQuery(A, B, C, k, t, self.mode)
                v = self.evaluator(self.cat, q, budget=self.budget, threads=self.threads)
            self.memo[key] = v
            cell.append((t, v))
        return self.memo[key]


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
    if B_pool is None:
        B_pool = default_pool(cat, A)
    if C_universe is None:
        C_universe = default_pool(cat, A)
    if not B_pool or not C_universe:
        raise CategoryError("empty B_pool or C_universe")
    if k_max < 2:
        raise CategoryError("k_max must be >= 2")

    memo = _ArrowMemo(cat, mode, evaluator, budget, threads)

    # upper bound: least t covering every (B, k); t = k_max always works
    # because k <= k_max colors can never exceed k_max
    upper = None
    upper_witnesses: dict = {}
    for t in range(1, k_max + 1):
        ok = True
        witnesses = {}
        inconclusive = False
        for B in B_pool:
            for k in range(2, k_max + 1):
                found = None
                cell_inconclusive = False
                for C in C_universe:
                    v = memo.verdict(A, B, C, k, t)
                    if v.holds is True:
                        found = C
                        break
                    if v.holds is None:
                        cell_inconclusive = True
                if found is None:
                    ok = False
                    inconclusive = inconclusive or cell_inconclusive
                    break
                witnesses[(B, k)] = found
            if not ok:
                break
        if ok:
            upper = t
            upper_witnesses = witnesses
            break
        if inconclusive:
            # cannot certify failure at this t, so no smaller upper bound
            # can be claimed either
            return DegreeBound(A, mode, None, None, k_max, list(B_pool), list(C_universe))

    # lower bound: greatest t such that some (B, k) defeats every C at t - 1;
    # t = 1 holds by the positive-degree convention (t = 0 is never queried)
    lower = 1
    lower_witness = None
    ceiling = upper if upper is not None else k_max
    for t in range(2, ceiling + 1):
        evidence = None
        for B in B_pool:
            for k in range(2, k_max + 1):
                per_c = {}
                all_fail = True
                for C in C_universe:
                    v = memo.verdict(A, B, C, k, t - 1)
                    if v.holds is False:
                        per_c[C] = dict(zip(v.domain, v.witness)) if v.witness else {}
                    else:
                        all_fail = False
                        break
                if all_fail:
                    evidence = {"B": B, "k": k, "per_C": per_c}
                    break
            if evidence:
                break
        if evidence:
            lower = t
            lower_witness = evidence
        else:
            break
    return DegreeBound(
        A, mode, lower, upper, k_max, list(B_pool), list(C_universe), upper_witnesses, lower_witness
    )


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
    report = {
        "status": "ok" if lhs == rhs else "violation",
        "morphism_degree": lhs,
        "aut": n_aut,
        "subobject_degree": bounds_s.upper,
        "product": rhs,
        "aut_lower_bound_ok": lhs >= n_aut,
        "scope": "universe-relative",
    }
    if lhs < n_aut:
        report["status"] = "violation"
    return report


def verify_product(
    cat1: FiniteCategory,
    cat2: FiniteCategory,
    A1: int,
    A2: int,
    k_max: int = 2,
    B_pool1: list[int] | None = None,
    B_pool2: list[int] | None = None,
    C_universe1: list[int] | None = None,
    C_universe2: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict:
    """Product-category degree bound against the product of factor degrees."""
    d1 = degree_bounds(cat1, A1, "morphism", k_max, B_pool1, C_universe1, budget, threads)
    d2 = degree_bounds(cat2, A2, "morphism", k_max, B_pool2, C_universe2, budget, threads)
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
        if B_pool is None:
            B_pool = [x for x in range(cat.n_objects) if cat.hom(x, A)]
        if C_universe is None:
            C_universe = [x for x in range(cat.n_objects) if cat.hom(x, A)]
        return degree_bounds(
            cat, A, mode, k_max, B_pool, C_universe, budget, threads, evaluator=check_arrow_native_dual
        )
    raise CategoryError(f"unknown route {route!r}")
