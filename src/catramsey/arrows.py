"""Arrow relation deciders.

check_arrow decides C -> (B)^A_{k,t}: every k-coloring of hom(A, C) admits a
w in hom(B, C) whose composite copy of hom(A, B) receives at most t colors.
Subobject mode colors the quotient hom(A, C)/~_A instead, where f ~_A f.alpha
for automorphisms alpha of A.  The negation (a coloring defeating every w) is
what the kernel searches for; an exhausted search certifies the relation.

Three routes decide a query: check_arrow in the category itself,
check_arrow_dual in its opposite, and check_arrow_native_dual in place,
reversing every arrow.  Each decides through a context per (A, C, mode),
held by the category it reads (the opposite route's by the opposite, so
routes never share one): the colorable items, their index, and the Aut(C)
rows in item coordinates, which the first decision that searches builds and
every later one with the same (A, C, mode) reuses, whatever its B, k and t.
A vacuous or trivial decision never builds them.  The bundles of each w and
the replay of a witness depend on B, and each route builds them afresh, on
its own, for every query, so that the duality cross-check compares two
independent computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import CategoryError, FiniteCategory
from .kernel import DEFAULT_BUDGET, build_problem, check_search_args, solve


@dataclass(frozen=True)
class ArrowQuery:
    A: int
    B: int
    C: int
    k: int
    t: int
    mode: str = "morphism"  # morphism | subobject

    def __post_init__(self):
        # bool is an int subclass, but True is no color count
        if type(self.k) is not int or type(self.t) is not int:
            raise CategoryError(f"k and t must be ints, got {self.k!r} and {self.t!r}")
        if self.k < 2:
            raise CategoryError("k must be >= 2")
        if self.t < 1:
            raise CategoryError("t must be >= 1")
        if self.mode not in ("morphism", "subobject"):
            raise CategoryError(f"unknown mode {self.mode!r}")


@dataclass
class ArrowVerdict:
    holds: bool | None  # None = inconclusive (budget exhausted)
    witness: list[int] | None  # colors indexed like `domain` when holds is False
    domain: list[int]  # morphism ids (morphism mode) or class representatives
    nodes: int
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "holds": self.holds,
            "nodes": self.nodes,
            "note": self.note,
        }
        if self.witness is not None:
            out["witness"] = {str(m): c for m, c in zip(self.domain, self.witness)}
        return out


def _indexed(items: Sequence[int]) -> tuple[Sequence[int], dict[int, int]]:
    return items, {m: i for i, m in enumerate(items)}


def _domain(cat: FiniteCategory, q: ArrowQuery) -> tuple[Sequence[int], dict[int, int]]:
    """The colorable items and the item index of every morphism of hom(A, C):
    the hom-set itself, or in subobject mode one representative per class,
    every member indexed by its class."""
    if q.mode == "morphism":
        return _indexed(cat.hom(q.A, q.C))
    classes = cat.subobject_classes(q.A, q.C)
    return [cl.representative for cl in classes], {m: i for i, cl in enumerate(classes) for m in cl.members}


@dataclass(eq=False)
class _Context:
    """What one route's decisions on one (A, C, mode) share: the colorable
    items, the item index of every morphism they stand for, and Aut(C) as
    rows over the items, None until the first decision that searches."""

    items: Sequence[int]
    index: dict[int, int]
    rows: list[tuple[int, ...]] | None = None


def _context(
    cat: FiniteCategory, key: tuple, domain: Callable[[], tuple[Sequence[int], dict[int, int]]]
) -> _Context:
    """cat's context under `key`, (route, A, C, mode); the first query that
    asks builds it from `domain()`.  setdefault publishes it, so threads
    that race to build one all go on with the one that landed."""
    ctx = cat._contexts.get(key)
    if ctx is None:
        ctx = cat._contexts.setdefault(key, _Context(*domain()))
    return ctx


def _is_coloring(q: ArrowQuery, items: Sequence[int], colors) -> bool:
    """Whether `colors` is a k-coloring of `items`: one int in range(k) per item."""
    return (
        isinstance(colors, list)
        and len(colors) == len(items)
        and all(type(c) is int and 0 <= c < q.k for c in colors)
    )


def _replay_witness(
    cat: FiniteCategory, q: ArrowQuery, items: Sequence[int], index: dict[int, int], colors: list[int]
) -> bool:
    """Independent check that `colors` is a k-coloring of `items` under which
    every w sees more than t colors."""
    if not _is_coloring(q, items, colors):
        return False
    hom_ab = cat.hom(q.A, q.B)
    return all(len({colors[index[wf]] for wf in cat.post(w, hom_ab)}) > q.t for w in cat.hom(q.B, q.C))


def _decide(
    cat: FiniteCategory,
    q: ArrowQuery,
    ctx: _Context,
    bundles: list[frozenset[int]],
    act: Callable[[int], list[int]],
    replay,
    budget: int,
    threads: int,
) -> ArrowVerdict:
    """The decision every route shares: the vacuous and trivial cases, the
    search and the verdict.  `ctx` is the route's context in `cat`,
    `bundles` has one entry per w, `act(alpha)` is the route's image of the
    items under the automorphism alpha of C, read only when the context has
    no rows yet and the decision searches, and `replay` is the route's own
    independent check of a witness coloring.  The verdict's domain is a
    list of the items."""
    items, n = list(ctx.items), len(ctx.items)
    if not bundles:
        # no w exists; the relation degenerates to whether the domain can be
        # colored with more than t colors at all
        if min(q.k, n) <= q.t:
            return ArrowVerdict(True, None, items, 0, note="vacuous: no B->C morphisms, domain not >t-colorable")
        witness = [i % q.k for i in range(n)]
        return ArrowVerdict(False, witness, items, 0, note="vacuous: no B->C morphisms, >t-coloring exists")

    if min(q.k, n) <= q.t:
        return ArrowVerdict(True, None, items, 0, note="trivial: at most t colors can occur")
    for b in bundles:
        if len(b) <= q.t:
            return ArrowVerdict(True, None, items, 0, note="trivial: some w has a bundle of size <= t")

    if ctx.rows is None:
        # racing threads build equal rows, so either list serves
        ctx.rows = [tuple(map(ctx.index.__getitem__, act(alpha))) for alpha in cat.automorphisms(q.C)]
    problem = build_problem(n, bundles, q.k, q.t, ctx.rows)
    outcome = solve(problem, budget=budget, threads=threads)
    if outcome.witness is not None:
        if not replay(outcome.witness):
            raise RuntimeError("internal error: witness failed replay verification")
        return ArrowVerdict(False, outcome.witness, items, outcome.nodes)
    if not outcome.exhausted:
        return ArrowVerdict(None, None, items, outcome.nodes, note="node budget exceeded")
    return ArrowVerdict(True, None, items, outcome.nodes)


def check_arrow(
    cat: FiniteCategory,
    q: ArrowQuery,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ArrowVerdict:
    check_search_args(budget, threads)
    cat.check_object(q.A)
    cat.check_object(q.B)
    cat.check_object(q.C)
    if q.mode == "subobject" and not cat.all_mono:
        raise CategoryError("subobject mode requires an all-mono category")

    ctx = _context(cat, ("direct", q.A, q.C, q.mode), lambda: _domain(cat, q))
    items, index = ctx.items, ctx.index
    hom_ab = cat.hom(q.A, q.B)
    bundles = [frozenset(map(index.__getitem__, cat.post(w, hom_ab))) for w in cat.hom(q.B, q.C)]
    return _decide(
        cat, q, ctx, bundles,
        lambda alpha: cat.post(alpha, items),
        lambda colors: _replay_witness(cat, q, items, index, colors),
        budget, threads,
    )


def check_arrow_dual(
    cat: FiniteCategory,
    q: ArrowQuery,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ArrowVerdict:
    """Arrow relation in the opposite category, by constructing the opposite,
    which keeps its own contexts."""
    return check_arrow(cat.opposite(), q, budget=budget, threads=threads)


def check_arrow_native_dual(
    cat: FiniteCategory,
    q: ArrowQuery,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> ArrowVerdict:
    """Arrow relation in the opposite category, evaluated in place.

    The domain is hom(C, A) and the bundle of w in hom(C, B) is
    {h.w : h in hom(B, A)}.  This never builds the opposite category, giving
    an independent route for the duality cross-checks; its contexts are
    its own, kept apart from check_arrow's on the same category.
    """
    check_search_args(budget, threads)
    cat.check_object(q.A)
    cat.check_object(q.B)
    cat.check_object(q.C)
    if q.mode != "morphism":
        raise CategoryError("native dual route supports morphism mode only")

    ctx = _context(cat, ("native", q.A, q.C, q.mode), lambda: _indexed(cat.hom(q.C, q.A)))
    items, idx = ctx.items, ctx.index
    hom_ba = cat.hom(q.B, q.A)
    hom_cb = cat.hom(q.C, q.B)
    bundles = [frozenset(map(idx.__getitem__, cat.pre(hom_ba, w))) for w in hom_cb]

    def replay(colors: list[int]) -> bool:
        # replay in place: a k-coloring under which every w sees more than t colors
        if not _is_coloring(q, items, colors):
            return False
        return all(len({colors[idx[hw]] for hw in cat.pre(hom_ba, w)}) > q.t for w in hom_cb)

    return _decide(cat, q, ctx, bundles, lambda alpha: cat.pre(items, alpha), replay, budget, threads)
