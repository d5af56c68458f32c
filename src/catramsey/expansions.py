"""Forgetful expansion functors and their axioms.

An expansion U: upstairs -> downstairs is surjective on objects and injective
on hom-sets.  This module checks the four structural axioms (reasonable,
unique restrictions, precompact, separates points), materializes the
restriction operator and its calculus, verifies the degree additivity over
fibers, and builds the coloring-expansion category whose objects are pairs
(C, theta) of a base object and a family of colorings of hom(A, C).

Every axiom check is a pure read of indices the functor derives once, on
first use: its fibers, its lift index (B_up, e) -> {A_up: the upstairs
morphism A_up -> B_up over e}, and the restriction table read off the lift
index together with the (B_up, e) that violate unique restrictions.  No check
writes to the functor, and none meets a partial map: the functor refuses,
when it is built, an object or morphism map that leaves out an upstairs id or
names an id outside its category.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable

from .core import CategoryError, FiniteCategory, concrete_category
from .kernel import DEFAULT_BUDGET
from .degrees import DegreeBound, default_pool, degree_bounds

FIBER_SIZE_CAP = 256
TOTAL_OBJECT_CAP = 512


@dataclass
class ExpansionFunctor:
    """U: upstairs -> downstairs, given by total maps of object ids and of
    morphism ids; validate_functor checks the functor laws."""

    upstairs: FiniteCategory
    downstairs: FiniteCategory
    object_map: dict[int, int]
    morphism_map: dict[int, int]

    def __post_init__(self):
        """Refuse an object or morphism map that misses an upstairs id or
        names an id outside its category, so that every index and check can
        look up every entry."""
        up, down = self.upstairs, self.downstairs
        for kind, mapping, n_up, n_down in (
            ("object", self.object_map, up.n_objects, down.n_objects),
            ("morphism", self.morphism_map, up.n_morphisms, down.n_morphisms),
        ):
            missing = next((x for x in range(n_up) if x not in mapping), None)
            if missing is not None:
                raise CategoryError(f"{kind}_map has no entry for upstairs {kind} {missing}")
            for x, y in mapping.items():
                if not 0 <= x < n_up:
                    raise CategoryError(f"{kind}_map names unknown upstairs {kind} {x}")
                if not 0 <= y < n_down:
                    raise CategoryError(f"{kind}_map sends upstairs {kind} {x} to unknown downstairs {kind} {y}")

    @cached_property
    def fibers(self) -> dict[int, tuple[int, ...]]:
        """downstairs object -> the upstairs objects over it, in id order."""
        fibers: dict[int, list[int]] = {}
        for o in range(self.upstairs.n_objects):
            fibers.setdefault(self.object_map[o], []).append(o)
        return {a: tuple(objs) for a, objs in fibers.items()}

    @cached_property
    def lifts(self) -> dict[tuple[int, int], dict[int, int]]:
        """(B_up, e) -> {A_up: the upstairs morphism A_up -> B_up over e}."""
        up = self.upstairs
        lifts: dict[tuple[int, int], dict[int, int]] = {}
        for m in range(up.n_morphisms):
            lifts.setdefault((up.mor_cod[m], self.morphism_map[m]), {})[up.mor_dom[m]] = m
        return lifts

    @cached_property
    def restrictions(self) -> tuple[dict[tuple[int, int], int], tuple[dict, ...]]:
        """The restriction table (B_up, e) -> the fiber object over A that
        e: A -> U(B_up) lifts from into B_up, and the (B_up, e) that lift from
        none or several, which unique restrictions forbids."""
        down = self.downstairs
        table: dict[tuple[int, int], int] = {}
        violations = []
        for b_up in range(self.upstairs.n_objects):
            b_down = self.object_map[b_up]
            for a in range(down.n_objects):
                for e in down.hom(a, b_down):
                    # a lift from outside the fiber over A means the functor
                    # breaks dom/cod; it is no source
                    over = self.lifts.get((b_up, e), {})
                    sources = sorted(a_up for a_up in over if self.object_map[a_up] == a)
                    if len(sources) != 1:
                        violations.append({"B_up": b_up, "e": e, "sources": sources})
                    else:
                        table[(b_up, e)] = sources[0]
        return table, tuple(violations)

    def fiber(self, a_down: int) -> list[int]:
        return list(self.fibers.get(a_down, ()))

    def validate_functor(self) -> dict:
        """Functoriality, object surjectivity and hom-set injectivity; the
        maps are total, as construction made sure."""
        up, down = self.upstairs, self.downstairs
        problems = []
        if set(self.object_map.values()) != set(range(down.n_objects)):
            problems.append("object_map not surjective")
        for m in range(up.n_morphisms):
            dm = self.morphism_map[m]
            if self.object_map[up.mor_dom[m]] != down.mor_dom[dm] or self.object_map[up.mor_cod[m]] != down.mor_cod[dm]:
                problems.append(f"morphism {m} maps to incompatible dom/cod")
        for o in range(up.n_objects):
            if self.morphism_map[up.identity(o)] != down.identity(self.object_map[o]):
                problems.append(f"identity of {o} not preserved")
        for g, f, gf in up.compose_entries():
            dg, df = self.morphism_map[g], self.morphism_map[f]
            if not down.composable(dg, df) or down.compose(dg, df) != self.morphism_map[gf]:
                problems.append(f"composition not preserved at ({g},{f})")
        for a in range(up.n_objects):
            for b in range(up.n_objects):
                hs = up.hom(a, b)
                if len({self.morphism_map[m] for m in hs}) != len(hs):
                    problems.append(f"not injective on hom({a},{b})")
        return {"status": "ok" if not problems else "violation", "problems": problems}


def check_reasonable(U: ExpansionFunctor) -> dict:
    """Every downstairs e: A -> B lifts from every fiber object over A."""
    down = U.downstairs
    violations = []
    for a in range(down.n_objects):
        for b in range(down.n_objects):
            for e in down.hom(a, b):
                lifted = set()
                for b_up in U.fiber(b):
                    lifted.update(U.lifts.get((b_up, e), ()))
                violations.extend({"e": e, "A_up": a_up} for a_up in U.fiber(a) if a_up not in lifted)
    return {"status": "ok" if not violations else "violation", "violations": violations}


def check_unique_restrictions(U: ExpansionFunctor) -> dict:
    """Every e: A -> U(B_up) comes from exactly one fiber object over A."""
    violations = list(U.restrictions[1])
    return {"status": "ok" if not violations else "violation", "violations": violations}


def restrict(U: ExpansionFunctor, b_up: int, e_down: int) -> int:
    """The unique fiber object that e_down lifts from into b_up."""
    table, violations = U.restrictions
    if violations:
        raise CategoryError("restriction requires unique restrictions to hold")
    if (b_up, e_down) not in table:
        raise CategoryError(f"downstairs morphism {e_down} does not end at the image of upstairs object {b_up}")
    return table[(b_up, e_down)]


def check_restriction_laws(U: ExpansionFunctor) -> dict:
    """Identity, composition and iso-transport laws of the restriction operator."""
    down, up = U.downstairs, U.upstairs
    restr, violations = U.restrictions
    if violations:
        return {"status": "violation", "problems": ["unique restrictions fail"]}
    problems = []
    # identity law: restricting along id gives the object back
    for b_up in range(up.n_objects):
        if restr[(b_up, down.identity(U.object_map[b_up]))] != b_up:
            problems.append(f"identity law fails at {b_up}")
    # membership law: e lifts into b_up from a_up iff a_up is the restriction
    for a_up in range(up.n_objects):
        for b_up in range(up.n_objects):
            for m in up.hom(a_up, b_up):
                if restr.get((b_up, U.morphism_map[m])) != a_up:
                    problems.append(f"membership law fails at morphism {m}")
    # composition law: restr(restr(C, g), f) = restr(C, g.f)
    for c_up in range(up.n_objects):
        c_down = U.object_map[c_up]
        for b in range(down.n_objects):
            for g in down.hom(b, c_down):
                b_up = restr[(c_up, g)]
                for a in range(down.n_objects):
                    for f in down.hom(a, b):
                        if restr[(b_up, f)] != restr[(c_up, down.compose(g, f))]:
                            problems.append(f"composition law fails at (g={g}, f={f})")
    # iso transport: the lift of a downstairs iso is an upstairs iso
    for b_up in range(up.n_objects):
        b_down = U.object_map[b_up]
        for a in range(down.n_objects):
            for e in down.iso(a, b_down):
                a_up = restr[(b_up, e)]
                if U.lifts[(b_up, e)][a_up] not in up.iso(a_up, b_up):
                    problems.append(f"iso transport fails at e={e}")
    return {"status": "ok" if not problems else "violation", "problems": problems}


def check_disjoint_union(U: ExpansionFunctor) -> dict:
    """hom(A, U(B_up)) is the disjoint union of upstairs hom-sets over the fiber."""
    down = U.downstairs
    # (B_up, A) -> e once for every fiber object over A that e lifts from
    images: dict[tuple[int, int], list[int]] = {}
    for (b_up, e), over in U.lifts.items():
        for a_up in over:
            images.setdefault((b_up, U.object_map[a_up]), []).append(e)
    violations = []
    for b_up in range(U.upstairs.n_objects):
        b_down = U.object_map[b_up]
        for a in range(down.n_objects):
            if sorted(images.get((b_up, a), [])) != sorted(down.hom(a, b_down)):
                violations.append({"B_up": b_up, "A": a})
    return {"status": "ok" if not violations else "violation", "violations": violations}


def check_precompact(U: ExpansionFunctor) -> dict:
    sizes = {a: len(U.fiber(a)) for a in range(U.downstairs.n_objects)}
    return {"status": "ok", "fiber_sizes": sizes}


def check_separates_points(U: ExpansionFunctor) -> dict:
    """Distinct fiber objects are told apart by some restriction."""
    down = U.downstairs
    restr, violations = U.restrictions
    if violations:
        return {"status": "violation", "violations": ["unique restrictions fail"]}
    unseparated = []
    for f_down in range(down.n_objects):
        into = [e for a in range(down.n_objects) for e in down.hom(a, f_down)]
        for f1, f2 in itertools.combinations(U.fiber(f_down), 2):
            if all(restr[(f1, e)] == restr[(f2, e)] for e in into):
                unseparated.append({"F1": f1, "F2": f2})
    return {"status": "ok" if not unseparated else "violation", "violations": unseparated}


def check_directed(cat: FiniteCategory) -> dict:
    """Any two objects admit a common target within the category."""
    failures = []
    for a in range(cat.n_objects):
        for b in range(cat.n_objects):
            if not any(cat.hom(a, c) and cat.hom(b, c) for c in range(cat.n_objects)):
                failures.append((a, b))
    return {"status": "ok" if not failures else "violation", "failures": failures}


def check_expansion_property(U: ExpansionFunctor) -> dict:
    """Both routes to the expansion property, with agreement asserted.

    Definition route: for every downstairs A, some downstairs B such that
    every fiber object over A maps into every fiber object over B.  Single-
    source route: for every upstairs D, some downstairs B such that D maps
    into every fiber object over B.  Either route can be inconclusive when
    the truncation runs out of candidate Bs.
    """
    down, up = U.downstairs, U.upstairs
    targets = sorted(U.fibers.items())

    def witnesses(sources: dict) -> dict:
        # source -> the first B whose every fiber object receives a morphism
        # from every one of the source's upstairs objects, or None
        return {
            s: next((b for b, b_objs in targets if all(up.hom(x, y) for x in objs for y in b_objs)), None)
            for s, objs in sources.items()
        }

    per_a = witnesses({a: U.fiber(a) for a in range(down.n_objects)})
    per_d = witnesses({d: [d] for d in range(up.n_objects)})
    definition_ok = None not in per_a.values()
    single_ok = None not in per_d.values()

    # a route with no B may only have run out of the truncation, and the
    # routes are equivalent only via directedness arguments that can leave
    # it, so anything short of both holding is inconclusive
    holds = definition_ok and single_ok
    return {
        "status": "ok" if holds else "inconclusive",
        "holds": holds or None,
        "per_A_witness": per_a,
        "per_D_witness": per_d,
        "routes_agree": definition_ok == single_ok,
    }


def _matched_degrees(
    U: ExpansionFunctor,
    a_down: int,
    mode: str,
    k_max: int,
    B_pool_down: list[int] | None,
    C_universe_down: list[int] | None,
    budget: int,
    threads: int,
) -> tuple[DegreeBound, dict[int, DegreeBound]]:
    """The downstairs degree bound of a_down and the bound of every fiber
    object over it, on matched pools: the upstairs pools are the preimages of
    the downstairs ones, cut to objects the fiber object maps into.  The
    downstairs pools default to the objects a_down maps into."""
    down, up = U.downstairs, U.upstairs
    if B_pool_down is None:
        B_pool_down = default_pool(down, a_down)
    if C_universe_down is None:
        C_universe_down = default_pool(down, a_down)
    d_down = degree_bounds(down, a_down, mode, k_max, B_pool_down, C_universe_down, budget, threads)
    B_pool_up = [b for b in range(up.n_objects) if U.object_map[b] in B_pool_down]
    C_universe_up = [c for c in range(up.n_objects) if U.object_map[c] in C_universe_down]
    fiber_degrees = {}
    for a_up in U.fiber(a_down):
        bp = [b for b in B_pool_up if up.hom(a_up, b)]
        cu = [c for c in C_universe_up if up.hom(a_up, c)]
        fiber_degrees[a_up] = degree_bounds(up, a_up, mode, k_max, bp, cu, budget, threads)
    return d_down, fiber_degrees


def verify_additivity(
    U: ExpansionFunctor,
    a_down: int,
    k_max: int = 2,
    B_pool_down: list[int] | None = None,
    C_universe_down: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict:
    """Downstairs degree against the sum of fiber degrees, matched pools.

    The inequality needs reasonable + unique restrictions; equality
    additionally needs the expansion property and upstairs directedness, all
    of which are checked first and reported.
    """
    hyps = {
        "functor": U.validate_functor(),
        "reasonable": check_reasonable(U),
        "unique_restrictions": check_unique_restrictions(U),
        "expansion_property": check_expansion_property(U),
        "upstairs_directed": check_directed(U.upstairs),
    }
    basic_ok = all(hyps[h]["status"] == "ok" for h in ("functor", "reasonable", "unique_restrictions"))
    equality_ok = basic_ok and all(
        hyps[h]["status"] == "ok" for h in ("expansion_property", "upstairs_directed")
    )
    if not basic_ok:
        return {"status": "violation", "reason": "hypotheses fail", "hypotheses": hyps}

    d_down, fiber_degrees = _matched_degrees(
        U, a_down, "morphism", k_max, B_pool_down, C_universe_down, budget, threads
    )
    if not d_down.tight or any(not d.tight for d in fiber_degrees.values()):
        return {"status": "inconclusive", "reason": "bounds not tight", "hypotheses": hyps}
    total = sum(d.upper for d in fiber_degrees.values())
    if d_down.upper > total:
        status = "violation"
    elif equality_ok and d_down.upper != total:
        status = "violation"
    else:
        status = "ok"
    return {
        "status": status,
        "downstairs_degree": d_down.upper,
        "fiber_degrees": {a: d.upper for a, d in fiber_degrees.items()},
        "sum": total,
        "equality_expected": equality_ok,
        "equality": d_down.upper == total,
        "hypotheses": {h: hyps[h]["status"] for h in hyps},
        "scope": "universe-relative",
    }


def verify_ratio_formula(
    U: ExpansionFunctor,
    a_down: int,
    k_max: int = 2,
    B_pool_down: list[int] | None = None,
    C_universe_down: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    threads: int = 1,
) -> dict:
    """Subobject-mode degree downstairs against the fiber formulas.

    Checks both forms: the weighted sum over the whole fiber with weights
    |Aut(A_up)| / |Aut(A)|, and the plain sum over one representative per
    upstairs isomorphism class.
    """
    down, up = U.downstairs, U.upstairs
    d_down, fiber_degrees = _matched_degrees(
        U, a_down, "subobject", k_max, B_pool_down, C_universe_down, budget, threads
    )
    if not d_down.tight or any(not d.tight for d in fiber_degrees.values()):
        return {"status": "inconclusive", "reason": "bounds not tight"}
    fiber = U.fiber(a_down)

    n_aut_down = len(down.automorphisms(a_down))
    weighted = sum(
        len(up.automorphisms(a_up)) * fiber_degrees[a_up].upper for a_up in fiber
    )
    # one representative per upstairs iso class
    reps = []
    seen: set[int] = set()
    for a_up in fiber:
        if a_up in seen:
            continue
        cls = [a1 for a1 in fiber if up.iso(a1, a_up)]
        seen.update(cls)
        reps.append(a_up)
    rep_sum = sum(fiber_degrees[r].upper for r in reps)
    ok = weighted == n_aut_down * d_down.upper and rep_sum == d_down.upper
    return {
        "status": "ok" if ok else "violation",
        "downstairs_subobject_degree": d_down.upper,
        "weighted_sum_over_aut": weighted,
        "aut_down": n_aut_down,
        "iso_class_representatives": reps,
        "representative_sum": rep_sum,
        "scope": "universe-relative",
    }


def lifted_expansion(
    base: FiniteCategory,
    up_objects: list[tuple],
    up_labels: list[str],
    lifting: Callable[[tuple, tuple], Iterable[int]],
) -> ExpansionFunctor:
    """An expansion over `base` whose upstairs objects are (base object,
    decoration) pairs.  The morphisms u -> v are the base morphisms that
    `lifting(up_objects[u], up_objects[v])` lists, labelled and composed as
    in the base; the functor maps each to its base morphism."""
    upstairs, mor_map = concrete_category(
        up_labels,
        lambda u, v: ((f, base.mor_labels[f]) for f in lifting(up_objects[u], up_objects[v])),
        lambda gs, fs: [base.compose(g, f) for g in gs for f in fs],
        lambda u: base.identity(up_objects[u][0]),
    )
    object_map = {u: ob[0] for u, ob in enumerate(up_objects)}
    return ExpansionFunctor(upstairs, base, object_map, dict(enumerate(mor_map)))


@dataclass(frozen=True)
class ColoringExpansionSpec:
    base: FiniteCategory
    degree_map: tuple[tuple[int, int], ...]  # (small object, t) pairs, one per small object

    def __post_init__(self):
        seen = set()
        for a in self.small_objects:
            if a in seen:
                raise CategoryError(f"degree_map names small object {a} twice")
            seen.add(a)

    @property
    def small_objects(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.degree_map)

    def degrees(self) -> dict[int, int]:
        return dict(self.degree_map)


def build_coloring_expansion(spec: ColoringExpansionSpec) -> ExpansionFunctor:
    """The category of pairs (C, theta) over the base.

    theta assigns to each small object A a coloring hom(A, C) -> t_A; a base
    morphism f: C -> D lifts to (C, theta) -> (D, delta) exactly when
    delta(f.e) = theta(e) for every e into C.  Only small objects with
    nonempty hom into C contribute data, which keeps fibers finite.
    """
    base = spec.base
    degs = spec.degrees()
    for a in spec.small_objects:
        base.check_object(a)
        if degs[a] < 1:
            raise CategoryError(f"degree_map must be >= 1 on small object {a}")

    # enumerate fibers: theta as a tuple of color tuples, one per small object
    up_objects: list[tuple[int, tuple[tuple[int, ...], ...]]] = []
    for c in range(base.n_objects):
        hom_lists = [base.hom(a, c) for a in spec.small_objects]
        size = expected_fiber_size(spec, c)
        if size > FIBER_SIZE_CAP:
            raise CategoryError(f"fiber over object {c} has size {size} > cap {FIBER_SIZE_CAP}")
        choices = [
            list(itertools.product(range(degs[a]), repeat=len(hl)))
            for a, hl in zip(spec.small_objects, hom_lists)
        ]
        for theta in itertools.product(*choices):
            up_objects.append((c, theta))
        if len(up_objects) > TOTAL_OBJECT_CAP:
            raise CategoryError(
                f"coloring expansion has more than {TOTAL_OBJECT_CAP} objects; shrink the base or the degree map"
            )

    # position[a_pos][c][e]: the index of e in hom(small_objects[a_pos], c),
    # which is where theta[a_pos] holds the colour of e
    position = [
        [{e: i for i, e in enumerate(base.hom(a, c))} for c in range(base.n_objects)]
        for a in spec.small_objects
    ]

    def lifts(f: int, src, dst) -> bool:
        (c, theta), (d, delta) = src, dst
        for a_pos, by_object in enumerate(position):
            into_d = by_object[d]
            for e, i in by_object[c].items():
                fe = base.compose(f, e)
                j = into_d.get(fe)
                if j is None:
                    raise CategoryError(f"composite {f}*{e} = {fe} does not end at object {d}")
                if delta[a_pos][j] != theta[a_pos][i]:
                    return False
        return True

    up_labels = []
    for c, theta in up_objects:
        flat = ";".join("".join(map(str, t)) for t in theta)
        up_labels.append(f"{base.object_labels[c]}[{flat}]")

    return lifted_expansion(
        base, up_objects, up_labels, lambda src, dst: [f for f in base.hom(src[0], dst[0]) if lifts(f, src, dst)]
    )


def expected_fiber_size(spec: ColoringExpansionSpec, c: int) -> int:
    """The fiber size by formula, the product over small objects of
    t_A^|hom(A, C)|: the cap check reads it before a fiber is enumerated,
    and the matrix compares each enumerated fiber with it."""
    degs = spec.degrees()
    size = 1
    for a in spec.small_objects:
        size *= degs[a] ** len(spec.base.hom(a, c))
    return size
