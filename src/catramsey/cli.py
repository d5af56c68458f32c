"""Command-line front end.

Every subcommand prints a single JSON document to stdout.  Exit codes:
0 = ok, 1 = violation, 2 = inconclusive, 3 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .core import CategoryError, validate
from .generators import UniverseSpec, generate, forgetful_LO_to_Inj
from . import io as catio
from .arrows import ArrowQuery, check_arrow, check_arrow_dual, check_arrow_native_dual
from .degrees import degree_bounds, verify_aut_bridge, verify_product, dual_degree_bounds
from .essential import EssentialQuery, find_essential_at_B, crosscheck_essential_arrow
from .expansions import (
    ColoringExpansionSpec,
    build_coloring_expansion,
    check_disjoint_union,
    check_expansion_property,
    check_precompact,
    check_reasonable,
    check_restriction_laws,
    check_separates_points,
    check_unique_restrictions,
    verify_additivity,
)
from .kernel import DEFAULT_BUDGET
from .cache import ResultCache, cached_check_arrow
from .matrix import DEFAULT_CONFIG, run_matrix, worst_status

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_FAMILY = {"lo": "LO", "inj": "Inj", "surj": "Surj"}
_MODE = {"m": "morphism", "s": "subobject", "morphism": "morphism", "subobject": "subobject"}


def _emit(doc: dict, seed: int | None) -> None:
    if seed is not None:
        doc = {**doc, "seed": seed}
    print(json.dumps(doc, sort_keys=True))


def _status_exit(status: str) -> int:
    return {"ok": EXIT_OK, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}.get(status, EXIT_VIOLATION)


def _ids(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="catramsey", description=__doc__)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="accepted and echoed; all computations are exhaustive and deterministic")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="DFS node budget")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a built-in category family")
    g.add_argument("--family", choices=sorted(_FAMILY), required=True)
    g.add_argument("--max", type=int, required=True)
    g.add_argument("--out", required=True)

    v = sub.add_parser("validate", help="check the category axioms of a file")
    v.add_argument("--cat", required=True)

    h = sub.add_parser("hom", help="enumerate hom(A, B)")
    h.add_argument("--cat", required=True)
    h.add_argument("--A", type=int, required=True)
    h.add_argument("--B", type=int, required=True)

    a = sub.add_parser("aut", help="automorphisms of an object")
    a.add_argument("--cat", required=True)
    a.add_argument("--A", type=int, required=True)

    ar = sub.add_parser("arrow", help="decide the arrow relation C -> (B)^A_{k,t}")
    ar.add_argument("--cat", required=True)
    ar.add_argument("--A", type=int, required=True)
    ar.add_argument("--B", type=int, required=True)
    ar.add_argument("--C", type=int, required=True)
    ar.add_argument("--k", type=int, default=2)
    ar.add_argument("--t", type=int, default=1)
    ar.add_argument("--mode", choices=sorted(set(_MODE)), default="morphism")
    routes = ar.add_mutually_exclusive_group()
    routes.add_argument("--dual", action="store_true", help="evaluate in the opposite category")
    routes.add_argument("--native-dual", action="store_true", help="dual route without building the opposite")

    d = sub.add_parser("degree", help="universe-relative degree bounds")
    d.add_argument("--cat", required=True)
    d.add_argument("--A", type=int, required=True)
    d.add_argument("--mode", choices=sorted(set(_MODE)), default="morphism")
    d.add_argument("--kmax", type=int, default=2)
    d.add_argument("--universe", type=str, default=None, help="comma-separated object ids")
    d.add_argument("--bpool", type=str, default=None, help="comma-separated object ids")
    d.add_argument("--dual", action="store_true")

    e = sub.add_parser("essential", help="essential-at-B coloring existence")
    e.add_argument("--cat", required=True)
    e.add_argument("--A", type=int, required=True)
    e.add_argument("--B", type=int, required=True)
    e.add_argument("--ambient", type=int, required=True)
    e.add_argument("--t", type=int, default=2)
    e.add_argument("--crosscheck", action="store_true", help="also run the arrow-relation equivalence")

    x = sub.add_parser("expansion", help="expansion-functor operations")
    xsub = x.add_subparsers(dest="expansion_command", required=True)
    xc = xsub.add_parser("check", help="run all functor axiom checks")
    xc.add_argument("--functor", required=True)
    xb = xsub.add_parser("build-coloring", help="build the coloring-expansion category")
    xb.add_argument("--base", required=True)
    xb.add_argument("--degrees", required=True, help="object=t pairs, comma separated")
    xb.add_argument("--out", default=None)
    xa = xsub.add_parser("verify-additivity", help="degree additivity over fibers")
    xa.add_argument("--functor", required=True)
    xa.add_argument("--A", type=int, required=True)
    xa.add_argument("--kmax", type=int, default=2)
    xa.add_argument("--bpool", type=str, default=None)
    xa.add_argument("--universe", type=str, default=None)

    ver = sub.add_parser("verify", help="verify a degree identity")
    vsub = ver.add_subparsers(dest="verify_command", required=True)
    vb = vsub.add_parser("aut-bridge", help="morphism degree = |Aut| * subobject degree")
    vb.add_argument("--cat", required=True)
    vb.add_argument("--A", type=int, required=True)
    vb.add_argument("--kmax", type=int, default=2)
    vp = vsub.add_parser("product", help="product degree <= product of factor degrees")
    vp.add_argument("--cat1", required=True)
    vp.add_argument("--cat2", required=True)
    vp.add_argument("--A1", type=int, required=True)
    vp.add_argument("--A2", type=int, required=True)
    vp.add_argument("--kmax", type=int, default=2)
    vd = vsub.add_parser("dual", help="native dual route against the opposite-category route")
    vd.add_argument("--cat", required=True)
    vd.add_argument("--A", type=int, required=True)
    vd.add_argument("--kmax", type=int, default=2)

    m = sub.add_parser("matrix", help="run the full verification matrix")
    m.add_argument("--config", default=None, help="JSON config file; omitted = built-in default")

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # checked here, not only in solve(): a query that never searches
        # would otherwise accept them
        if args.budget < 0:
            raise ValueError(f"budget must be >= 0, got {args.budget}")
        if args.threads < 1:
            raise ValueError(f"threads must be >= 1, got {args.threads}")
        return _dispatch(args)
    # an unreadable input, an unwritable output or cache directory is the
    # caller's to fix, not a violation
    except (CategoryError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    seed = args.seed
    threads = args.threads
    budget = args.budget

    if args.command == "gen":
        cat = generate(UniverseSpec(_FAMILY[args.family], args.max))
        catio.dump_category_file(cat, args.out)
        _emit({"written": args.out, "objects": cat.n_objects, "morphisms": cat.n_morphisms}, seed)
        return EXIT_OK

    if args.command == "validate":
        cat = catio.load_category_file(args.cat)
        report = validate(cat)
        _emit(report.as_dict(), seed)
        return EXIT_OK if report.ok else EXIT_VIOLATION

    if args.command == "hom":
        cat = catio.load_category_file(args.cat)
        arrows = cat.hom(args.A, args.B)
        _emit({"A": args.A, "B": args.B, "arrows": list(arrows), "count": len(arrows)}, seed)
        return EXIT_OK

    if args.command == "aut":
        cat = catio.load_category_file(args.cat)
        auts = cat.automorphisms(args.A)
        _emit({"A": args.A, "automorphisms": list(auts), "count": len(auts)}, seed)
        return EXIT_OK

    if args.command == "arrow":
        cat = catio.load_category_file(args.cat)
        q = ArrowQuery(args.A, args.B, args.C, args.k, args.t, _MODE[args.mode])
        t0 = time.monotonic()
        if args.native_dual:
            v = check_arrow_native_dual(cat, q, budget=budget, threads=threads)
        elif args.dual:
            v = check_arrow_dual(cat, q, budget=budget, threads=threads)
        else:
            cache = ResultCache()
            v = cached_check_arrow(cache, cat, q, budget=budget, threads=threads)
        doc = v.as_dict()
        doc["elapsed_ms"] = int((time.monotonic() - t0) * 1000)
        _emit(doc, seed)
        return EXIT_INCONCLUSIVE if v.holds is None else EXIT_OK

    if args.command == "degree":
        cat = catio.load_category_file(args.cat)
        kwargs = dict(
            mode=_MODE[args.mode],
            k_max=args.kmax,
            B_pool=_ids(args.bpool) if args.bpool else None,
            C_universe=_ids(args.universe) if args.universe else None,
            budget=budget,
            threads=threads,
        )
        if args.dual:
            bound = dual_degree_bounds(cat, args.A, **kwargs)
        else:
            bound = degree_bounds(cat, args.A, **kwargs)
        _emit(bound.as_dict(), seed)
        return EXIT_OK if bound.upper is not None else EXIT_INCONCLUSIVE

    if args.command == "essential":
        cat = catio.load_category_file(args.cat)
        q = EssentialQuery(args.A, args.B, args.ambient, args.t)
        lam = find_essential_at_B(cat, q)
        doc = {"exists": lam is not None}
        if lam is not None:
            doc["lambda"] = {str(f): c for f, c in sorted(lam.items())}
        if args.crosscheck:
            doc["crosscheck"] = crosscheck_essential_arrow(cat, args.A, args.B, args.ambient, args.t, budget=budget, threads=threads)
            _emit(doc, seed)
            return _status_exit(doc["crosscheck"]["status"])
        _emit(doc, seed)
        return EXIT_OK

    if args.command == "expansion":
        return _dispatch_expansion(args, seed, budget, threads)

    if args.command == "verify":
        return _dispatch_verify(args, seed, budget, threads)

    if args.command == "matrix":
        config = DEFAULT_CONFIG
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                config = json.load(fh)
        cache = ResultCache()
        rep = run_matrix(config, threads=threads, cache=cache, budget=budget)
        _emit(rep.as_dict(), seed)
        return _status_exit(rep.status)

    return EXIT_USAGE


def _dispatch_expansion(args, seed, budget, threads) -> int:
    if args.expansion_command == "check":
        U = catio.load_functor_file(args.functor)
        checks = {
            "functor": U.validate_functor(),
            "reasonable": check_reasonable(U),
            "unique_restrictions": check_unique_restrictions(U),
            "restriction_laws": check_restriction_laws(U),
            "disjoint_union": check_disjoint_union(U),
            "precompact": check_precompact(U),
            "separates_points": check_separates_points(U),
            "expansion_property": check_expansion_property(U),
        }
        status = worst_status(c["status"] for c in checks.values())
        _emit({"status": status, "checks": checks}, seed)
        return _status_exit(status)

    if args.expansion_command == "build-coloring":
        base = catio.load_category_file(args.base)
        degree_map = []
        for pair in args.degrees.split(","):
            obj, t = pair.split("=")
            degree_map.append((int(obj), int(t)))
        spec = ColoringExpansionSpec(base=base, degree_map=tuple(degree_map))
        U = build_coloring_expansion(spec)
        doc = {
            "upstairs_objects": U.upstairs.n_objects,
            "upstairs_morphisms": U.upstairs.n_morphisms,
            "fiber_sizes": {str(a): len(U.fiber(a)) for a in range(base.n_objects)},
        }
        if args.out:
            catio.dump_functor_file(U, args.out)
            doc["written"] = args.out
        _emit(doc, seed)
        return EXIT_OK

    if args.expansion_command == "verify-additivity":
        U = catio.load_functor_file(args.functor)
        rep = verify_additivity(
            U,
            args.A,
            k_max=args.kmax,
            B_pool_down=_ids(args.bpool) if args.bpool else None,
            C_universe_down=_ids(args.universe) if args.universe else None,
            budget=budget,
            threads=threads,
        )
        _emit(rep, seed)
        return _status_exit(rep["status"])

    return EXIT_USAGE


def _dispatch_verify(args, seed, budget, threads) -> int:
    if args.verify_command == "aut-bridge":
        cat = catio.load_category_file(args.cat)
        dm = degree_bounds(cat, args.A, "morphism", args.kmax, budget=budget, threads=threads)
        ds = degree_bounds(cat, args.A, "subobject", args.kmax, budget=budget, threads=threads)
        rep = verify_aut_bridge(cat, args.A, dm, ds)
        _emit(rep, seed)
        return _status_exit(rep["status"])

    if args.verify_command == "product":
        cat1 = catio.load_category_file(args.cat1)
        cat2 = catio.load_category_file(args.cat2)
        rep = verify_product(cat1, cat2, args.A1, args.A2, k_max=args.kmax, budget=budget, threads=threads)
        _emit(rep, seed)
        return _status_exit(rep["status"])

    if args.verify_command == "dual":
        cat = catio.load_category_file(args.cat)
        via_opposite = dual_degree_bounds(cat, args.A, k_max=args.kmax, budget=budget, threads=threads, route="opposite")
        native = dual_degree_bounds(cat, args.A, k_max=args.kmax, budget=budget, threads=threads, route="native")
        agree = (via_opposite.lower, via_opposite.upper) == (native.lower, native.upper)
        status = "ok" if agree else "violation"
        _emit(
            {
                "status": status,
                "opposite_route": via_opposite.as_dict(),
                "native_route": native.as_dict(),
            },
            seed,
        )
        return _status_exit(status)

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
