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
from .generators import UniverseSpec, generate
from . import io as catio
from .arrows import ArrowQuery, check_arrow_dual, check_arrow_native_dual
from .degrees import degree_bounds, verify_aut_bridge, verify_product, dual_degree_bounds
from .kernel import DEFAULT_BUDGET
from .cache import ResultCache, cached_check_arrow

# Every module an arrow or degree query reaches is imported here; the
# handlers of the essential, expansion and matrix commands import those
# layers when they run, so that no other query pays for loading them.
# perfbench's tracer wraps only the modules already imported when it is
# installed, which is after this import.

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_FAMILY = {"lo": "LO", "inj": "Inj", "surj": "Surj"}
_MODE = {"m": "morphism", "s": "subobject", "morphism": "morphism", "subobject": "subobject"}


def _status_exit(status: str) -> int:
    return {"ok": EXIT_OK, "violation": EXIT_VIOLATION, "inconclusive": EXIT_INCONCLUSIVE}.get(status, EXIT_VIOLATION)


def _ids(text: str | None) -> list[int] | None:
    """Comma-separated object ids; absent or empty means the default pool."""
    return [int(x) for x in text.split(",") if x != ""] if text else None


def _search(args) -> dict:
    """The global node budget and thread count, as every search takes them."""
    return {"budget": args.budget, "threads": args.threads}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="catramsey", description=__doc__)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="accepted and echoed; all computations are exhaustive and deterministic")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="DFS node budget")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a built-in category family")
    g.set_defaults(run=_gen)
    g.add_argument("--family", choices=sorted(_FAMILY), required=True)
    g.add_argument("--max", type=int, required=True)
    g.add_argument("--out", required=True)

    v = sub.add_parser("validate", help="check the category axioms of a file")
    v.set_defaults(run=_validate)
    v.add_argument("--cat", required=True)

    h = sub.add_parser("hom", help="enumerate hom(A, B)")
    h.set_defaults(run=_hom)
    h.add_argument("--cat", required=True)
    h.add_argument("--A", type=int, required=True)
    h.add_argument("--B", type=int, required=True)

    a = sub.add_parser("aut", help="automorphisms of an object")
    a.set_defaults(run=_aut)
    a.add_argument("--cat", required=True)
    a.add_argument("--A", type=int, required=True)

    ar = sub.add_parser("arrow", help="decide the arrow relation C -> (B)^A_{k,t}")
    ar.set_defaults(run=_arrow)
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
    d.set_defaults(run=_degree)
    d.add_argument("--cat", required=True)
    d.add_argument("--A", type=int, required=True)
    d.add_argument("--mode", choices=sorted(set(_MODE)), default="morphism")
    d.add_argument("--kmax", type=int, default=2)
    d.add_argument("--universe", type=str, default=None, help="comma-separated object ids")
    d.add_argument("--bpool", type=str, default=None, help="comma-separated object ids")
    d.add_argument("--dual", action="store_true")

    e = sub.add_parser("essential", help="essential-at-B coloring existence")
    e.set_defaults(run=_essential)
    e.add_argument("--cat", required=True)
    e.add_argument("--A", type=int, required=True)
    e.add_argument("--B", type=int, required=True)
    e.add_argument("--ambient", type=int, required=True)
    e.add_argument("--t", type=int, default=2)
    e.add_argument("--crosscheck", action="store_true", help="also run the arrow-relation equivalence")

    x = sub.add_parser("expansion", help="expansion-functor operations")
    xsub = x.add_subparsers(dest="expansion_command", required=True)
    xc = xsub.add_parser("check", help="run all functor axiom checks")
    xc.set_defaults(run=_expansion_check)
    xc.add_argument("--functor", required=True)
    xb = xsub.add_parser("build-coloring", help="build the coloring-expansion category")
    xb.set_defaults(run=_expansion_build_coloring)
    xb.add_argument("--base", required=True)
    xb.add_argument("--degrees", required=True, help="object=t pairs, comma separated")
    xb.add_argument("--out", default=None)
    xa = xsub.add_parser("verify-additivity", help="degree additivity over fibers")
    xa.set_defaults(run=_expansion_verify_additivity)
    xa.add_argument("--functor", required=True)
    xa.add_argument("--A", type=int, required=True)
    xa.add_argument("--kmax", type=int, default=2)
    xa.add_argument("--bpool", type=str, default=None)
    xa.add_argument("--universe", type=str, default=None)

    ver = sub.add_parser("verify", help="verify a degree identity")
    vsub = ver.add_subparsers(dest="verify_command", required=True)
    vb = vsub.add_parser("aut-bridge", help="morphism degree = |Aut| * subobject degree")
    vb.set_defaults(run=_verify_aut_bridge)
    vb.add_argument("--cat", required=True)
    vb.add_argument("--A", type=int, required=True)
    vb.add_argument("--kmax", type=int, default=2)
    vp = vsub.add_parser("product", help="product degree <= product of factor degrees")
    vp.set_defaults(run=_verify_product)
    vp.add_argument("--cat1", required=True)
    vp.add_argument("--cat2", required=True)
    vp.add_argument("--A1", type=int, required=True)
    vp.add_argument("--A2", type=int, required=True)
    vp.add_argument("--kmax", type=int, default=2)
    vd = vsub.add_parser("dual", help="native dual route against the opposite-category route")
    vd.set_defaults(run=_verify_dual)
    vd.add_argument("--cat", required=True)
    vd.add_argument("--A", type=int, required=True)
    vd.add_argument("--kmax", type=int, default=2)

    m = sub.add_parser("matrix", help="run the full verification matrix")
    m.set_defaults(run=_matrix)
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
        doc, code = args.run(args)
        if args.seed is not None:
            doc = {**doc, "seed": args.seed}
        print(json.dumps(doc, sort_keys=True))
        return code
    # an unreadable input, an unwritable output or cache directory is the
    # caller's to fix, not a violation
    except (CategoryError, OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


# One handler per leaf subcommand: args -> (JSON document, exit code).


def _gen(args):
    cat = generate(UniverseSpec(_FAMILY[args.family], args.max))
    catio.dump_category_file(cat, args.out)
    return {"written": args.out, "objects": cat.n_objects, "morphisms": cat.n_morphisms}, EXIT_OK


def _validate(args):
    report = validate(catio.load_category_file(args.cat))
    return report.as_dict(), EXIT_OK if report.ok else EXIT_VIOLATION


def _hom(args):
    arrows = catio.load_category_file(args.cat).hom(args.A, args.B)
    return {"A": args.A, "B": args.B, "arrows": list(arrows), "count": len(arrows)}, EXIT_OK


def _aut(args):
    auts = catio.load_category_file(args.cat).automorphisms(args.A)
    return {"A": args.A, "automorphisms": list(auts), "count": len(auts)}, EXIT_OK


def _arrow(args):
    cat = catio.load_category_file(args.cat)
    q = ArrowQuery(args.A, args.B, args.C, args.k, args.t, _MODE[args.mode])
    t0 = time.monotonic()
    if args.native_dual:
        v = check_arrow_native_dual(cat, q, **_search(args))
    elif args.dual:
        v = check_arrow_dual(cat, q, **_search(args))
    else:
        v = cached_check_arrow(ResultCache(), cat, q, **_search(args))
    doc = {**v.as_dict(), "elapsed_ms": int((time.monotonic() - t0) * 1000)}
    return doc, EXIT_INCONCLUSIVE if v.holds is None else EXIT_OK


def _degree(args):
    cat = catio.load_category_file(args.cat)
    bounds = dual_degree_bounds if args.dual else degree_bounds
    bound = bounds(cat, args.A, _MODE[args.mode], args.kmax, _ids(args.bpool), _ids(args.universe), **_search(args))
    return bound.as_dict(), EXIT_OK if bound.upper is not None else EXIT_INCONCLUSIVE


def _essential(args):
    from .essential import EssentialQuery, crosscheck_essential_arrow, find_essential_at_B

    cat = catio.load_category_file(args.cat)
    lam = find_essential_at_B(cat, EssentialQuery(args.A, args.B, args.ambient, args.t))
    doc = {"exists": lam is not None}
    if lam is not None:
        doc["lambda"] = {str(f): c for f, c in sorted(lam.items())}
    if not args.crosscheck:
        return doc, EXIT_OK
    doc["crosscheck"] = crosscheck_essential_arrow(cat, args.A, args.B, args.ambient, args.t, **_search(args))
    return doc, _status_exit(doc["crosscheck"]["status"])


def _expansion_check(args):
    from . import expansions
    from .matrix import worst_status

    U = catio.load_functor_file(args.functor)
    checks = {
        "functor": U.validate_functor(),
        "reasonable": expansions.check_reasonable(U),
        "unique_restrictions": expansions.check_unique_restrictions(U),
        "restriction_laws": expansions.check_restriction_laws(U),
        "disjoint_union": expansions.check_disjoint_union(U),
        "precompact": expansions.check_precompact(U),
        "separates_points": expansions.check_separates_points(U),
        "expansion_property": expansions.check_expansion_property(U),
    }
    status = worst_status(c["status"] for c in checks.values())
    return {"status": status, "checks": checks}, _status_exit(status)


def _expansion_build_coloring(args):
    from .expansions import ColoringExpansionSpec, build_coloring_expansion

    base = catio.load_category_file(args.base)
    degree_map = tuple((int(obj), int(t)) for obj, t in (pair.split("=") for pair in args.degrees.split(",")))
    U = build_coloring_expansion(ColoringExpansionSpec(base=base, degree_map=degree_map))
    doc = {
        "upstairs_objects": U.upstairs.n_objects,
        "upstairs_morphisms": U.upstairs.n_morphisms,
        "fiber_sizes": {str(a): len(U.fiber(a)) for a in range(base.n_objects)},
    }
    if args.out:
        catio.dump_functor_file(U, args.out)
        doc["written"] = args.out
    return doc, EXIT_OK


def _expansion_verify_additivity(args):
    from .expansions import verify_additivity

    U = catio.load_functor_file(args.functor)
    rep = verify_additivity(U, args.A, args.kmax, _ids(args.bpool), _ids(args.universe), **_search(args))
    return rep, _status_exit(rep["status"])


def _verify_aut_bridge(args):
    cat = catio.load_category_file(args.cat)
    dm, ds = (degree_bounds(cat, args.A, mode, args.kmax, **_search(args)) for mode in ("morphism", "subobject"))
    rep = verify_aut_bridge(cat, args.A, dm, ds)
    return rep, _status_exit(rep["status"])


def _verify_product(args):
    cat1 = catio.load_category_file(args.cat1)
    cat2 = catio.load_category_file(args.cat2)
    rep = verify_product(cat1, cat2, args.A1, args.A2, k_max=args.kmax, **_search(args))
    return rep, _status_exit(rep["status"])


def _verify_dual(args):
    cat = catio.load_category_file(args.cat)
    opposite, native = (
        dual_degree_bounds(cat, args.A, k_max=args.kmax, route=r, **_search(args)) for r in ("opposite", "native")
    )
    status = "ok" if (opposite.lower, opposite.upper) == (native.lower, native.upper) else "violation"
    doc = {"status": status, "opposite_route": opposite.as_dict(), "native_route": native.as_dict()}
    return doc, _status_exit(status)


def _matrix(args):
    from .matrix import run_matrix

    config = _read_config(args.config) if args.config else None
    rep = run_matrix(config, cache=ResultCache(), **_search(args))
    return rep.as_dict(), _status_exit(rep.status)


def _read_config(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # the decoder recurses once per level of nesting
        except RecursionError:
            raise ValueError(f"config {path} nests too deeply") from None


if __name__ == "__main__":
    sys.exit(main())
