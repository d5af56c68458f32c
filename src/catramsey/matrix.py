"""The verification matrix: one driver that runs every identity check on the
generated families and emits a single consolidated report.

The config names the truncations to check and nothing else: `lo_max`,
`inj_max` and `surj_max` size the LO, Inj and Surj families, and `k_max` is
the largest colour count of the degree scans.  A missing field takes its
`DEFAULT_CONFIG` value.  The node budget is an argument of `run_matrix`, as
of every other query, and the two LO arrow verdicts the report is checked
against are Ramsey's R(3,3) = 6 (`EXPECTED_LO_ARROWS`).

The canonical report section is a sorted-keys JSON document that is
byte-identical across runs and thread counts; timing and cache statistics
live in a separate stats section excluded from the canonical bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .core import MAX_MORPHISMS, CategoryError
from .generators import DEFAULT_CAPS, UniverseSpec, generate, forgetful_LO_to_Inj, object_of_size
from .arrows import ArrowQuery, check_arrow, check_arrow_dual, check_arrow_native_dual
from .degrees import degree_bounds, verify_aut_bridge, verify_product
from .essential import crosscheck_essential_arrow
from .expansions import (
    ColoringExpansionSpec,
    build_coloring_expansion,
    check_precompact,
    check_reasonable,
    check_separates_points,
    check_unique_restrictions,
    expected_fiber_size,
    verify_additivity,
    verify_ratio_formula,
)
from .kernel import DEFAULT_BUDGET, check_search_args
from .cache import ResultCache, cached_check_arrow

DEFAULT_CONFIG: dict = {"lo_max": 6, "inj_max": 4, "surj_max": 3, "k_max": 2}

# Ramsey's R(3,3) = 6: LO_6 -> (LO_3)^{LO_2}_{2,1} holds, LO_5 is too small
EXPECTED_LO_ARROWS = {"arrow_lo_6": True, "arrow_lo_5": False}


@dataclass
class RunReport:
    report: dict
    stats: dict
    status: str  # ok | violation | inconclusive

    def canonical_json(self) -> str:
        return json.dumps(self.report, sort_keys=True, separators=(",", ":"))

    def as_dict(self) -> dict:
        return {"status": self.status, "report": self.report, "stats": self.stats}


def worst_status(statuses) -> str:
    """violation if any status is one, else inconclusive if any is, else ok."""
    statuses = set(statuses)
    return "violation" if "violation" in statuses else ("inconclusive" if "inconclusive" in statuses else "ok")


# the least and greatest value of each field.  A family's size is its
# generation cap at most; 0, like any size below a cell's threshold, skips
# that family's cells.  Colourings start at 2 colours, and more colours than
# the MAX_MORPHISMS items a domain can have only repeat a verdict.
_FIELD_RANGES = {
    "lo_max": (0, DEFAULT_CAPS["LO"]),
    "inj_max": (0, DEFAULT_CAPS["Inj"]),
    "surj_max": (0, DEFAULT_CAPS["Surj"]),
    "k_max": (2, MAX_MORPHISMS),
}


def _check_config(config) -> None:
    """Refuse a config of the wrong shape before any cell runs."""
    if not isinstance(config, dict):
        raise CategoryError(f"config must be a JSON object, got {type(config).__name__}")
    for name, value in config.items():
        # a misspelt key would otherwise be ignored and its default used in silence
        if name not in _FIELD_RANGES:
            raise CategoryError(f"unknown config field {name!r}; known: {', '.join(sorted(_FIELD_RANGES))}")
        # bool is an int subclass, but JSON true is no size
        if type(value) is not int:
            raise CategoryError(f"config field {name!r} must be an integer, got {value!r}")
        least, most = _FIELD_RANGES[name]
        if not least <= value <= most:
            raise CategoryError(f"config field {name!r} must be in {least}..{most}, got {value}")


def run_matrix(
    config: dict | None = None,
    threads: int = 1,
    cache: ResultCache | None = None,
    budget: int = DEFAULT_BUDGET,
) -> RunReport:
    if config is None:
        config = DEFAULT_CONFIG
    _check_config(config)
    check_search_args(budget, threads)
    if cache is None:
        cache = ResultCache(directory=None)
    t_start = time.monotonic()
    cells: dict[str, dict] = {}

    # a missing field takes its DEFAULT_CONFIG value; the report echoes the config as given
    full = {**DEFAULT_CONFIG, **config}
    _lo_arrow_cells(cells, full, budget, threads, cache)
    _inj_bridge_cell(cells, full, budget, threads)
    _expansion_cells(cells, full, budget, threads)
    _product_cell(cells, full, budget, threads)
    _dual_cells(cells, full, budget, threads)
    _essential_arrow_cells(cells, full, budget, threads)
    _coloring_expansion_cell(cells, full)

    status = worst_status(c.get("status", "ok") for c in cells.values())
    report = {"config": config, "cells": cells, "status": status}
    stats = {
        "elapsed_ms": int((time.monotonic() - t_start) * 1000),
        "threads": threads,
        "budget": budget,
        "cache": cache.stats(),
    }
    return RunReport(report=report, stats=stats, status=status)


def _lo_arrow_cells(cells, config, budget, threads, cache):
    if config["lo_max"] < 6:
        return
    lo = generate(UniverseSpec("LO", config["lo_max"]))
    A = object_of_size(lo, "LO", 2)
    B = object_of_size(lo, "LO", 3)
    for size, name in ((6, "arrow_lo_6"), (5, "arrow_lo_5")):
        C = object_of_size(lo, "LO", size)
        v = cached_check_arrow(cache, lo, ArrowQuery(A, B, C, 2, 1), budget=budget, threads=threads)
        expected = EXPECTED_LO_ARROWS[name]
        if v.holds is None:
            status = "inconclusive"
        elif v.holds == expected:
            status = "ok"
        else:
            status = "violation"
        cell = {"status": status, "holds": v.holds, "expected": expected}
        if v.witness is not None:
            cell["witness"] = {str(m): c for m, c in zip(v.domain, v.witness)}
        cells[name] = cell


def _inj_bridge_cell(cells, config, budget, threads):
    if config["inj_max"] < 4:
        return
    inj = generate(UniverseSpec("Inj", config["inj_max"]))
    A2 = object_of_size(inj, "Inj", 2)
    dm = degree_bounds(inj, A2, "morphism", config["k_max"], budget=budget, threads=threads)
    ds = degree_bounds(inj, A2, "subobject", config["k_max"], budget=budget, threads=threads)
    bridge = verify_aut_bridge(inj, A2, dm, ds)
    cells["aut_bridge_inj_2"] = {
        "status": bridge["status"],
        "morphism_degree": dm.upper,
        "subobject_degree": ds.upper,
        "aut": bridge.get("aut"),
    }


def _expansion_cells(cells, config, budget, threads):
    size = min(config["inj_max"], 3)
    if size < 3:
        return
    U = forgetful_LO_to_Inj(size)
    inj = U.downstairs
    A2 = object_of_size(inj, "Inj", 2)
    pools = dict(
        B_pool_down=[A2],
        C_universe_down=[A2, object_of_size(inj, "Inj", 3)],
    )
    add = verify_additivity(U, A2, budget=budget, threads=threads, **pools)
    cells["additivity_lo_inj_2"] = {
        "status": add["status"],
        "downstairs_degree": add.get("downstairs_degree"),
        "fiber_degrees": {str(k): v for k, v in add.get("fiber_degrees", {}).items()},
        "equality": add.get("equality"),
        "hypotheses": add.get("hypotheses"),
    }
    ratio = verify_ratio_formula(U, A2, budget=budget, threads=threads, **pools)
    cells["ratio_lo_inj_2"] = {
        "status": ratio["status"],
        "downstairs_subobject_degree": ratio.get("downstairs_subobject_degree"),
        "representative_sum": ratio.get("representative_sum"),
    }


def _product_cell(cells, config, budget, threads):
    if config["inj_max"] < 3:
        return
    inj = generate(UniverseSpec("Inj", min(config["inj_max"], 4)))
    lo = generate(UniverseSpec("LO", 2))
    A2 = object_of_size(inj, "Inj", 2)
    A1 = object_of_size(lo, "LO", 1)
    rep = verify_product(inj, lo, A2, A1, k_max=config["k_max"], budget=budget, threads=threads)
    cells["product_inj2_lo1"] = {
        "status": rep["status"],
        "factor_degrees": rep.get("factor_degrees"),
        "product_degree_upper": rep.get("product_degree_upper"),
        "bound": rep.get("bound"),
        "equality": rep.get("equality"),
    }


def _dual_cells(cells, config, budget, threads):
    if config["surj_max"] < 2:
        return
    surj = generate(UniverseSpec("Surj", config["surj_max"]))
    mismatches = []
    checked = 0
    inconclusive = False
    for A in range(surj.n_objects):
        for B in range(surj.n_objects):
            for C in range(surj.n_objects):
                q = ArrowQuery(A, B, C, 2, 1)
                via_opposite = check_arrow_dual(surj, q, budget=budget, threads=threads)
                native = check_arrow_native_dual(surj, q, budget=budget, threads=threads)
                checked += 1
                if via_opposite.holds is None or native.holds is None:
                    inconclusive = True
                elif via_opposite.holds != native.holds or via_opposite.witness != native.witness:
                    mismatches.append(
                        {"A": A, "B": B, "C": C, "k": q.k, "t": q.t,
                         "opposite": via_opposite.holds, "native": native.holds}
                    )
    status = "violation" if mismatches else ("inconclusive" if inconclusive else "ok")
    cells["dual_routes_surj"] = {"status": status, "checked": checked, "mismatches": mismatches}


def _essential_arrow_cells(cells, config, budget, threads):
    entries = []
    if config["lo_max"] >= 6:
        lo = generate(UniverseSpec("LO", 6))
        A = object_of_size(lo, "LO", 2)
        B = object_of_size(lo, "LO", 3)
        F = object_of_size(lo, "LO", 6)
        for t in (2, 3):
            rep = crosscheck_essential_arrow(lo, A, B, F, t, budget=budget, threads=threads)
            entries.append({"family": "LO", "t": t, **rep})
    if config["inj_max"] >= 3:
        inj = generate(UniverseSpec("Inj", 3))
        A1 = object_of_size(inj, "Inj", 1)
        B2 = object_of_size(inj, "Inj", 2)
        F3 = object_of_size(inj, "Inj", 3)
        for t in (2, 3):
            rep = crosscheck_essential_arrow(inj, A1, B2, F3, t, budget=budget, threads=threads)
            entries.append({"family": "Inj", "t": t, **rep})
    if entries:
        cells["essential_arrow_crosscheck"] = {"status": worst_status(e["status"] for e in entries), "entries": entries}


def _coloring_expansion_cell(cells, config):
    if config["inj_max"] < 2:
        return
    inj = generate(UniverseSpec("Inj", 2))
    A1 = object_of_size(inj, "Inj", 1)
    A2 = object_of_size(inj, "Inj", 2)
    spec = ColoringExpansionSpec(base=inj, degree_map=((A1, 1), (A2, 2)))
    U = build_coloring_expansion(spec)
    sizes = check_precompact(U)["fiber_sizes"]
    counting_ok = all(sizes[c] == expected_fiber_size(spec, c) for c in range(inj.n_objects))
    checks = {
        "functor": U.validate_functor()["status"],
        "reasonable": check_reasonable(U)["status"],
        "unique_restrictions": check_unique_restrictions(U)["status"],
        "separates_points": check_separates_points(U)["status"],
    }
    ok = counting_ok and all(v == "ok" for v in checks.values())
    cells["coloring_expansion_inj_2"] = {
        "status": "ok" if ok else "violation",
        "fiber_sizes": {str(c): sizes[c] for c in sizes},
        "counting_formula_ok": counting_ok,
        "checks": checks,
    }
