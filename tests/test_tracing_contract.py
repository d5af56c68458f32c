"""The benchmark's tracer patches named callables of the package: every
public module-level function, and the FiniteCategory and ResultCache methods
listed in perfbench/tracing.py.  Renaming or deleting one of them breaks the
traced benchmark run, so this runs the tracer over a small matrix and a
kernel search in a fresh process, and over CLI queries as perfbench's
launcher runs them: catramsey.cli imported first, the tracer installed after."""

import json
import os
import subprocess
import sys
from pathlib import Path

from catramsey import io as catio
from catramsey.generators import UniverseSpec, generate

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
from catramsey import cache, kernel, matrix
import tracing

tracer = tracing.Tracer()
tracer.install()
try:
    # called through their modules, as the benchmark calls them, so that the
    # patched names are the ones reached
    report = matrix.run_matrix({"lo_max": 6, "inj_max": 3, "surj_max": 2}, cache=cache.ResultCache(sys.argv[1]))
    problem = kernel.build_problem(4, [frozenset({0, 1, 2}), frozenset({1, 2, 3})], 2, 1, [])
    outcome = kernel.solve(problem)
finally:
    tracer.uninstall()
print(json.dumps({
    "status": report.status,
    "witness": outcome.witness,
    "spans": sorted({s["name"] for s in tracer.records()}),
    "counts": dict(tracer.counts),
}))
"""


def test_tracer_installs_over_a_matrix_and_a_search(tmp_path):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "cache")], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["status"] == "ok" and doc["witness"] is not None
    for name in (
        "matrix.run_matrix", "kernel.solve", "kernel.search_from_prefix", "arrows.check_arrow",
        "cache.cached_check_arrow", "cache.get", "cache.put",
        "core.category_init", "core.opposite", "core.automorphisms", "core.subobject_classes",
    ):
        assert name in doc["spans"]
    assert doc["counts"]["core.compose"] > 0 and doc["counts"]["core.is_mono"] > 0


CLI_PROBE = """
import contextlib, io, json, sys
import catramsey.cli
import tracing

cat = sys.argv[1]
tracer = tracing.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            catramsey.cli.main(["degree", "--cat", cat, "--A", "1"]),
            catramsey.cli.main(["arrow", "--cat", cat, "--A", "0", "--B", "1", "--C", "3"]),
        ]
finally:
    tracer.uninstall()
print(json.dumps({"codes": codes, "spans": sorted({s["name"] for s in tracer.records()})}))
"""


def test_tracer_sees_the_layers_a_cli_query_reaches(tmp_path):
    # the tracer wraps only modules loaded before it is installed, so a layer
    # that the CLI imported lazily would drop out of these spans in silence
    cat = tmp_path / "lo4.txt"
    catio.dump_category_file(generate(UniverseSpec("LO", 4)), str(cat))
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), "CATRAMSEY_CACHE_DIR": str(tmp_path / "cache")}
    out = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, str(cat)], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["codes"] == [0, 0]
    for name in (
        "cli.main", "io.load_category", "degrees.degree_bounds", "cache.cached_check_arrow", "cache.get", "kernel.solve",
    ):
        assert name in doc["spans"]
