"""The benchmark's search workload checks, once per run, that the pure and
the compiled kernel walk the same trees on its suite, passing
build_problem's layout straight to both kernels' search_from_prefix.  A
change to that layout, or to either kernel's reading of it, would make the
benchmark fail; this runs the same check on three instances of its suite in
a fresh process, so that Tier-1 fails first.

The cli-stream workload times the load of its category files through the
compiled reader; a change that sent them to the pure reader would move its
times, so that is checked here too."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catramsey import io as catio, kernel
from catramsey.generators import UniverseSpec, generate
from conftest import same_category

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json
import run
from catramsey import kernel

bench = run.SearchWorkload(1, None, {})
# two circulant instances, whose rotations include the identity, and a random one
circulant = [inst for inst in bench.suite if inst["perms"]]
bench.suite = circulant[:2] + [inst for inst in bench.suite if not inst["perms"]][:1]
print(json.dumps({"impl": kernel.IMPL, "names": [inst["name"] for inst in bench.suite], "bad": bench.kernel_parity()}))
"""


def test_search_workload_kernel_parity_holds():
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    if doc["impl"] != "compiled":
        pytest.skip("no compiled kernel to compare: the library is not built")
    assert len(doc["names"]) == 3
    assert doc["bad"] == []


def test_cli_stream_categories_load_through_the_compiled_reader(tmp_path, monkeypatch):
    if kernel.READER is None:
        pytest.skip("no compiled reader: the library is not built")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    def pure_reader(*args):
        raise AssertionError("the pure reader ran")

    monkeypatch.setattr(catio, "_read_category", pure_reader)
    # written as the workload writes them, and read as the CLI reads them
    for name, (family, size) in workloads.CLI_CATEGORIES.items():
        cat = generate(UniverseSpec(family, size))
        path = tmp_path / f"{name}.txt"
        catio.dump_category_file(cat, str(path))
        assert same_category(catio.load_category_file(str(path)), cat)
