"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def test_generators_are_deterministic_per_seed():
    assert wl.search_suite(7) == wl.search_suite(7)
    assert wl.search_suite(7) != wl.search_suite(8)
    assert wl.cli_stream(7) == wl.cli_stream(7)
    assert [wl.cli_stream(s) for s in range(5)] != [wl.cli_stream(7)] * 5


def test_replay_checker_rejects_tampered_witness():
    from catramsey import kernel

    for inst in wl.search_suite(3):
        problem = kernel.build_problem(inst["n"], [frozenset(e) for e in inst["edges"]], 2, 1, inst["perms"])
        witness = kernel.solve(problem).witness
        if witness is not None:
            break
    assert witness is not None
    n, edges = inst["n"], inst["edges"]
    assert wl.replay_colouring(n, edges, 2, 1, witness)

    a, b, c = edges[0]
    mono = list(witness)
    mono[b] = mono[c] = mono[a]
    assert not wl.replay_colouring(n, edges, 2, 1, mono)
    assert not wl.replay_colouring(n, edges, 2, 1, [2 if x == 1 else x for x in witness])
    assert not wl.replay_colouring(n, edges, 2, 1, [-1 if x == 0 else x for x in witness])
    assert not wl.replay_colouring(n, edges, 2, 1, witness[:-1])
    assert not wl.replay_colouring(n, edges, 2, 1, None)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: v[:2] for name, v in tracing.PER_LAYER.items()
    }

    p = run.Pass()
    p.walls = {1: [1.0], 2: [2.0, 2.5]}
    p.ops_ms = [float(i) for i in range(30)]
    for workload in run.WORKLOADS:
        assert set(run.end_to_end_metrics(workload, [p], [0.5])) == set(run.END_TO_END)
    assert set(tracing.layer_metrics([], Counter(), 1, {})) == set(tracing.PER_LAYER)


def test_reference_covers_the_catalogue():
    ref = json.loads(run.REFERENCE.read_text())
    assert set(ref["cli"]) == set(wl.cli_catalogue())
    assert set(ref["matrix"]) == {"1", "2"}


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(5)]) == ("max", 4.0)
    assert run.tail([float(i) for i in range(100)])[0] == "p90"
    assert run.tail([float(i) for i in range(1000)])[0] == "p95"


def test_kernel_parity_flags_a_diverging_compiled_kernel(monkeypatch):
    from catramsey import _kernel_py, kernel

    bench = run.SearchWorkload.__new__(run.SearchWorkload)
    bench.kernel = kernel
    bench.suite = run.search_inputs(5)[:4]
    monkeypatch.setitem(sys.modules, "catramsey._kernel", _kernel_py)
    assert bench.kernel_parity() == []

    class OffByOne:
        @staticmethod
        def search_from_prefix(*args):
            witness, nodes, exhausted = _kernel_py.search_from_prefix(*args)
            return witness, nodes + 1, exhausted

    monkeypatch.setitem(sys.modules, "catramsey._kernel", OffByOne)
    assert bench.kernel_parity() == [inst["name"] for inst in bench.suite]
