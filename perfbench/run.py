#!/usr/bin/env python3
"""Benchmark for catramsey: three closed-loop workloads with one client each.

Run from the repository root:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --record-reference

Each run repeats passes of its workload for about --seconds seconds.  A pass
runs the workload at threads=1 and at threads=2; on search and cli-stream the
two alternate operation by operation, so both parts span the whole pass.
With --trace 0 the last line of output is a JSON object with every
end-to-end metric; with --trace 1 passes alternate untraced and traced, and
the metrics are the per-layer ones, derived from spans recorded around the
calls into each module.  The line before it carries provenance: the host,
the interpreter, the kernel in use and a fixed pure-Python calibration loop
timed beside each pass (recorded only, never used to rescale).  Scratch
files, spans included, go under .perfbench/ in the repository root.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("matrix", "search", "cli-stream")
SPANS_ENV = "PERFBENCH_SPANS"
OP_ENV = "PERFBENCH_OP"

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "wall_2t_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}
SETUP_REPEATS = {"matrix": 9, "search": 9, "cli-stream": 5}
OP_TIMEOUT_S = {"matrix": 60, "search": 20, "cli-stream": 30}
# p99 is left out: on search it is set by the suite's few largest instances
# and moves with the seed by about 30%.
TAIL_PERCENTILES = (95, 90, 75, 50)
# Runs of the threads=2 matrix config per pass; it is short, so more than one
# is needed for a steady median.
MATRIX_2T_REPEATS = 2
# Every run makes at least two passes, so that a median never rests on one
# slow stretch of the host (and a traced run has one pass of each kind).
MIN_PASSES = 2


class OpTimeout(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread after `seconds`, and again every
    second after that, so cleanup code that blocks (such as a thread pool
    joining its workers) is interrupted too."""

    def fire(signum, frame):
        raise OpTimeout(f"operation exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibration_ms() -> float:
    """A fixed pure-Python loop, timed; it tracks the speed of the host."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def child_env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CATRAMSEY_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.update(extra)
    return env


def run_child(argv: list[str], env: dict, timeout: float, out_path: Path):
    """Run a process to completion; returns (exit code or None on timeout,
    stdout, wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        with deadline(timeout):
            _, status, usage = os.wait4(proc.pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except OpTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        code = None
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, out_path.read_text(encoding="utf-8", errors="replace"), wall, usage.ru_maxrss / 1024


# -- set-up -------------------------------------------------------------------


def setup_child(workload: str, seed: int, work: Path) -> None:
    """Import plus input generation, as one fresh process does it; prints the
    seconds taken."""
    t0 = time.perf_counter()
    if workload == "matrix":
        import catramsey.matrix  # noqa: F401
    elif workload == "search":
        import catramsey.kernel  # noqa: F401

        search_inputs(seed)
    else:
        write_categories(work)
        wl.cli_stream(seed)
    print(time.perf_counter() - t0)


def search_inputs(seed: int) -> list[dict]:
    """The seeded suite, with each instance's edges as kernel bundles."""
    suite = wl.search_suite(seed)
    for inst in suite:
        inst["bundles"] = [frozenset(e) for e in inst["edges"]]
    return suite


def write_categories(work: Path) -> dict[str, str]:
    """Generate the cli-stream categories and write them as files."""
    from catramsey import generators, io as catio

    files = {name: str(work / f"{name}.txt") for name in wl.CLI_CATEGORIES}
    for name, (family, size) in wl.CLI_CATEGORIES.items():
        catio.dump_category_file(generators.generate(generators.UniverseSpec(family, size)), files[name])
    return files


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS[workload]):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-child", workload, "--seed", str(seed), "--work", str(work)]
        code, out, _, _ = run_child(argv, child_env(), 120, work / "setup.out")
        if code != 0:
            raise SystemExit(f"set-up failed for {workload} (exit {code})")
        times.append(float(out.split()[-1]))
    return times


# -- workloads ----------------------------------------------------------------


class Pass:
    """What one pass measured: part walls by thread count, operation times,
    and the operations attempted and failed."""

    def __init__(self):
        self.walls: dict[int, list[float]] = {}
        self.ops_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rss_mb = 0.0
        self.abort = False
        self.import_s = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


class MatrixWorkload:
    """Per pass, one run_matrix of the full config at threads=1 and
    MATRIX_2T_REPEATS of the Surj_4 config at threads=2, cache off."""

    def __init__(self, seed: int, work: Path, reference: dict):
        from catramsey import cache, matrix

        self.cache, self.matrix = cache, matrix
        self.reference = reference["matrix"]

    def run_pass(self, index: int, tracer) -> Pass:
        p = Pass()
        runs = [(1, wl.MATRIX_CONFIG)] + [(2, wl.MATRIX_CONFIG_2T)] * MATRIX_2T_REPEATS
        for op, (threads, config) in enumerate(runs):
            if tracer:
                tracer.op = index * len(runs) + op
            p.attempted += 1
            t0 = time.perf_counter()
            try:
                with deadline(OP_TIMEOUT_S["matrix"]):
                    rep = self.matrix.run_matrix(config, threads=threads, cache=self.cache.ResultCache(directory=""))
            except OpTimeout:
                p.fail(f"threads={threads}: timeout")
                p.abort = True
                return p
            except Exception as exc:  # a crash in the program is a failed operation
                p.fail(f"threads={threads}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - t0
            p.walls.setdefault(threads, []).append(wall)
            if threads == 1:
                p.ops_ms.append(wall * 1e3)
            if rep.status != "ok" or sha256(rep.canonical_json()) != self.reference[str(threads)]:
                p.fail(f"threads={threads}: status {rep.status} or canonical bytes differ from the reference")
        return p


class SearchWorkload:
    """Every instance of the seeded suite through build_problem and solve,
    at threads=1 and then at threads=2."""

    def __init__(self, seed: int, work: Path, reference: dict):
        from catramsey import kernel

        self.kernel = kernel
        self.suite = search_inputs(seed)
        self.parity_checked = False

    def run_pass(self, index: int, tracer) -> Pass:
        p = Pass()
        kernel = self.kernel
        outcomes: dict[int, list] = {1: [], 2: []}
        walls = {1: 0.0, 2: 0.0}
        for i, inst in enumerate(self.suite):
            for threads in (1, 2):
                if tracer:
                    tracer.op = 2 * (index * len(self.suite) + i) + threads - 1
                p.attempted += 1
                t0 = time.perf_counter()
                try:
                    with deadline(OP_TIMEOUT_S["search"]):
                        problem = kernel.build_problem(inst["n"], inst["bundles"], wl.SEARCH_K, wl.SEARCH_T, inst["perms"])
                        out = kernel.solve(problem, threads=threads)
                except OpTimeout:
                    p.fail(f"{inst['name']} threads={threads}: timeout")
                    p.abort = True
                    return p
                except Exception as exc:  # a crash in the program is a failed operation
                    p.fail(f"{inst['name']} threads={threads}: {type(exc).__name__}: {exc}")
                    out = None
                wall = time.perf_counter() - t0
                walls[threads] += wall
                p.ops_ms.append(wall * 1e3)
                outcomes[threads].append(out)
        p.walls = {threads: [w] for threads, w in walls.items()}
        for inst, one, two in zip(self.suite, outcomes[1], outcomes[2]):
            for threads, out in ((1, one), (2, two)):
                if out is None:
                    continue
                if not out.exhausted:
                    p.fail(f"{inst['name']} threads={threads}: inconclusive")
                elif out.witness is not None and not wl.replay_colouring(
                    inst["n"], inst["edges"], wl.SEARCH_K, wl.SEARCH_T, out.witness
                ):
                    p.fail(f"{inst['name']} threads={threads}: witness does not replay")
            if one is not None and two is not None and (
                (one.witness is None) != (two.witness is None) or one.nodes != two.nodes
            ):
                p.fail(f"{inst['name']}: verdict or node count differs between threads 1 and 2")
        if not self.parity_checked:
            self.parity_checked = True
            for name in self.kernel_parity():
                p.fail(f"{name}: pure and compiled kernels disagree")
        return p

    def kernel_parity(self) -> list[str]:
        """Instances on which the pure and the compiled kernel walk different
        trees; empty when the compiled kernel is not built."""
        try:
            from catramsey import _kernel
        except ImportError:
            return []
        from catramsey import _kernel_py

        bad = []
        for inst in self.suite:
            problem = self.kernel.build_problem(inst["n"], inst["bundles"], wl.SEARCH_K, wl.SEARCH_T, inst["perms"])
            runs = []
            for impl in (_kernel_py, _kernel):
                walk = []
                for prefix in self.kernel.branch_prefixes(problem.n_points, problem.k):
                    witness, nodes, _ = impl.search_from_prefix(
                        problem.n_points, problem.k, problem.t, problem.bundle_sizes, problem.pb_off,
                        problem.pb, problem.perms, prefix,
                        self.kernel.DEFAULT_BUDGET,
                    )
                    walk.append((witness, nodes))
                    if witness is not None:
                        break
                runs.append(walk)
            if runs[0] != runs[1]:
                bad.append(inst["name"])
        return bad


class CliStreamWorkload:
    """The seeded stream of `catramsey` invocations, one fresh process each,
    at --threads 1 and then at --threads 2; each thread count has a cache
    directory of its own, fresh in every pass."""

    def __init__(self, seed: int, work: Path, reference: dict):
        self.work = work
        self.stream = wl.cli_stream(seed)
        self.files = {name: str(work / f"{name}.txt") for name in wl.CLI_CATEGORIES}
        self.reference = reference["cli"]
        self.spans: list[dict] = []
        self.counts: dict = {}
        self._id_base = 0

    def run_pass(self, index: int, tracer) -> Pass:
        p = Pass()
        cache_dirs = {threads: self.work / f"cache-{index}-{threads}" for threads in (1, 2)}
        walls = {1: 0.0, 2: 0.0}
        spans_path = self.work / "child-spans.json"
        for j, query in enumerate(self.stream):
            for threads in (1, 2):
                op = 2 * (index * len(self.stream) + j) + threads - 1
                args = ["--threads", str(threads), *wl.cli_argv(query, self.files)]
                env = child_env(CATRAMSEY_CACHE_DIR=str(cache_dirs[threads]))
                if tracer:
                    argv = [sys.executable, str(HERE / "launcher.py"), *args]
                    env.update({SPANS_ENV: str(spans_path), OP_ENV: str(op)})
                else:
                    argv = [sys.executable, "-m", "catramsey.cli", *args]
                p.attempted += 1
                code, out, wall, rss = run_child(argv, env, OP_TIMEOUT_S["cli-stream"], self.work / "child.out")
                walls[threads] += wall
                p.ops_ms.append(wall * 1e3)
                p.rss_mb = max(p.rss_mb, rss)
                ref = self.reference[query]
                if code is None:
                    p.fail(f"{query} threads={threads}: timeout")
                elif code != ref["exit"] or wl.output_digest(out) != ref["sha256"]:
                    p.fail(f"{query} threads={threads}: exit {code} or output differs from the no-cache reference")
                if tracer:
                    self._collect(spans_path, p)
        for cache_dir in cache_dirs.values():
            shutil.rmtree(cache_dir, ignore_errors=True)
        p.walls = {threads: [w] for threads, w in walls.items()}
        return p

    def _collect(self, path: Path, p: Pass) -> None:
        """Merge one child's spans, with ids made unique across children."""
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
        except (OSError, json.JSONDecodeError):
            return
        base = self._id_base
        for s in data["spans"]:
            s["id"] += base
            if s["parent"] is not None:
                s["parent"] += base
            self._id_base = max(self._id_base, s["id"])
            self.spans.append(s)
        for k, v in data["counts"].items():
            self.counts[k] = self.counts.get(k, 0) + v
        p.import_s += data["import_s"]


WORKLOAD_CLASSES = {"matrix": MatrixWorkload, "search": SearchWorkload, "cli-stream": CliStreamWorkload}


# -- one run ------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest listed percentile with at least ten samples beyond it;
    the maximum when there are too few samples for any."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}", statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return "max", max(samples)


def provenance(kernel_impl: str) -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_impl": kernel_impl,
        "numpy": numpy.__version__,
        "cpu_model": cpu or platform.processor(),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    setup = measure_setup(workload, seed, work)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    bench = WORKLOAD_CLASSES[workload](seed, work, reference)
    from catramsey import kernel

    tracer = tracing.Tracer() if trace else None
    passes: list[Pass] = []
    traced: list[bool] = []
    calibration = []
    start = time.perf_counter()
    while True:
        calibration.append(calibration_ms())
        on = trace and len(passes) % 2 == 1
        if on and workload != "cli-stream":
            tracer.install()
        try:
            t0 = time.perf_counter()
            p = bench.run_pass(len(passes), tracer if on else None)
            last = time.perf_counter() - t0
        finally:
            if on and workload != "cli-stream":
                tracer.uninstall()
        passes.append(p)
        traced.append(on)
        elapsed = time.perf_counter() - start
        if p.abort or (elapsed + last / 2 >= seconds and len(passes) >= MIN_PASSES):
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    ops = [x for p in passes for x in p.ops_ms]
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": [f for p in passes for f in p.failures][:20],
        "op_samples": len(ops),
        "op_tail": tail(ops)[0] if ops else None,
        "calibration_ms": calibration,
        "pass_walls_s": [{str(t): w for t, w in p.walls.items()} for p in passes],
        "setup_samples_s": setup,
        "provenance": provenance(kernel.IMPL),
    }
    if workload == "cli-stream":
        info["repeat_frac"] = wl.repeat_share(bench.stream)
    if not trace:
        metrics = end_to_end_metrics(workload, passes, setup)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    else:
        wall = [sum(sum(w) for w in p.walls.values()) for p in passes]
        on_walls = [w for w, on in zip(wall, traced) if on]
        off_walls = [w for w, on in zip(wall, traced) if not on]
        n_traced = sum(traced)
        extras = {
            "trace.overhead_frac": (
                statistics.median(on_walls) / statistics.median(off_walls) - 1 if on_walls and off_walls else 0.0
            ),
            # on cli-stream an operation is one child process
            "cli.process_s": sum(sum(p.ops_ms) / 1e3 for p, on in zip(passes, traced) if on)
            if workload == "cli-stream" else 0.0,
            "cli.import_s": sum(p.import_s for p, on in zip(passes, traced) if on),
        }
        if workload == "cli-stream":
            spans, counts = bench.spans, bench.counts
        else:
            spans, counts = tracer.records(), tracer.counts
        metrics = tracing.layer_metrics(spans, counts, n_traced, extras)
        units = {name: spec[0] for name, spec in tracing.PER_LAYER.items()}
        spans_file = WORK / f"spans-{workload}-seed{seed}.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(counts)}, fh)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    if any(p.abort for p in passes):
        info["aborted"] = True
    return {"info": info, "result": result}


def end_to_end_metrics(workload: str, passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """Medians over the run's passes and operations; peak RSS is the
    benchmark process's own, or the largest child's on cli-stream."""

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    ops = [x for p in passes for x in p.ops_ms]
    if workload == "cli-stream":
        rss = max(p.rss_mb for p in passes)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": median(setup),
        "wall_s": median([w for p in passes for w in p.walls.get(1, [])]),
        "wall_2t_s": median([w for p in passes for w in p.walls.get(2, [])]),
        "op_p50_ms": median(ops),
        "op_tail_ms": tail(ops)[1] if ops else 0.0,
        "peak_rss_mb": rss,
    }


# -- reference outputs ----------------------------------------------------------


def record_reference() -> None:
    """Write perfbench/reference.json from this checkout's program: matrix
    canonical bytes per thread count, and each catalogue invocation's exit
    code and output digest with the cache off."""
    from catramsey import cache, cli, matrix

    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files = write_categories(work)
    ref = {"matrix": {}, "cli": {}}
    for threads, config in ((1, wl.MATRIX_CONFIG), (2, wl.MATRIX_CONFIG_2T)):
        rep = matrix.run_matrix(config, threads=1, cache=cache.ResultCache(directory=""))
        if rep.status != "ok":
            raise SystemExit(f"matrix status {rep.status}; refusing to record it as the reference")
        ref["matrix"][str(threads)] = sha256(rep.canonical_json())
    for query in wl.cli_catalogue():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(wl.cli_argv(query, files))
        ref["cli"][query] = {"exit": code, "sha256": wl.output_digest(buf.getvalue())}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)


# -- command line -----------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true", help="rewrite perfbench/reference.json")
    ap.add_argument("--setup-child", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "catramsey" / "__init__.py").is_file():
        print(f"error: no catramsey sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("CATRAMSEY_CACHE_DIR", None)

    if args.setup_child:
        setup_child(args.setup_child, args.seed, Path(args.work))
        return 0
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["info"], sort_keys=True))
    sys.stdout.flush()
    print(json.dumps(out["result"]))
    sys.stdout.flush()
    if out["info"].get("aborted"):
        # a timed-out operation may leave kernel worker threads running
        os._exit(0)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the results."""
    rows = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        info_line, result_line = proc.stdout.strip().splitlines()[-2:]
        rows[workload] = (json.loads(info_line), json.loads(result_line))
        print(info_line)
        print(result_line)
    for workload, (info, result) in rows.items():
        print(f"\n{workload}: failed_frac={info['failed_frac']:.4f} "
              f"({result['failed']}/{result['attempted']}), op tail = {info['op_tail']} of {info['op_samples']}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    summary = {
        "correct": all(r["correct"] for _, r in rows.values()),
        "attempted": sum(r["attempted"] for _, r in rows.values()),
        "failed": sum(r["failed"] for _, r in rows.values()),
        "metrics": {f"{w}/{k}": v for w, (_, r) in rows.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
