import importlib.util
import itertools
import shutil
import subprocess
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from catramsey import _kernel_py, kernel
from catramsey.arrows import ArrowQuery, check_arrow
from catramsey.kernel import SearchProblem, branch_prefixes, build_problem, solve
from conftest import obj

PATH_POINTS = 1200
PATH_BUNDLES = [frozenset({i, i + 1}) for i in range(PATH_POINTS - 1)]
# all triples of 9 points, k=4, t=1: no witness, since some color covers 3
# points; about 1,200 nodes, so the search runs deep below the branch prefixes
TRIPLES_9 = [frozenset(c) for c in itertools.combinations(range(9), 3)]
ROTATIONS_9 = [tuple((i + r) % 9 for i in range(9)) for r in range(1, 9)]


def naive_witness_exists(n, k, t, bundles):
    for coloring in itertools.product(range(k), repeat=n):
        if all(len({coloring[i] for i in b}) > t for b in bundles):
            return True
    return False


@st.composite
def problems(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=2, max_value=4))
    t = draw(st.integers(min_value=1, max_value=3))
    n_bundles = draw(st.integers(min_value=1, max_value=5))
    bundles = [
        frozenset(draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)))
        for _ in range(n_bundles)
    ]
    return n, k, t, bundles


@given(problems())
@settings(max_examples=120, deadline=None)
def test_solve_matches_naive_enumeration(problem):
    n, k, t, bundles = problem
    pr = build_problem(n, bundles, k, t, [])
    out = solve(pr)
    assert out.exhausted
    expected = naive_witness_exists(n, k, t, bundles)
    assert (out.witness is not None) == expected
    if out.witness is not None:
        assert all(len({out.witness[i] for i in b}) > t for b in bundles)


def load_kernel(directory: Path):
    """Import a copy of catramsey/_kernel.py placed in `directory`, so that it
    loads the library found there."""
    source = Path(_kernel_py.__file__).with_name("_kernel.py")
    shutil.copy(source, directory / "_kernel.py")
    spec = importlib.util.spec_from_file_location("catramsey._kernel", directory / "_kernel.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel built from the checked-in _kernel.c with plain
    `cc -shared -fPIC` into a temporary directory, loaded through a copy of
    _kernel.py.  Skips, saying why, only when there is no C compiler, so that
    the parity test never passes without comparing."""
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no compiled kernel: no C compiler (cc) on PATH")
    out = tmp_path_factory.mktemp("kernel")
    source = Path(_kernel_py.__file__).with_name("_kernel.c")
    library = out / "libcatramsey_kernel.so"
    subprocess.run([compiler, "-O2", "-shared", "-fPIC", str(source), "-o", str(library)], check=True)
    return load_kernel(out)


@st.composite
def searches(draw):
    """A built problem with point permutations, so that canonical() prunes,
    and a budget that is sometimes small enough to run out.  Up to 10 points,
    so that the search runs below the branch prefixes."""
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=2, max_value=4))
    t = draw(st.integers(min_value=1, max_value=k - 1))
    points = st.integers(min_value=0, max_value=n - 1)
    bundles = draw(st.lists(st.frozensets(points, min_size=min(t + 1, n)), min_size=1, max_size=6))
    perms = draw(st.lists(st.permutations(range(n)), max_size=3))
    budget = draw(st.one_of(st.integers(min_value=0, max_value=60), st.just(20_000)))
    return build_problem(n, bundles, k, t, perms), budget


@given(search=searches(), stopped=st.booleans())
@example(search=(build_problem(PATH_POINTS, PATH_BUNDLES, 2, 1, []), 10**6), stopped=False)
@example(search=(build_problem(9, TRIPLES_9, 4, 1, []), 20_000), stopped=False)
@example(search=(build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9), 20_000), stopped=False)
@example(search=(build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9), 300), stopped=False)
@settings(max_examples=100, deadline=None)
def test_pure_and_compiled_agree(compiled_kernel, search, stopped):
    # the empty prefix walks the whole tree; the branch prefixes are the
    # subtrees solve() hands out; a set stop flag ends both at the first node
    pr, budget = search
    stop = array("i", [int(stopped)])
    for prefix in [[]] + branch_prefixes(pr.n_points, pr.k):
        args = (pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, prefix, budget, stop)
        assert compiled_kernel.search_from_prefix(*args) == _kernel_py.search_from_prefix(*args)


def test_compiled_kernel_refuses_malformed_input(compiled_kernel):
    pr = build_problem(4, [frozenset({0, 1}), frozenset({2, 3})], 2, 1, [(1, 0, 3, 2)])
    good = dict(n_points=4, k=2, t=1, bundle_sizes=pr.bundle_sizes, pb_off=pr.pb_off, pb=pr.pb,
                perms=pr.perms, prefix=[0], budget=10**30, stop=array("i", [0]))
    expected = _kernel_py.search_from_prefix(**good)
    assert expected[0] is not None
    assert compiled_kernel.search_from_prefix(**good) == expected
    for bad in (
        {"pb": [0, 0, 1, 2]},  # bundle 2 does not exist
        {"pb_off": [0, 1, 2, 3]},  # one offset short
        {"perms": [[0, 1, 2]]},  # row too short
        {"perms": [[0, 1, 2, 4]]},  # point 4 does not exist
        {"prefix": [0, -1]},
        {"prefix": [0, 1, 0, 1, 0]},  # longer than n_points
        {"bundle_sizes": [2, 2**40]},  # would wrap in a C int
        {"k": 0},
        {"stop": [0]},  # not a buffer: a copy would never see the flag set
        {"stop": bytes(4)},  # read-only
        {"stop": array("d", [0])},
        {"stop": array("i")},  # no element
    ):
        with pytest.raises(ValueError):
            compiled_kernel.search_from_prefix(**{**good, **bad})


def test_compiled_kernel_without_library_is_an_import_error(tmp_path):
    # kernel.py selects the pure kernel on ImportError: the library is
    # missing, or it is there but does not load
    with pytest.raises(ImportError):
        load_kernel(tmp_path)
    (tmp_path / "libcatramsey_kernel.so").write_bytes(b"not a shared library")
    with pytest.raises(ImportError):
        load_kernel(tmp_path)


def test_pure_kernel_solves_a_deep_path(monkeypatch):
    # the recursive DFS raised RecursionError here
    monkeypatch.setattr(kernel, "_impl", _kernel_py)
    out = solve(build_problem(PATH_POINTS, PATH_BUNDLES, 2, 1, []))
    assert out.exhausted and out.witness is not None
    assert all(out.witness[i] != out.witness[i + 1] for i in range(PATH_POINTS - 1))


def test_symmetry_reduction_preserves_verdict():
    # a 6-cycle of triangle bundles with its rotation symmetry: verdicts with
    # and without the permutations must agree
    n = 6
    bundles = [frozenset({i, (i + 1) % n, (i + 2) % n}) for i in range(n)]
    rotations = [tuple((i + r) % n for i in range(n)) for r in range(1, n)]
    for k, t in ((2, 1), (2, 2), (3, 2)):
        plain = solve(build_problem(n, bundles, k, t, []))
        sym = solve(build_problem(n, bundles, k, t, rotations))
        assert (plain.witness is None) == (sym.witness is None)
        assert sym.nodes <= plain.nodes


def test_thread_count_does_not_change_outcome():
    n = 10
    bundles = [frozenset({i, (i + 1) % n, (i + 3) % n}) for i in range(n)]
    outs = [solve(build_problem(n, bundles, 2, 1, []), threads=th) for th in (1, 4, 8)]
    assert outs[0].witness == outs[1].witness == outs[2].witness
    assert outs[0].nodes == outs[1].nodes == outs[2].nodes
    assert outs[0].exhausted == outs[1].exhausted == outs[2].exhausted
    # small budgets run out inside and between branches: a witness after 19
    # nodes, and no witness after 80
    for step, k, t in ((3, 2, 1), (4, 2, 1), (4, 4, 2)):
        pr = build_problem(n, [frozenset({i, (i + 1) % n, (i + step) % n}) for i in range(n)], k, t, [])
        for budget in range(61):
            outs = {(tuple(o.witness or ()), o.nodes, o.exhausted)
                    for o in (solve(pr, budget=budget, threads=th) for th in (1, 4, 8))}
            assert len(outs) == 1, (step, k, t, budget, outs)


def test_budget_is_the_serial_node_total(lo6):
    # LO_6 -> (LO_3)^{LO_2}_{2,1} needs 858 nodes over several branches
    q = ArrowQuery(obj(lo6, "LO", 2), obj(lo6, "LO", 3), obj(lo6, "LO", 6), 2, 1)
    for threads in (1, 2):
        enough = check_arrow(lo6, q, budget=858, threads=threads)
        assert (enough.holds, enough.nodes) == (True, 858)
        short = check_arrow(lo6, q, budget=857, threads=threads)
        assert (short.holds, short.nodes) == (None, 858)


def test_witness_stops_the_branches_still_running(monkeypatch):
    # branch 0 holds a witness; every other branch runs until it sees the
    # stop flag, so the fold must set it and not wait for them to finish
    n = 12
    pr = build_problem(n, [frozenset(range(n))], 2, 1, [])
    witness = [i % 2 for i in range(n)]
    first = branch_prefixes(n, 2)[0]
    saw_stop = []

    def search_from_prefix(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop):
        if prefix == first:
            return witness, 1, True
        deadline = time.monotonic() + 10
        while not stop[0] and time.monotonic() < deadline:
            time.sleep(0.001)
        saw_stop.append(bool(stop[0]))
        return None, 1, False

    stub = type("Stub", (), {"search_from_prefix": staticmethod(search_from_prefix)})
    monkeypatch.setattr(kernel, "_impl", stub)
    out = solve(pr, threads=4)
    assert out.witness == [witness[pr.order.index(it)] for it in range(n)]
    assert (out.nodes, out.exhausted) == (1, True)
    assert saw_stop and all(saw_stop)
    assert len(saw_stop) < len(branch_prefixes(n, 2)) - 1  # queued branches never start


def test_budget_exhaustion_is_reported():
    n = 14
    bundles = [frozenset(range(n))]
    pr = build_problem(n, bundles, 4, 5, [])
    out = solve(pr, budget=1)
    assert out.witness is None
    assert not out.exhausted


def test_branch_prefixes_cover_and_are_disjoint():
    prefixes = branch_prefixes(12, 2)
    assert len(prefixes) >= 33
    assert len({tuple(p) for p in prefixes}) == len(prefixes)
    depth = len(prefixes[0])
    assert all(len(p) == depth for p in prefixes)
    # every restricted-growth string of that depth appears
    def rgs(depth, k):
        out = [[]]
        for _ in range(depth):
            out = [s + [c] for s in out for c in range(min(max(s, default=-1) + 2, k))]
        return out

    assert sorted(prefixes) == sorted(rgs(depth, 2))
