import importlib.util
import itertools
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catramsey import _kernel_py
from catramsey.kernel import SearchProblem, branch_prefixes, build_problem, solve

try:
    from catramsey import _kernel
except ImportError:  # pragma: no cover
    _kernel = None


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


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled kernel: the installed extension, or else the checked-in C
    source built for this interpreter.  Skips, saying why, when neither can
    be had, so that the parity test never passes without comparing."""
    if _kernel is not None:
        return _kernel
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    headers = Path(sysconfig.get_paths()["include"]) / "Python.h"
    if shutil.which(compiler) is None or not headers.exists() or importlib.util.find_spec("setuptools") is None:
        pytest.skip(
            f"no compiled kernel: catramsey._kernel is not built, and {compiler}, {headers} or setuptools is missing"
        )
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("kernel")
    source = Path(_kernel_py.__file__).with_name("_kernel.c")
    cmd = build_ext(Distribution({"ext_modules": [Extension("_kernel", [str(source)])]}))
    cmd.build_lib, cmd.build_temp = str(out), str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location("catramsey._kernel", cmd.get_ext_fullpath("_kernel"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@given(problem=problems())
@settings(max_examples=60, deadline=None)
def test_pure_and_compiled_agree(compiled_kernel, problem):
    n, k, t, bundles = problem
    pr = build_problem(n, bundles, k, t, [])
    for prefix in branch_prefixes(n, k):
        a = compiled_kernel.search_from_prefix(n, k, t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, prefix, 10**6)
        b = _kernel_py.search_from_prefix(n, k, t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, prefix, 10**6)
        assert a == b


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
