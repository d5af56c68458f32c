import dataclasses
import itertools
import os
import shutil
import time
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from catramsey import _kernel_py, arrows, kernel
from catramsey.arrows import ArrowQuery, check_arrow, check_arrow_dual, check_arrow_native_dual
from catramsey.cache import ResultCache, cached_check_arrow
from catramsey.degrees import degree_bounds
from catramsey.generators import UniverseSpec, generate
from catramsey.kernel import SearchProblem, branch_prefixes, build_problem, solve
from catramsey.matrix import run_matrix
from conftest import KERNEL_C, KERNEL_PY, layout_by_sorting, library_name, load_kernel, obj, restricted_growth

PATH_POINTS = 1200
PATH_BUNDLES = [frozenset({i, i + 1}) for i in range(PATH_POINTS - 1)]
# all triples of 9 points, k=4, t=1: no witness, since some color covers 3
# points; about 1,200 nodes, so the search runs deep below the branch prefixes
TRIPLES_9 = [frozenset(c) for c in itertools.combinations(range(9), 3)]
ROTATIONS_9 = [tuple((i + r) % 9 for i in range(9)) for r in range(1, 9)]
# many rows over many points: the edges of a 60-cycle, with its 59 rotations
CYCLE_60 = build_problem(60, [frozenset({i, (i + 1) % 60}) for i in range(60)], 3, 1,
                         [tuple((i + r) % 60 for i in range(60)) for r in range(1, 60)])


def naive_witness_exists(n, k, t, bundles):
    for coloring in itertools.product(range(k), repeat=n):
        if all(len({coloring[i] for i in b}) > t for b in bundles):
            return True
    return False


@st.composite
def problems(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    k = draw(st.integers(min_value=2, max_value=4))
    t = draw(st.integers(min_value=0, max_value=3))
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


def rows_of(perms, n_points):
    """The rows of a flat perms layout, n_points entries each."""
    return [perms[s : s + n_points] for s in range(0, len(perms), n_points)] if n_points else []


def reference_search(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop=(0,)):
    """The kernel's search as it was before canonicity became incremental:
    every node compares every permutation row from position 0.  Kept only as
    an oracle that shares no state-keeping code with either kernel."""
    rows = rows_of(perms, n_points)
    n_bundles = len(bundle_sizes)
    counts = [[0] * k for _ in range(n_bundles)]
    distinct = [0] * n_bundles
    assigned = [0] * n_bundles
    color = [-1] * n_points
    nodes = 0

    def assign(p, c):
        ok = True
        for bi in range(pb_off[p], pb_off[p + 1]):
            b = pb[bi]
            if counts[b][c] == 0:
                distinct[b] += 1
            counts[b][c] += 1
            assigned[b] += 1
            if distinct[b] + (bundle_sizes[b] - assigned[b]) <= t:
                ok = False
        color[p] = c
        return ok

    def unassign(p):
        c = color[p]
        color[p] = -1
        for bi in range(pb_off[p], pb_off[p + 1]):
            b = pb[bi]
            counts[b][c] -= 1
            if counts[b][c] == 0:
                distinct[b] -= 1
            assigned[b] -= 1

    def canonical(depth):
        for row in rows:
            ren = [-1] * k
            nxt = 0
            for i in range(depth):
                cj = color[row[i]]
                if cj < 0:
                    break
                r = ren[cj]
                if r < 0:
                    ren[cj] = r = nxt
                    nxt += 1
                ci = color[i]
                if r < ci:
                    return False
                if r > ci:
                    break
        return True

    max_used = 0
    for p, c in enumerate(prefix):
        if c > max_used or c >= k:
            return None, nodes, True
        if not assign(p, c):
            return None, nodes, True
        if not canonical(p + 1):
            return None, nodes, True
        if c == max_used:
            max_used += 1

    start = depth = len(prefix)
    used = [0] * (n_points + 1)
    nxt = [0] * (n_points + 1)
    used[depth] = max_used
    while depth < n_points:
        c = nxt[depth]
        u = used[depth]
        if c > u or c == k:
            if depth == start:
                return None, nodes, True
            depth -= 1
            unassign(depth)
            continue
        nxt[depth] = c + 1
        nodes += 1
        if nodes > budget or stop[0]:
            return None, nodes, False
        if assign(depth, c) and canonical(depth + 1):
            depth += 1
            used[depth] = u + (c == u)
            nxt[depth] = 0
        else:
            unassign(depth)
    return list(color), nodes, True


def cycle_group(n):
    """All n rotations of an n-cycle, the identity included."""
    return [tuple((i + r) % n for i in range(n)) for r in range(n)]


def symmetric_group(m, pairs):
    """S_m acting on its m points, or on the m(m-1) ordered pairs of
    distinct points, as Aut(C) acts on hom(2, C) in Inj."""
    if not pairs:
        return list(itertools.permutations(range(m)))
    cells = list(itertools.permutations(range(m), 2))
    index = {c: i for i, c in enumerate(cells)}
    return [tuple(index[g[a], g[b]] for a, b in cells) for g in itertools.permutations(range(m))]


def group_problem(n, bundles, k, t, group, order):
    """A built problem whose rows are the whole group in search coordinates,
    identity included, listed in the given order of the group's elements,
    which may name an element more than once."""
    pr = build_problem(n, bundles, k, t, [])
    pos = {it: i for i, it in enumerate(pr.order)}
    pr.perms = array("i", [pos[group[g][pr.order[i]]] for g in order for i in range(n)])
    return pr


@st.composite
def group_searches(draw):
    """A problem acted on by a whole group: the rotations of an n-cycle, or
    S_m on points or pairs, rows in a drawn order, the identity among them
    and some repeated; a budget that sometimes runs out."""
    if draw(st.booleans()):
        group = cycle_group(draw(st.integers(min_value=1, max_value=10)))
    else:
        m = draw(st.integers(min_value=1, max_value=5))
        group = symmetric_group(m, pairs=2 <= m <= 4 and draw(st.booleans()))
    n = len(group[0])
    k = draw(st.integers(min_value=2, max_value=4))
    t = draw(st.integers(min_value=0, max_value=k - 1))
    points = st.integers(min_value=0, max_value=n - 1)
    bundles = draw(st.lists(st.frozensets(points, min_size=draw(small_bundles(t, n))), min_size=1, max_size=6))
    elements = range(len(group))
    order = draw(st.permutations(elements)) + draw(st.lists(st.sampled_from(elements), max_size=3))
    budget = draw(st.one_of(st.integers(min_value=0, max_value=60), st.just(5_000)))
    return group_problem(n, bundles, k, t, group, order), budget


def small_bundles(t, n):
    """The least bundle size to draw: t + 1 (or n) in half the draws, 1 in
    the others, so that some bundles start with a slack of 0 or below."""
    return st.sampled_from([1, min(t + 1, n)])


# bundles whose slack, size - t - 1, starts at 0 (every bundle at t = 0, the
# singletons), or below 0 (the pair at t = 2), with and without point symmetry
SLACK_0 = build_problem(6, [frozenset({0}), frozenset({1, 2}), frozenset({2, 3, 4, 5})], 2, 0, [])
SLACK_0_ROTATED = build_problem(9, [frozenset({i}) for i in range(3)] + TRIPLES_9[:4], 3, 0, ROTATIONS_9)
SLACK_BELOW_0 = build_problem(5, [frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4})], 3, 2, [])


@st.composite
def searches(draw):
    """A built problem with point permutations, so that canonical() prunes,
    and a budget that is sometimes small enough to run out.  Up to 10 points,
    so that the search runs below the branch prefixes."""
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=2, max_value=4))
    t = draw(st.integers(min_value=0, max_value=k - 1))
    points = st.integers(min_value=0, max_value=n - 1)
    bundles = draw(st.lists(st.frozensets(points, min_size=draw(small_bundles(t, n))), min_size=1, max_size=6))
    perms = draw(st.lists(st.permutations(range(n)), max_size=3))
    budget = draw(st.one_of(st.integers(min_value=0, max_value=60), st.just(20_000)))
    return build_problem(n, bundles, k, t, perms), budget


def rough_prefix(steps, n_points):
    """A prefix of at most n_points colors read off drawn steps, each color
    its step modulo the colors in use plus 2: a restricted-growth string up
    to the first color above the next new one, or equal to k once all k are
    in use, where a walk must end, exhausted, before it counts a node."""
    prefix, used = [], 0
    for step in steps[:n_points]:
        prefix.append(step % (used + 2))
        used = max(used, prefix[-1] + 1)
    return prefix


STEPS = st.lists(st.integers(min_value=0, max_value=11), max_size=10)


def extra_prefixes(pr, steps):
    """A drawn prefix, and the first witness of pr when there is one: a
    prefix of all n_points points, which is its own subtree."""
    witness = _kernel_py.search_from_prefix(pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, [], 10**6)[0]
    return [rough_prefix(steps, pr.n_points)] + ([witness] if witness is not None else [])


@given(
    search=st.one_of(searches(), group_searches()),
    stopped=st.booleans(),
    cut=st.integers(min_value=0, max_value=PATH_POINTS),
    steps=STEPS,
)
@example(search=(build_problem(PATH_POINTS, PATH_BUNDLES, 2, 1, []), 10**6), stopped=False, cut=600, steps=[2, 0])
@example(search=(build_problem(9, TRIPLES_9, 4, 1, []), 20_000), stopped=False, cut=3, steps=[8, 4, 2, 8, 4])
@example(search=(build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9), 20_000), stopped=False, cut=9, steps=[4, 1, 1])
@example(search=(build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9), 300), stopped=False, cut=7, steps=[4, 9, 6])
@example(search=(CYCLE_60, 20_000), stopped=False, cut=30, steps=[6, 10, 6, 1])
@example(search=(SLACK_0, 20_000), stopped=False, cut=2, steps=[10, 5])
@example(search=(SLACK_0_ROTATED, 20_000), stopped=False, cut=4, steps=[6, 1, 5])
@example(search=(SLACK_BELOW_0, 20_000), stopped=False, cut=3, steps=[0])
@settings(max_examples=100, deadline=None)
def test_pure_and_compiled_agree(compiled_kernel, search, stopped, cut, steps):
    # the empty prefix walks the whole tree, counted from the root, from the
    # branch depth as a serial solve() does, or from a drawn depth; the branch
    # prefixes are the subtrees the thread pool hands out; a drawn prefix,
    # which may leave restricted growth, and a whole witness are walked with
    # count_from drawn below and above their length; a set stop flag ends
    # every walk at its first node below the prefix.  Group problems give
    # both kernels rows shuffled, repeated and with the identity among them
    pr, budget = search
    stop = array("i", [int(stopped)])
    prefixes = branch_prefixes(pr.n_points, pr.k)
    walks = [([], count_from) for count_from in (0, len(prefixes[0]), cut % (pr.n_points + 1))]
    for prefix in extra_prefixes(pr, steps):
        size = len(prefix)
        walks += [(prefix, cut % (size + 1)), (prefix, size + cut % (pr.n_points - size + 1))]
    for prefix, count_from in walks + [(prefix, 0) for prefix in prefixes]:
        args = (pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, prefix, budget, stop, count_from)
        assert compiled_kernel.search_from_prefix(*args) == _kernel_py.search_from_prefix(*args)


# the 4-cycle's rotations prune branch prefix [0, 1, 2, 1] at its last level
CYCLE_4 = group_problem(4, [frozenset({i, (i + 1) % 4}) for i in range(4)], 3, 1, cycle_group(4), range(4))
# S_3 on the 6 ordered pairs: coloring one point moves some rows to later
# buckets, then another row prunes, so the level is undone part-way through
PAIRS_3 = group_problem(6, [frozenset({0, 1, 2})], 2, 1, symmetric_group(3, pairs=True), range(6))
# slack starting at 0 (t = 0) and below 0 (a pair at t = 2) under a whole group
SLACK_0_GROUP = group_problem(6, [frozenset({0}), frozenset({1, 2}), frozenset({0, 3, 4, 5})], 2, 0, cycle_group(6), range(6))
SLACK_BELOW_0_GROUP = group_problem(6, [frozenset({0, 1}), frozenset({1, 2, 3})], 3, 2, symmetric_group(3, pairs=True), range(6))


@given(search=group_searches(), stopped=st.booleans(), steps=STEPS)
@example(search=(CYCLE_4, 5_000), stopped=False, steps=[4, 10, 2, 8])
@example(search=(PAIRS_3, 5_000), stopped=False, steps=[0, 1, 8, 0])
@example(search=(SLACK_0_GROUP, 5_000), stopped=False, steps=[2, 1, 2])
@example(search=(SLACK_BELOW_0_GROUP, 5_000), stopped=False, steps=[11])
@settings(max_examples=100, deadline=None)
def test_pure_kernel_matches_reference(search, stopped, steps):
    # and walks the same tree with the rows as build_problem lays them out:
    # each once, in first-seen order, without the identity; also under a
    # drawn prefix, which may leave restricted growth, and a whole witness
    pr, budget = search
    rows = dict.fromkeys(map(tuple, rows_of(pr.perms, pr.n_points)))
    rows.pop(tuple(range(pr.n_points)), None)
    lean = array("i", itertools.chain.from_iterable(rows))
    stop = array("i", [int(stopped)])
    for prefix in [[]] + branch_prefixes(pr.n_points, pr.k) + extra_prefixes(pr, steps):
        args = (pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, prefix, budget, stop)
        out = _kernel_py.search_from_prefix(*args)
        assert out == reference_search(*args)
        assert out == _kernel_py.search_from_prefix(*args[:6], lean, *args[7:])


def test_matrix_search_work_is_pinned(monkeypatch):
    # the kernel calls and their summed nodes over the default matrix at
    # threads=1; a change to pruning or to the branch fold moves them
    impl, nodes = kernel._impl, []

    def search_from_prefix(*args):
        out = impl.search_from_prefix(*args)
        nodes.append(out[1])
        return out

    counting = {"layout": staticmethod(impl.layout), "search_from_prefix": staticmethod(search_from_prefix)}
    monkeypatch.setattr(kernel, "_impl", type("Counting", (), counting))
    run_matrix(threads=1)
    assert (len(nodes), sum(nodes)) == (27, 1081)  # one call per solve


def branch_fold(impl, pr, budget):
    """The serial solve() as it was before a serial search became one kernel
    call: one call per branch prefix, each with the budget the earlier ones
    left.  Kept only as an oracle for the one-call walk and the thread pool."""
    nodes = 0
    for prefix in branch_prefixes(pr.n_points, pr.k):
        witness, n, _ = impl.search_from_prefix(
            pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, prefix, budget - nodes
        )
        if n > budget - nodes:
            return None, budget + 1, False
        nodes += n
        if witness is not None:
            return witness, nodes, True
    return None, nodes, True


def gil_free(impl):
    """`impl` declaring that it releases the GIL, so that solve() hands a
    search too big for PROBE to the thread pool."""
    return SimpleNamespace(RELEASES_GIL=True, layout=impl.layout, search_from_prefix=impl.search_from_prefix)


@given(search=searches(), stopped=st.booleans())
@example(search=(build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9), 20_000), stopped=False)
@example(search=(build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9), 300), stopped=True)
@settings(max_examples=60, deadline=None)
def test_solve_matches_the_branch_fold(compiled_kernel, search, stopped):
    # the one-call walk, and the pool it hands a big search to, answer as the
    # per-branch fold does, at every thread count, with either kernel; PROBE=0
    # sends every search with a budget to the pool
    pr, budget = search
    depth = len(branch_prefixes(pr.n_points, pr.k)[0])
    for impl in (gil_free(_kernel_py), compiled_kernel):
        witness, nodes, exhausted = branch_fold(impl, pr, budget)
        # the stop flag is read above count_from too: a set one ends the walk
        # before it counts a node
        stop = array("i", [int(stopped)])
        walk = impl.search_from_prefix(
            pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, [], budget, stop, depth
        )
        assert walk == ((None, 0, False) if stopped else (witness, nodes, exhausted))
        if witness is not None:
            witness = [witness[pr.order.index(it)] for it in range(pr.n_points)]
        for probe in (0, kernel.PROBE):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernel, "_impl", impl)
                mp.setattr(kernel, "PROBE", probe)
                for threads in (1, 2, 4):
                    out = solve(pr, budget=budget, threads=threads)
                    assert (out.witness, out.nodes, out.exhausted) == (witness, nodes, exhausted), (probe, threads)


def test_matrix_through_the_thread_pool_is_unchanged(monkeypatch):
    # the default matrix with every search handed to the pool gives the same
    # canonical bytes as the serial run
    serial = run_matrix(threads=1).canonical_json()
    impl, prefixes = kernel._impl, []

    def search_from_prefix(*args):
        prefixes.append(args[7])
        return impl.search_from_prefix(*args)

    monkeypatch.setattr(kernel, "_impl", gil_free(SimpleNamespace(layout=impl.layout, search_from_prefix=search_from_prefix)))
    monkeypatch.setattr(kernel, "PROBE", 0)
    assert run_matrix(threads=4).canonical_json() == serial
    assert any(prefixes)  # the pool searched branch prefixes


def test_compiled_kernel_refuses_malformed_input(compiled_kernel):
    pr = build_problem(4, [frozenset({0, 1}), frozenset({2, 3})], 2, 1, [(1, 0, 3, 2)])
    good = dict(n_points=4, k=2, t=1, bundle_sizes=pr.bundle_sizes, pb_off=pr.pb_off, pb=pr.pb,
                perms=pr.perms, prefix=[0], budget=10**30, stop=array("i", [0]))
    expected = _kernel_py.search_from_prefix(**good)
    assert expected[0] is not None
    assert compiled_kernel.search_from_prefix(**good) == expected
    # repeated identity rows tie at every level, so the trail fills to its
    # size, n_perms * n_points entries, and the rows all drop out at the leaf
    full = {**good, "perms": array("i", range(4)) * 5, "prefix": []}
    assert compiled_kernel.search_from_prefix(**full) == _kernel_py.search_from_prefix(**full)
    # no points: no bundles, and no rows
    empty = dict(n_points=0, bundle_sizes=[], pb_off=[0], pb=[], perms=array("i"), prefix=[])
    assert compiled_kernel.search_from_prefix(**{**good, **empty}) == ([], 0, True)
    for bad in (
        {"pb": [0, 0, 1, 2]},  # bundle 2 does not exist
        {"pb": [0, -1, 1, 1]},  # nor does bundle -1
        {"pb_off": [0, 1, 2, 3]},  # one offset short
        {"pb_off": [0, 2, 1, 3, 4]},  # right ends, but decreasing
        {"perms": array("i", [1, 0, 3, 2, 0, 1, 2])},  # not whole rows of n_points
        {"perms": [1, 0, 3, 2, 0]},  # the same, as a list
        {**empty, "perms": array("i", [0])},  # rows given with n_points = 0
        {"perms": array("i", [0, 1, 2, 4])},  # point 4 does not exist
        {"perms": [1, 0, 3, 2, 0, 1, -1, 2]},  # nor does point -1
        {"prefix": [0, -1]},
        {"prefix": [0, 1, 0, 1, 0]},  # longer than n_points
        {"bundle_sizes": [2, 2**40]},  # would wrap in a C int
        {"k": 0},
        {"count_from": -1},
        {"count_from": 5},  # deeper than n_points
        {"stop": [0]},  # not a buffer: a copy would never see the flag set
        {"stop": bytes(4)},  # read-only
        {"stop": array("d", [0])},
        {"stop": array("i")},  # no element
    ):
        with pytest.raises(ValueError):
            compiled_kernel.search_from_prefix(**{**good, **bad})


def test_compiled_kernel_takes_every_t_in_c_int_range(compiled_kernel):
    # the compiled kernel's initial slack, size - t - 1, must not overflow at
    # either end of the int range (the sanitizer aborts if it does), and it
    # answers as the pure kernel does, also for bundle sizes below 0
    pr = build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9)
    for sizes in (pr.bundle_sizes, [-(2**31) + 1] * len(pr.bundle_sizes)):
        for t in (-(2**31) + 1, -2, -1, 0, 2, 2**31 - 1):
            args = (pr.n_points, pr.k, t, sizes, pr.pb_off, pr.pb, pr.perms, [], 20_000)
            assert compiled_kernel.search_from_prefix(*args) == _kernel_py.search_from_prefix(*args), (sizes[0], t)


def test_build_problem_caps_k_at_the_points(compiled_kernel):
    # restricted growth colors n points with at most n colors, so a huge k
    # builds the problem of k = n: the pure kernel's rows of length k stay
    # small, and the compiled kernel, which refuses n_bundles * k beyond a C
    # int, answers the same query
    huge = build_problem(9, TRIPLES_9, 10**9, 1, ROTATIONS_9)
    assert huge.k == 9
    assert huge == build_problem(9, TRIPLES_9, 9, 1, ROTATIONS_9)
    args = (huge.n_points, huge.k, huge.t, huge.bundle_sizes, huge.pb_off, huge.pb, huge.perms, [], 20_000)
    assert compiled_kernel.search_from_prefix(*args) == _kernel_py.search_from_prefix(*args)
    assert build_problem(0, [], 5, 1, []).k == 1  # the compiled kernel needs k >= 1


@pytest.mark.parametrize(
    "bundles, perms",
    [
        # an item outside range(4) gave order 5 entries, and solve an IndexError
        ([frozenset({-1, 0}), frozenset({2, 3})], []),
        ([frozenset({0, 4}), frozenset({2, 3})], []),
        # a long row was cut short, and a short one raised IndexError
        ([frozenset({0, 1}), frozenset({2, 3})], [(1, 0, 2, 3, 9)]),
        ([frozenset({0, 1}), frozenset({2, 3})], [(1, 0, 2)]),
        # a negative entry was read from the end: [3, 0, 1, 2]
        ([frozenset({0, 1}), frozenset({2, 3})], [(-1, 0, 1, 2)]),
        ([frozenset({0, 1}), frozenset({2, 3})], [(1, 0, 3, 4)]),
    ],
)
def test_build_problem_refuses_malformed_input(bundles, perms):
    with pytest.raises(ValueError, match="range\\(4\\)"):
        build_problem(4, bundles, 2, 1, perms)


def test_build_problem_checks_rows_that_it_drops():
    # with one item only the identity is a row, and none is kept, but a
    # malformed row is still refused
    assert build_problem(1, [frozenset({0})], 2, 1, [(0,)]).perms == array("i")
    for row in ((1,), (-1,), (0, 0), ()):
        with pytest.raises(ValueError, match="range\\(1\\)"):
            build_problem(1, [frozenset({0})], 2, 1, [row])


@pytest.fixture(scope="session", params=["python", "compiled"])
def layout_kernel(request):
    """Each kernel whose layout build_problem can call: the pure one, and the
    compiled one built with the sanitizer (skipped without a C compiler)."""
    return _kernel_py if request.param == "python" else request.getfixturevalue("compiled_kernel")


def built_by(impl, *args) -> SearchProblem:
    """build_problem(*args) laid out by the kernel `impl`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_impl", impl)
        return build_problem(*args)


@st.composite
def layout_inputs(draw):
    """build_problem's arguments over up to 8 items: empty bundles, repeated
    ones and items in none, and rows that repeat or are the identity, in any
    order."""
    n = draw(st.integers(min_value=0, max_value=8))
    bundle = st.frozensets(st.integers(min_value=0, max_value=n - 1)) if n else st.just(frozenset())
    bundles = draw(st.lists(bundle, max_size=8))
    bundles += draw(st.lists(st.sampled_from(bundles), max_size=3)) if bundles else []
    rows = draw(st.lists(st.permutations(range(n)), max_size=4))
    rows += draw(st.lists(st.sampled_from(rows + [tuple(range(n))]), max_size=3))
    k = draw(st.integers(min_value=1, max_value=10))
    t = draw(st.integers(min_value=0, max_value=3))
    return n, draw(st.permutations(bundles)), k, t, draw(st.permutations(rows))


@given(args=layout_inputs())
@example(args=(0, [], 2, 1, []))
@example(args=(0, [frozenset(), frozenset()], 2, 1, [(), ()]))
@example(args=(1, [frozenset(), frozenset({0}), frozenset()], 2, 1, [(0,), (0,)]))
@example(args=(2, [frozenset({1}), frozenset({0, 1}), frozenset({1})], 3, 1, [(1, 0), (0, 1), (1, 0)]))
@example(args=(9, TRIPLES_9, 4, 1, ROTATIONS_9))
@settings(max_examples=150, deadline=None)
def test_both_layouts_build_the_problem_that_sorting_the_bundles_builds(layout_kernel, args):
    assert built_by(layout_kernel, *args) == layout_by_sorting(*args)


def test_both_layouts_build_every_problem_of_a_dual_sweep(layout_kernel, monkeypatch):
    # every problem that both dual routes build over Surj_4, as the matrix's
    # threads=2 part does: Aut(C) rows and bundles from real categories
    calls = []

    def recording(*args):
        calls.append(args)
        return build_problem(*args)

    monkeypatch.setattr(arrows, "build_problem", recording)
    surj = generate(UniverseSpec("Surj", 4))
    for A, B, C in itertools.product(range(surj.n_objects), repeat=3):
        q = ArrowQuery(A, B, C, 2, 1)
        check_arrow_dual(surj, q)
        check_arrow_native_dual(surj, q)
    assert len(calls) > 10 and any(len(rows) > 1 for *_, rows in calls)
    for args in calls:
        assert built_by(layout_kernel, *args) == layout_by_sorting(*args)


@pytest.mark.parametrize(
    "bundles, perms",
    [
        ([frozenset({-1, 0})], []),
        ([frozenset({0, 4})], []),
        ([frozenset({0, 2**40})], []),  # outside the C int range too
        ([frozenset({0, "x"})], []),
        ([frozenset({0, 1})], [(1, 0, 2)]),  # short
        ([frozenset({0, 1})], [(1, 0, 2, 3, 0)]),  # long
        ([frozenset({0, 1})], [(1, 0, 2, 4)]),
        ([frozenset({0, 1})], [(1, 0, 2, -1)]),
        ([frozenset({0, 1})], [(1, 0, 2, 2**40)]),
        ([frozenset({0, 1})], [(1, 0, 2, "3")]),
        # in range, but not permutations
        ([frozenset({0, 1})], [(0, 0, 0, 0)]),
        ([frozenset({0, 1})], [(1, 0, 3, 2), (1, 1, 2, 3)]),
        ([frozenset({0, 1})], [(3, 2, 1, 0), (0, 1, 2, 2)]),
    ],
)
def test_both_layouts_refuse_malformed_input(layout_kernel, bundles, perms):
    with pytest.raises(ValueError, match="range\\(4\\)"):
        built_by(layout_kernel, 4, bundles, 2, 1, perms)


def test_a_row_in_range_that_is_not_a_permutation_is_refused(layout_kernel):
    # it was conjugated as if it were one, and pruned every coloring: the
    # search returned a wrong "holds" (no witness, exhausted)
    bundles = [frozenset({0, 1}), frozenset({2, 3})]
    with pytest.raises(ValueError, match="distinct entries in range\\(4\\)"):
        built_by(layout_kernel, 4, bundles, 2, 1, [(0, 0, 0, 0)])
    assert solve(built_by(layout_kernel, 4, bundles, 2, 1, [])).witness == [0, 1, 0, 1]


def test_a_layout_refuses_sizes_and_rows_that_do_not_fit_its_items(layout_kernel):
    # bundles {2} and {0, 1}: item 2 comes first, and the rotation 0 -> 1 ->
    # 2 -> 0 of the items moves the points 0 -> 1 -> 2 -> 0 too
    items = array("i", [2, 0, 1])
    assert layout_kernel.layout(3, array("i", [1, 2]), items, array("i", [1, 2, 0])) == (
        [2, 0, 1], array("i", [0, 1, 2, 3]), array("i", [0, 1, 1]), array("i", [1, 2, 0]),
    )
    for n, sizes, rows in (
        (3, [2], []),  # one item too many
        (3, [2, 2], []),  # one too few
        (3, [4, -1], []),  # the right total, a size below 0
        (3, [3], [0, 1]),  # not a whole row
        (0, [], [0]),  # a row with no items
        (-1, [], []),
    ):
        with pytest.raises(ValueError):
            layout_kernel.layout(n, array("i", sizes), items if sum(sizes) else array("i"), array("i", rows))


def needs_cc():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")


def files_left(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name != "__pycache__")


def test_first_import_builds_the_library_and_later_ones_reuse_it(tmp_path, monkeypatch, capfd):
    needs_cc()
    shutil.copy(KERNEL_C, tmp_path / "_kernel.c")
    module = load_kernel(tmp_path)
    library = tmp_path / library_name(KERNEL_C.read_bytes())
    assert module._LIBRARY == library
    # the build prints nothing, leaves no temporary file, and never writes the
    # fixed name an older loader opens
    assert capfd.readouterr() == ("", "")
    assert files_left(tmp_path) == ["_kernel.c", "_kernel.py", library.name]
    pr = build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9)
    args = (pr.n_points, pr.k, pr.t, pr.bundle_sizes, pr.pb_off, pr.pb, pr.perms, [], 20_000)
    expected = _kernel_py.search_from_prefix(*args)
    assert module.search_from_prefix(*args) == expected
    built = library.stat()
    # with no compiler on PATH the next import loads the same file, unrebuilt
    monkeypatch.setenv("PATH", str(tmp_path / "no-cc"))
    again = load_kernel(tmp_path)
    assert again._LIBRARY == library and again.search_from_prefix(*args) == expected
    assert (library.stat().st_ino, library.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


def test_an_edited_source_builds_a_library_of_its_own(tmp_path):
    needs_cc()
    shutil.copy(KERNEL_C, tmp_path / "_kernel.c")
    old = load_kernel(tmp_path)._LIBRARY
    edited = KERNEL_C.read_bytes() + b"\nint catramsey_kernel_edited(void) { return 7; }\n"
    (tmp_path / "_kernel.c").write_bytes(edited)
    # the old library's name now holds a file that would fail to load; a new
    # file, since this process still maps the old one
    (tmp_path / "junk").write_bytes(b"not a shared library")
    os.replace(tmp_path / "junk", old)
    module = load_kernel(tmp_path)
    assert module._LIBRARY == tmp_path / library_name(edited) != old
    assert module._lib.catramsey_kernel_edited() == 7
    # the build removed the old source's library, which nothing opens again
    assert not old.exists()
    assert files_left(tmp_path) == sorted(["_kernel.c", "_kernel.py", module._LIBRARY.name])


@pytest.mark.parametrize("cause", ["no C compiler", "not writable", "build failed"])
def test_a_kernel_that_cannot_be_built_is_a_quiet_import_error(tmp_path, monkeypatch, capfd, cause):
    # kernel.py then selects the pure kernel; the import prints nothing, since
    # a CLI's stdout is its JSON answer, and leaves no file behind
    package = tmp_path / "package"
    package.mkdir()
    source = b"this is not C\n" if cause == "build failed" else KERNEL_C.read_bytes()
    (package / "_kernel.c").write_bytes(source)
    shutil.copy(KERNEL_PY, package / "_kernel.py")
    if cause == "build failed":
        needs_cc()
    else:
        # a cc that only records that it ran: neither case may run a compiler
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        (bin_dir / "cc").write_text(f"#!/bin/sh\ntouch {tmp_path / 'ran'}\nexit 1\n")
        (bin_dir / "cc").chmod(0o755)
        monkeypatch.setenv("PATH", str(tmp_path / "no-cc") if cause == "no C compiler" else str(bin_dir))
    if cause == "not writable":
        package.chmod(0o555)
        # root may write anywhere, so the check is also told so directly
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: access(path, mode) and not (
            Path(path) == package and mode & os.W_OK))
    try:
        with pytest.raises(ImportError, match=cause):
            load_kernel(package)
    finally:
        package.chmod(0o755)
    assert capfd.readouterr() == ("", "")
    assert files_left(package) == ["_kernel.c", "_kernel.py"]
    assert not (tmp_path / "ran").exists()


def test_compiled_kernel_without_library_is_an_import_error(tmp_path, monkeypatch):
    # kernel.py selects the pure kernel on ImportError: there is no source to
    # build from, or the library named after the source is there but does
    # not load
    monkeypatch.setenv("PATH", str(tmp_path / "no-cc"))
    with pytest.raises(ImportError, match="source unreadable"):
        load_kernel(tmp_path)
    shutil.copy(KERNEL_C, tmp_path / "_kernel.c")
    (tmp_path / library_name(KERNEL_C.read_bytes())).write_bytes(b"not a shared library")
    with pytest.raises(ImportError, match="does not load"):
        load_kernel(tmp_path)


def test_compiled_kernel_of_another_abi_is_an_import_error(tmp_path):
    # a _kernel.c of another version would misread count_from and silently
    # change node counts, so kernel.py must fall back instead; the import
    # builds the library, then refuses it
    needs_cc()
    for source in (
        "int search_from_prefix(void) { return 0; }",  # no ABI symbol at all
        "int search_from_prefix(void) { return 0; }\nint catramsey_kernel_abi(void) { return 1; }",
    ):
        (tmp_path / "_kernel.c").write_text(source)
        with pytest.raises(ImportError, match="not this version's"):
            load_kernel(tmp_path)
        assert (tmp_path / library_name(source.encode())).is_file()


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

    def search_from_prefix(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop, count_from=0):
        if prefix == []:
            return None, budget + 1, False  # the whole-tree probe is cut off
        if prefix == first:
            return witness, 1, True
        deadline = time.monotonic() + 10
        while not stop[0] and time.monotonic() < deadline:
            time.sleep(0.001)
        saw_stop.append(bool(stop[0]))
        return None, 1, False

    stub = SimpleNamespace(RELEASES_GIL=True, search_from_prefix=search_from_prefix)
    monkeypatch.setattr(kernel, "_impl", stub)
    monkeypatch.setattr(kernel, "PROBE", 0)
    out = solve(pr, threads=4)
    assert out.witness == [witness[pr.order.index(it)] for it in range(n)]
    assert (out.nodes, out.exhausted) == (1, True)
    assert saw_stop and all(saw_stop)
    assert len(saw_stop) < len(branch_prefixes(n, 2)) - 1  # queued branches never start


@pytest.mark.parametrize(
    "search",
    [{"threads": 0}, {"threads": -3}, {"threads": 1.5}, {"threads": True}, {"budget": 1.5}, {"budget": True}],
    ids=["threads-0", "threads-negative", "threads-float", "threads-bool", "budget-float", "budget-bool"],
)
def test_a_thread_count_below_one_or_not_an_int_is_refused(search):
    # as the CLI refuses --threads 0
    with pytest.raises(ValueError, match="must be an int"):
        solve(build_problem(3, [frozenset({0, 1})], 2, 1, []), **search)
    with pytest.raises(ValueError, match="must be an int"):
        run_matrix({"lo_max": 0, "inj_max": 0, "surj_max": 2}, **search)


@pytest.mark.parametrize(
    "entry, search",
    [
        ("check_arrow", {"threads": 0, "budget": -5}),
        ("native_dual", {"threads": 0, "budget": -5}),
        ("degree_bounds", {"threads": 0, "budget": -5}),
        ("cache_hit", {"threads": 0}),
    ],
    ids=["check-arrow", "native-dual", "degree-bounds", "cache-hit"],
)
def test_a_query_decided_without_a_search_refuses_a_bad_budget_or_thread_count(entry, search, lo6, surj3, tmp_path):
    # each call is decided with no kernel call, trivially or from the cache,
    # so solve never sees the values it would refuse
    cache = ResultCache(str(tmp_path))
    calls = {
        "check_arrow": lambda **kw: check_arrow(lo6, ArrowQuery(0, 0, 0, 2, 1), **kw),
        "native_dual": lambda **kw: check_arrow_native_dual(surj3, ArrowQuery(0, 0, 0, 2, 1), **kw),
        "degree_bounds": lambda **kw: degree_bounds(lo6, 0, **kw),
        "cache_hit": lambda **kw: cached_check_arrow(cache, lo6, ArrowQuery(1, 2, 4, 2, 1), **kw),
    }
    calls[entry]()  # decides, and fills the cache, with the defaults
    with pytest.raises(ValueError, match="must be an int"):
        calls[entry](**search)


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
    assert sorted(prefixes) == sorted(restricted_growth(depth, 2))


def _doubled(pr: SearchProblem) -> SearchProblem:
    """pr with every bundle listed twice, the copies numbered after the originals."""
    n_bundles = len(pr.bundle_sizes)
    pb, pb_off = array("i"), array("i", [0])
    for p in range(pr.n_points):
        own = pr.pb[pr.pb_off[p] : pr.pb_off[p + 1]]
        pb.extend(own)
        pb.extend(b + n_bundles for b in own)
        pb_off.append(len(pb))
    return dataclasses.replace(pr, bundle_sizes=pr.bundle_sizes * 2, pb_off=pb_off, pb=pb)


@pytest.mark.parametrize("k, t", [(2, 1), (3, 2)])
def test_repeated_bundles_are_kept_once_and_search_the_same_tree(inj4, k, t):
    # w and w*sigma, for sigma in Aut(B), have the same bundle: on Inj_4,
    # hom(3, 4) lists each of its four point sets six times
    A, B, C = obj(inj4, "Inj", 2), obj(inj4, "Inj", 3), obj(inj4, "Inj", 4)
    items = inj4.hom(A, C)
    index = {m: i for i, m in enumerate(items)}
    bundles = [frozenset(index[inj4.compose(w, f)] for f in inj4.hom(A, B)) for w in inj4.hom(B, C)]
    distinct = list(dict.fromkeys(bundles))
    assert (len(bundles), len(distinct)) == (24, 4)
    perms = [tuple(index[inj4.compose(a, m)] for m in items) for a in inj4.automorphisms(C)]
    repeated, plain = (build_problem(len(items), bs, k, t, perms) for bs in (bundles, distinct))
    assert (repeated.order, repeated.perms) == (plain.order, plain.perms)
    assert len(repeated.bundle_sizes) == 4
    out = solve(repeated)
    assert out == solve(plain) and out.witness is not None and out.nodes > 0
    # the kernel walks the same tree with the repeats kept
    assert solve(_doubled(plain)) == out


def test_repeated_triples_search_the_same_tree():
    repeated = build_problem(9, TRIPLES_9 + TRIPLES_9[::3], 4, 1, ROTATIONS_9)
    plain = build_problem(9, TRIPLES_9, 4, 1, ROTATIONS_9)
    assert repeated == plain
    out = solve(plain)
    assert out.witness is None and out.nodes > 0
    assert solve(_doubled(plain)) == out


BRANCH_SHAPES = [(n, k) for n in range(21) for k in (*range(1, 13), 33, 200, 2000, 8000)]


def test_branch_depth_counts_what_enumeration_lists():
    for n, k in BRANCH_SHAPES:
        deepest = min(n, kernel.MAX_BRANCH_DEPTH)
        sizes = [sum(1 for _ in restricted_growth(d, k)) for d in range(deepest + 1)]
        expected = next((d for d, size in enumerate(sizes) if size >= kernel.MIN_BRANCHES), deepest)
        assert kernel.branch_depth(n, k) == expected


def test_branch_prefixes_are_the_enumeration_at_the_branch_depth():
    for n, k in BRANCH_SHAPES:
        prefixes = kernel.branch_prefixes(n, k)
        assert prefixes == sorted(prefixes)
        assert prefixes == list(restricted_growth(kernel.branch_depth(n, k), k)), (n, k)
        assert kernel.branch_depth(n, k) == len(prefixes[0])
        # the caller's copies are its own
        prefixes[0].append(99)
        prefixes.pop()
        assert kernel.branch_prefixes(n, k) == list(restricted_growth(kernel.branch_depth(n, k), k))
    # n_points and k are clamped at MAX_BRANCH_DEPTH: 9 depths times 8 color counts
    assert kernel._prefixes.cache_info().currsize <= 72
    with pytest.raises(ValueError, match="k must be >= 1"):
        kernel.branch_prefixes(5, 0)


def test_branch_decomposition_does_not_see_colors_past_the_deepest_prefix():
    # a prefix of at most MAX_BRANCH_DEPTH points uses at most that many colors
    for n in range(3 * kernel.MAX_BRANCH_DEPTH):
        for k in (*range(1, 12), 33, 200, 2000, 8000):
            capped = min(k, kernel.MAX_BRANCH_DEPTH)
            assert kernel.branch_depth(n, k) == kernel.branch_depth(n, capped)
            assert kernel.branch_prefixes(n, k) == kernel.branch_prefixes(n, capped)
