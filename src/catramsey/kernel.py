"""Search-kernel front end: problem preprocessing, branch decomposition and
the deterministic parallel driver.

The actual DFS lives in _kernel (compiled C, which its first import builds
when a C compiler is on PATH and the package directory is writable) or
_kernel_py (pure Python, used when that import fails); IMPL names the one in
use.  Both expose the same search_from_prefix and explore identical trees, so
results and node counts match bit for bit.  Both also expose the same
layout, which build_problem calls to order the points and conjugate the
rows: one C pass with the compiled kernel.  build_problem lays a search out
once, as the flat arrays of SearchProblem, and every kernel call, the thread
pool's branch calls among them, reads those arrays as they are: the compiled
kernel hands C their buffers' addresses.  The branch prefixes are listed
once per shape, and the branch depth is the length of the first.  A serial
search is one kernel call over the whole tree.  Threads act only with a
kernel that releases the GIL, the compiled one, and only on a search that
needs more than PROBE nodes; the pure kernel runs every search serially,
whatever the thread count.

The compiled library also reads category files and checks composition
tables; READER is that module, or None with the pure kernel, and io and core
take it from here rather than importing _kernel again, which would retry a
build that failed.  _kernel_py is imported only when _kernel is not there,
so a process with the compiled kernel never compiles or runs it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain, starmap
from struct import Struct, error as struct_error
from typing import Sequence

try:
    from . import _kernel as _impl
except ImportError:
    from . import _kernel_py as _impl  # type: ignore[no-redef]

IMPL = _impl.IMPL
# the compiled category-file reader (scan_lines, fill_table) that io uses,
# and the table check (check_table) that core uses
READER = _impl if IMPL == "compiled" else None

DEFAULT_BUDGET = 10**8

# branch prefixes grow a point at a time until they number this, or reach
# MAX_BRANCH_DEPTH points, so parallel runs have enough independent work units
MIN_BRANCHES = 33
MAX_BRANCH_DEPTH = 8
# with threads > 1 and a kernel that releases the GIL, a search goes to the
# thread pool only when one serial call has not finished it within this many
# nodes: about 9 ms of the compiled kernel, the pool's own cost per solve
PROBE = 100_000


@dataclass
class SearchProblem:
    """A coloring problem in point form, laid out once as the flat
    array("i")s that both kernels and the C ABI read as they are.  Points are
    the colorable items in a fixed search order."""

    n_points: int
    k: int
    t: int
    bundle_sizes: array  # bundle b has bundle_sizes[b] points
    pb_off: array  # point p lies in bundles pb[pb_off[p]:pb_off[p + 1]], ascending
    pb: array
    perms: array  # point permutations in search order, rows of n_points one after another
    order: list[int]  # search position -> original point id


def build_problem(
    n_items: int,
    bundles: list[frozenset[int]],
    k: int,
    t: int,
    item_perms: Sequence[Sequence[int]],
) -> SearchProblem:
    """Lay a bundle problem over original item ids out in search order: the
    one place that builds a SearchProblem.

    Points are ordered to finish small bundles first, which lets the
    cannot-exceed-t prune fire as early as possible: each item at its first
    place in the bundles sorted by size (a stable sort keeps equal sizes in
    their order), each bundle's items ascending, then the items in none.  A
    bundle listed more than once is kept once, at its first place: a repeat
    adds no point to the order and prunes exactly where its first copy does,
    so the tree and its node count are the same.  Each of `item_perms`, any
    sequence of item permutations, is packed as native ints, the bytes of
    array("i"), conjugated into search order, and kept in first-seen order
    without the identity and repeats: each row prunes on its own, so neither
    changes the tree.  The kernel's layout does the ordering and the
    conjugation in one pass.  A bundle item outside range(n_items), or a row
    that is not a permutation of range(n_items), raises ValueError.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    bundles = list(dict.fromkeys(bundles))
    flat = list(chain.from_iterable(bundles))
    try:
        items = array("i", flat)
    except (TypeError, OverflowError):
        raise ValueError(f"a bundle holds an item outside range({n_items})") from None
    # conjugation maps distinct rows to distinct rows and the identity to
    # itself, so the repeats and the identity go before the layout, which
    # still checks every distinct row
    row, identity = _row(n_items)
    try:
        rows = dict.fromkeys(starmap(row.pack, item_perms))
    except struct_error:
        raise ValueError(f"an item permutation needs {n_items} entries in range({n_items})") from None
    rows.pop(identity, None)
    sizes = array("i", list(map(len, bundles)))
    order, pb_off, pb, perms = _impl.layout(n_items, sizes, items, array("i", b"".join(rows)))

    return SearchProblem(
        n_points=n_items,
        # restricted growth never uses more colors than points, so a larger k
        # changes no tree; the cap bounds the kernels' rows of length k, and
        # keeps k >= 1, which the compiled kernel needs, when there are none
        k=min(k, max(n_items, 1)),
        t=t,
        bundle_sizes=sizes,
        pb_off=pb_off,
        pb=pb,
        perms=perms,
        order=order,
    )


@cache
def _row(n_items: int) -> tuple[Struct, bytes]:
    """The packing of a row of n_items native ints, the layout of
    array("i"), and the identity row's bytes."""
    row = Struct(f"{n_items}i")
    return row, row.pack(*range(n_items))


@cache
def _prefixes(deepest: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The restricted-growth strings with values < k in lexicographic order,
    grown a level at a time by every value up to one past each one's largest."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    level = [()]
    while len(level) < MIN_BRANCHES and len(level[0]) < deepest:
        level = [s + (c,) for s in level for c in range(min(max(s, default=-1) + 2, k))]
    return tuple(level)


def branch_prefixes(n_points: int, k: int) -> list[list[int]]:
    """Fixed branch decomposition, independent of thread count, as fresh lists.
    A prefix of at most MAX_BRANCH_DEPTH points uses no more colors, so both
    n_points and k are clamped there: at most 72 shapes."""
    return list(map(list, _prefixes(min(n_points, MAX_BRANCH_DEPTH), min(k, MAX_BRANCH_DEPTH))))


def branch_depth(n_points: int, k: int) -> int:
    """The prefix depth of the branch decomposition, read from its list."""
    return len(_prefixes(min(n_points, MAX_BRANCH_DEPTH), min(k, MAX_BRANCH_DEPTH))[0])


@dataclass
class SearchOutcome:
    witness: list[int] | None  # colors indexed by original item id
    nodes: int
    exhausted: bool


def _outcome(problem: SearchProblem, witness: list[int] | None, nodes: int, exhausted: bool) -> SearchOutcome:
    """A kernel result with the witness mapped back to original item ids."""
    if witness is None:
        return SearchOutcome(witness=None, nodes=nodes, exhausted=exhausted)
    colors = [0] * problem.n_points
    for i, it in enumerate(problem.order):
        colors[it] = witness[i]
    return SearchOutcome(witness=colors, nodes=nodes, exhausted=True)


def check_search_args(budget: int, threads: int) -> None:
    """Refuse a budget below 0 or a thread count below 1, or either not an
    int (bool is an int subclass, but True is no count).  solve and the
    entry points that pass them on call this before any work, so that a
    query decided without a search refuses them too."""
    if type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be an int >= 0, got {budget!r}")
    if type(threads) is not int or threads < 1:
        raise ValueError(f"threads must be an int >= 1, got {threads!r}")


def solve(problem: SearchProblem, budget: int = DEFAULT_BUDGET, threads: int = 1) -> SearchOutcome:
    """The serial run: the branches searched in prefix order, stopping at the
    first witness.

    `budget` bounds the node total of the serial run; the outcome is
    inconclusive, with nodes = budget + 1, exactly when it needs more.
    Neither covers the first branch_depth(n_points, k) levels, where the
    branch prefixes lie: a tree no deeper than that reports 0 nodes, and
    no budget stops its search.

    A serial run is one kernel call over the whole tree.  Only a kernel that
    releases the GIL can gain from threads, so only then, with threads > 1,
    does that call stop at PROBE nodes: a search that needs more goes to the
    pool, where threads start later branches early, each capped at the budget
    left then, and the fold takes their results in prefix order as the
    serial run would, setting the stop flag to end them once it is decided.
    """
    check_search_args(budget, threads)
    stop = array("i", [0])
    nodes = 0  # folded total: only grows, so a branch's cap is never below its serial one

    def run(prefix: list[int], cap: int, count_from: int = 0):
        return _impl.search_from_prefix(
            problem.n_points,
            problem.k,
            problem.t,
            problem.bundle_sizes,
            problem.pb_off,
            problem.pb,
            problem.perms,
            prefix,
            cap,
            stop,
            count_from,
        )

    cap = min(budget, PROBE) if threads > 1 and _impl.RELEASES_GIL else budget
    witness, walked, exhausted = run([], cap, branch_depth(problem.n_points, problem.k))
    if exhausted or cap == budget:
        return _outcome(problem, witness, walked, exhausted)

    # imported only here: concurrent.futures, and the logging it imports, would
    # add milliseconds to every process that never searches in parallel
    from concurrent.futures import ThreadPoolExecutor

    prefixes = branch_prefixes(problem.n_points, problem.k)
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        for witness, n, _ in pool.map(lambda prefix: run(prefix, budget - nodes), prefixes):
            if n > budget - nodes:
                return SearchOutcome(witness=None, nodes=budget + 1, exhausted=False)
            nodes += n
            if witness is not None:
                return _outcome(problem, witness, nodes, True)
        return SearchOutcome(witness=None, nodes=nodes, exhausted=True)
    finally:
        stop[0] = 1
        pool.shutdown(cancel_futures=True)
