"""Search-kernel front end: problem preprocessing, branch decomposition and
the deterministic parallel driver.

The actual DFS lives in _kernel (compiled C, used when its library has been
built) or _kernel_py (pure Python, used otherwise); both expose the same
search_from_prefix and explore identical trees, so results and node counts
match bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import _kernel_py

try:
    from . import _kernel as _impl
except ImportError:
    _impl = _kernel_py  # type: ignore[assignment]

IMPL = _impl.IMPL

DEFAULT_BUDGET = 10**8

# branch decomposition: smallest prefix depth whose restricted-growth prefix
# count reaches this, so parallel runs have enough independent work units
MIN_BRANCHES = 33
MAX_BRANCH_DEPTH = 8


@dataclass
class SearchProblem:
    """Coloring problem in point form, after symmetry conjugation.

    Points are the colorable items in a fixed search order; bundles are point
    index sets; perms are point permutations in search-order coordinates.
    """

    n_points: int
    k: int
    t: int
    bundle_sizes: list[int]
    pb_off: list[int]
    pb: list[int]
    perms: list[list[int]]
    order: list[int]  # search position -> original point id


def build_problem(
    n_items: int,
    bundles: list[frozenset[int]],
    k: int,
    t: int,
    item_perms: list[tuple[int, ...]],
) -> SearchProblem:
    """Translate a bundle problem over original item ids into search order.

    Points are ordered to finish small bundles first, which lets the
    cannot-exceed-t prune fire as early as possible.
    """
    remaining = sorted(range(len(bundles)), key=lambda b: (len(bundles[b]), b))
    order: list[int] = []
    placed: set[int] = set()
    for b in remaining:
        for it in sorted(bundles[b]):
            if it not in placed:
                placed.add(it)
                order.append(it)
    for it in range(n_items):
        if it not in placed:
            placed.add(it)
            order.append(it)
    pos = {it: i for i, it in enumerate(order)}

    point_bundles: list[list[int]] = [[] for _ in range(n_items)]
    for b, items in enumerate(bundles):
        for it in items:
            point_bundles[pos[it]].append(b)
    pb_off = [0]
    pb: list[int] = []
    for p in range(n_items):
        pb.extend(sorted(point_bundles[p]))
        pb_off.append(len(pb))

    perms = []
    seen = set()
    for p in item_perms:
        row = tuple(pos[p[order[i]]] for i in range(n_items))
        if row == tuple(range(n_items)) or row in seen:
            continue
        seen.add(row)
        perms.append(list(row))
    perms.sort()

    return SearchProblem(
        n_points=n_items,
        k=k,
        t=t,
        bundle_sizes=[len(b) for b in bundles],
        pb_off=pb_off,
        pb=pb,
        perms=perms,
        order=order,
    )


def _rgs_prefixes(depth: int, k: int) -> list[list[int]]:
    """All restricted-growth strings of the given length with values < k."""
    out: list[list[int]] = []

    def rec(s: list[int], used: int):
        if len(s) == depth:
            out.append(list(s))
            return
        for c in range(min(used + 1, k)):
            s.append(c)
            rec(s, used + 1 if c == used else used)
            s.pop()

    rec([], 0)
    return out


def branch_prefixes(n_points: int, k: int) -> list[list[int]]:
    """Fixed branch decomposition, independent of thread count."""
    if n_points == 0:
        return [[]]
    for depth in range(1, min(n_points, MAX_BRANCH_DEPTH) + 1):
        prefixes = _rgs_prefixes(depth, k)
        if len(prefixes) >= MIN_BRANCHES or depth == min(n_points, MAX_BRANCH_DEPTH):
            return prefixes
    return [[]]


@dataclass
class SearchOutcome:
    witness: list[int] | None  # colors indexed by original item id
    nodes: int
    exhausted: bool


def solve(problem: SearchProblem, budget: int = DEFAULT_BUDGET, threads: int = 1) -> SearchOutcome:
    """Run the branch decomposition and fold deterministically.

    Branches are scanned in canonical order: the first branch holding a
    witness wins and node counts of later branches are not reported, so the
    outcome does not depend on the thread count.
    """
    prefixes = branch_prefixes(problem.n_points, problem.k)
    per_branch = max(1, budget // max(len(prefixes), 1))

    def run(prefix: list[int]):
        return _impl.search_from_prefix(
            problem.n_points,
            problem.k,
            problem.t,
            problem.bundle_sizes,
            problem.pb_off,
            problem.pb,
            problem.perms,
            prefix,
            per_branch,
        )

    if threads <= 1:
        results = []
        for prefix in prefixes:
            res = run(prefix)
            results.append(res)
            if res[0] is not None:
                break
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, prefixes))

    nodes = 0
    exhausted = True
    for witness, n, ex in results:
        nodes += n
        if witness is not None:
            colors = [0] * problem.n_points
            for i, it in enumerate(problem.order):
                colors[it] = witness[i]
            return SearchOutcome(witness=colors, nodes=nodes, exhausted=True)
        if not ex:
            exhausted = False
    return SearchOutcome(witness=None, nodes=nodes, exhausted=exhausted)
