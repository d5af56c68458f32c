"""Pure-Python witness-search kernel.

Searches for a coloring of n_points points with k colors such that every
bundle (a subset of points) receives more than t distinct colors.  Colorings
are enumerated in restricted-growth form (first use of each color is in
increasing order), which quotients out color permutations; point permutations
supplied by the caller are quotiented by lexicographic prefix canonicity: a
prefix is pruned when some row maps it, colors renumbered in order of first
use, to a lex-smaller one.

The problem comes in kernel.SearchProblem's flat layout, indexed as it is:
row r of perms is perms[r * n_points:(r + 1) * n_points], and there are
n_perms = len(perms) // n_points rows (none when n_points is 0).  Each row
prunes on its own, so their order, a repeat or the identity changes no tree.

Each bundle b keeps one counter, its slack: distinct + uncolored - (t + 1),
where distinct counts the colors it holds and uncolored its points not yet
colored.  It starts at size - t - 1, and the bundle can still exceed t
colors while it is >= 0.  Coloring a point with a color the bundle already
holds costs one unit of slack; a new color costs none.  counts[c][b], the
points of b colored c, tells the two apart.  A color is tested before it is
applied: it fits point p when every bundle of p has slack of at least its
cost, and only a color that fits is applied, so a refused color leaves no
state to undo.  A bundle whose slack starts below 0 refuses every color at
its first point.  A bundle with slack 0 is tight: each of its uncolored
points must take a color it does not hold yet.

Canonicity is kept incrementally, so a node pays only for the rows that its
point can move.  Each row r keeps a state:
  - pos[r]: the positions before it already tie with the color prefix;
    n_points once the row can no longer prune in this subtree (it found a
    lex-larger image, or tied all the way);
  - ren[r] and fresh[r]: its color renumbering so far, and the number of
    colors renumbered.
Position pos compares color[pos] with the renumbered color[row[pos]], so a row
waits on key = max(pos, row[pos]), the first point whose color lets it move,
and sits in the stack bucket[key], kept as head[key] and link[r].  Coloring
point d advances only the rows in bucket[d]: a smaller image prunes, a larger
one retires the row, a tie goes on to the next position, and a row that stops
on a point not yet colored moves to the bucket of its new key, always above d.
So every push to bucket[q] comes from a level below q, and undoing the levels
in reverse order pops each bucket as a stack.  The trail records (r, pos,
fresh) for every row that point d moved, top[d] being its length before; a
row is moved at most once per level along a path, so the trail never holds
more than n_perms * n_points entries.  Backtracking over d, or a prune
part-way through its rows, puts them back in bucket[d] in their saved state.
The check is skipped when bucket[d] is empty and the undo when level d left
no trail, so problems without permutations pay nothing for it.

kernel.solve makes a serial search one call: the empty prefix, with count_from
at the branch depth.  This kernel holds the GIL, so solve never hands its
searches to threads; only the compiled kernel, which releases it, gains from
them, and only on a search that needs more than kernel.PROBE nodes.

The search is one depth-first walk from the root whose first levels are the
prefix, each offered only its own color, so a prefix color that leaves
restricted growth, does not fit or is not canonical ends it, exhausted,
before it counts a node.  _kernel.c walks the identical tree in the same
loop, line for line.  The walk keeps its state in explicit arrays, not
recursion, so thousands of points cannot exhaust the Python stack.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain

IMPL = "python"
# the search holds the GIL throughout, so threads cannot run two at once
RELEASES_GIL = False


def layout(n_items, bundle_sizes, items, rows):
    """Lay a bundle problem over item ids out in search order, for
    kernel.build_problem: returns (order, pb_off, pb, perms).

    Bundle b holds the bundle_sizes[b] items that follow those of bundle
    b - 1 in `items`, and `rows` holds item permutations of n_items entries
    each, one after another.  order, a list, is the item id at each search
    position: the items of smaller bundles first, each at its first place in
    the bundles sorted by size (a stable sort keeps equal sizes in index
    order), then the items in none.  That place is the item's rank, the first
    bundle in size order that holds it; the ids are then sorted by rank,
    ascending within one, so no bundle is sorted.  Point p's bundles lie in
    pb[pb_off[p]:pb_off[p + 1]] in index order, and row r of perms is row r
    of `rows` conjugated into search order, pos[row[order[i]]] at position i.
    All three are array("i")s.

    Raises ValueError when a size is below 0 or the sizes do not add up to
    len(items), when an item lies outside range(n_items), or when `rows` is
    not whole rows each a permutation of range(n_items).  _kernel.c's layout
    is this function, step for step.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if len(rows) % n_items if n_items else len(rows):
        raise ValueError(f"rows must hold whole rows of {n_items} entries")
    n_bundles = len(bundle_sizes)
    start = list(accumulate(bundle_sizes, initial=0))
    if min(bundle_sizes, default=0) < 0 or start[-1] != len(items):
        raise ValueError("bundle sizes must be >= 0 and add up to the number of items")
    if items and not 0 <= min(items) <= max(items) < n_items:
        raise ValueError(f"a bundle holds an item outside range({n_items})")
    bundles = [items[start[b] : start[b + 1]] for b in range(n_bundles)]

    rank = [n_bundles] * n_items
    by_size = sorted(range(n_bundles), key=bundle_sizes.__getitem__)
    for j in reversed(range(n_bundles)):
        for x in bundles[by_size[j]]:
            rank[x] = j
    order = sorted(range(n_items), key=rank.__getitem__)
    pos = sorted(range(n_items), key=order.__getitem__)  # the inverse of order

    # bundles are visited in index order, so each point's list ascends
    point_bundles: list[list[int]] = [[] for _ in range(n_items)]
    for b, bundle in enumerate(bundles):
        for x in bundle:
            point_bundles[pos[x]].append(b)

    every = set(range(n_items))
    perms = array("i")
    for base in range(0, len(rows), n_items or 1):
        row = rows[base : base + n_items]
        if len(set(row)) != n_items or not every.issuperset(row):
            raise ValueError(f"an item permutation needs {n_items} distinct entries in range({n_items})")
        perms.extend([pos[row[i]] for i in order])
    return (
        order,
        array("i", accumulate(map(len, point_bundles), initial=0)),
        array("i", chain.from_iterable(point_bundles)),
        perms,
    )


def search_from_prefix(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop=(0,), count_from=0):
    """Explore the subtree under a restricted-growth prefix.

    Returns (witness, nodes, exhausted): witness is a full color list when a
    coloring with all bundles seeing > t colors exists in the subtree, nodes
    counts assignments tried, exhausted is False only when the search ended
    early: the node budget was hit, or another thread set stop[0] (a
    one-element array("i"); the default is a flag that is never set).

    Assignments at depths below count_from, or within the prefix, are
    neither counted nor charged to the budget; the stop flag is read at every
    node below the prefix, also above count_from.  So the empty prefix with
    count_from at the branch depth walks every branch prefix in lex order,
    and returns what searching those prefixes one by one, each with the
    budget the earlier ones left, adds up to: one call for a serial search.
    """
    slack = [size - t - 1 for size in bundle_sizes]
    counts = [[0] * len(bundle_sizes) for _ in range(k)]
    bundles = [list(pb[pb_off[p] : pb_off[p + 1]]) for p in range(n_points)]  # lists iterate faster than slices
    color = [-1] * n_points
    nodes = 0

    n_perms = len(perms) // n_points if n_points else 0
    pos = [0] * n_perms
    fresh = [0] * n_perms
    ren = [[-1] * k for _ in range(n_perms)]
    head = [-1] * n_points
    link = [-1] * n_perms
    trail = []
    top = [0] * (n_points + 1)
    for r in range(n_perms):
        q = perms[r * n_points]
        link[r] = head[q]
        head[q] = r

    def fits(p, c):
        # False when color c at point p would kill one of its bundles
        cnt = counts[c]
        for b in bundles[p]:
            if slack[b] < (1 if cnt[b] else 0):
                return False
        return True

    def assign(p, c):
        cnt = counts[c]
        for b in bundles[p]:
            if cnt[b]:
                slack[b] -= 1
            cnt[b] += 1
        color[p] = c

    def unassign(p):
        c = color[p]
        color[p] = -1
        cnt = counts[c]
        for b in bundles[p]:
            cnt[b] -= 1
            if cnt[b]:
                slack[b] += 1

    def canonical(d):
        # advance the rows waiting on point d, the last one colored; False
        # when one of them maps the prefix to a lex-smaller one
        r = head[d]
        while r >= 0:
            head[d] = link[r]
            base = r * n_points  # row r is perms[base : base + n_points]
            rr = ren[r]
            i = pos[r]
            m = fresh[r]
            trail.append((r, i, m))
            while True:
                cj = color[perms[base + i]]
                x = rr[cj]
                if x < 0:
                    x = m
                ci = color[i]
                if x != ci:
                    i = n_points  # retired, or pruning below
                    break
                if x == m:
                    rr[cj] = m
                    m += 1
                i += 1
                if i == n_points:
                    break
                q = perms[base + i]
                if q < i:
                    q = i
                if q > d:
                    link[r] = head[q]
                    head[q] = r
                    break
            pos[r] = i
            fresh[r] = m
            if x < ci:
                return False
            r = head[d]
        return True

    def undo(d):
        # put the rows that point d moved back in bucket[d], as they were
        while len(trail) > top[d]:
            r, i, m = trail.pop()
            j = pos[r]
            if j < n_points:
                q = perms[r * n_points + j]
                head[q if q > j else j] = link[r]
            if fresh[r] > m:
                rr = ren[r]
                for c in range(k):
                    if rr[c] >= m:
                        rr[c] = -1
                fresh[r] = m
            pos[r] = i
            link[r] = head[d]
            head[d] = r

    # depth-first over nxt[depth], the next color to try at depth, with
    # used[depth] colors already in use before it; nxt starts at the prefix,
    # and a level's nxt goes back to 0 when the walk leaves it
    start = len(prefix)
    count_from = max(count_from, start)
    used = [0] * (n_points + 1)
    nxt = list(prefix) + [0] * (n_points + 1 - start)
    depth = 0
    while depth < n_points:
        c = nxt[depth]
        u = used[depth]
        if c > u or c == k:
            if depth <= start:
                return None, nodes, True
            nxt[depth] = 0
            depth -= 1
            if trail and len(trail) > top[depth]:
                undo(depth)
            unassign(depth)
            continue
        nxt[depth] = c + 1
        if depth >= count_from:
            nodes += 1
            if nodes > budget:
                return None, nodes, False
        if stop[0] and depth >= start:
            return None, nodes, False
        if fits(depth, c):
            assign(depth, c)
            if head[depth] < 0 or canonical(depth):
                depth += 1
                used[depth] = u + (c == u)
                top[depth] = len(trail)
                continue
            if trail and len(trail) > top[depth]:
                undo(depth)
            unassign(depth)
        if depth < start:  # the prefix's color failed: its subtree is empty
            return None, nodes, True
    return list(color), nodes, True
