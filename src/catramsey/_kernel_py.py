"""Pure-Python witness-search kernel.

Searches for a coloring of n_points points with k colors such that every
bundle (a subset of points) receives more than t distinct colors.  Colorings
are enumerated in restricted-growth form (first use of each color is in
increasing order), which quotients out color permutations; point permutations
supplied by the caller are quotiented by lexicographic prefix canonicity.

The compiled kernel in _kernel.c implements the identical search as the same
loop, line for line; both must visit the same tree.  The depth-first walk
keeps its state in explicit arrays instead of recursion, so a problem with
thousands of points cannot exhaust the Python stack.
"""

from __future__ import annotations

IMPL = "python"


def search_from_prefix(n_points, k, t, bundle_sizes, pb_off, pb, perms, prefix, budget, stop=(0,)):
    """Explore the subtree under a restricted-growth prefix.

    Returns (witness, nodes, exhausted): witness is a full color list when a
    coloring with all bundles seeing > t colors exists in the subtree, nodes
    counts assignments tried, exhausted is False only when the search ended
    early: the node budget was hit, or another thread set stop[0] (a
    one-element array("i"); the default is a flag that is never set).
    """
    n_bundles = len(bundle_sizes)
    counts = [[0] * k for _ in range(n_bundles)]
    distinct = [0] * n_bundles
    assigned = [0] * n_bundles
    color = [-1] * n_points
    nodes = 0

    def assign(p, c):
        # returns False when some touched bundle can no longer exceed t
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
        # reject when some permuted, color-renumbered prefix is lex-smaller
        for row in perms:
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

    # replay the prefix; a pruned prefix means an empty (exhausted) subtree
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

    # depth-first over nxt[depth], the next color to try at depth, with
    # used[depth] colors already in use before it
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
