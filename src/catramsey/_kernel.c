/* Compiled witness-search kernel.

   The same search as _kernel_py.search_from_prefix, loop for loop: same
   tree, same node counts, same witness.  See that module for the algorithm.
   It uses no Python API and allocates nothing; every array is owned by the
   caller (_kernel.py), which calls it through ctypes with the GIL released.

   Build: cc -O3 -shared -fPIC _kernel.c -o libcatramsey_kernel.so */

typedef struct {
    int n_points, k, t, n_perms;
    const int *bundle_sizes, *pb_off, *pb, *perms;
    int *counts, *distinct, *assigned, *color, *ren;
} State;

/* returns 0 when some touched bundle can no longer exceed t */
static int assign(State *s, int p, int c)
{
    int ok = 1;
    for (int bi = s->pb_off[p]; bi < s->pb_off[p + 1]; bi++) {
        int b = s->pb[bi];
        if (s->counts[b * s->k + c]++ == 0)
            s->distinct[b]++;
        s->assigned[b]++;
        if (s->distinct[b] + (s->bundle_sizes[b] - s->assigned[b]) <= s->t)
            ok = 0;
    }
    s->color[p] = c;
    return ok;
}

static void unassign(State *s, int p)
{
    int c = s->color[p];
    s->color[p] = -1;
    for (int bi = s->pb_off[p]; bi < s->pb_off[p + 1]; bi++) {
        int b = s->pb[bi];
        if (--s->counts[b * s->k + c] == 0)
            s->distinct[b]--;
        s->assigned[b]--;
    }
}

/* 0 when some permuted, color-renumbered prefix is lex-smaller */
static int canonical(State *s, int depth)
{
    for (int pi = 0; pi < s->n_perms; pi++) {
        const int *row = s->perms + (long)pi * s->n_points;
        int nxt = 0;
        for (int i = 0; i < s->k; i++)
            s->ren[i] = -1;
        for (int i = 0; i < depth; i++) {
            int cj = s->color[row[i]];
            if (cj < 0)
                break;
            int r = s->ren[cj];
            if (r < 0)
                r = s->ren[cj] = nxt++;
            int ci = s->color[i];
            if (r < ci)
                return 0;
            if (r > ci)
                break;
        }
    }
    return 1;
}

/* Explore the subtree under a restricted-growth prefix.  Returns 1 with the
   witness left in color, 0 when the subtree holds none, -1 when the search
   ended early: the node budget ran out, or another thread set *stop, which
   is read at every node.  *nodes counts the assignments tried.  counts must
   be zeroed, n_bundles * k long; distinct and assigned n_bundles long,
   zeroed; color n_points long; ren k long; used and next n_points + 1 long. */
int search_from_prefix(int n_points, int k, int t, const int *bundle_sizes,
                       const int *pb_off, const int *pb, int n_perms, const int *perms,
                       int prefix_len, const int *prefix, long long budget, long long *nodes,
                       int *counts, int *distinct, int *assigned, int *color, int *ren,
                       int *used, int *next, const volatile int *stop)
{
    State s = {n_points, k, t, n_perms, bundle_sizes, pb_off, pb, perms,
               counts, distinct, assigned, color, ren};
    *nodes = 0;
    for (int i = 0; i < n_points; i++)
        color[i] = -1;

    /* replay the prefix; a pruned prefix means an empty (exhausted) subtree */
    int max_used = 0;
    for (int p = 0; p < prefix_len; p++) {
        int c = prefix[p];
        if (c > max_used || c >= k)
            return 0;
        if (!assign(&s, p, c))
            return 0;
        if (!canonical(&s, p + 1))
            return 0;
        if (c == max_used)
            max_used++;
    }

    /* depth-first over next[depth], the next color to try at depth, with
       used[depth] colors already in use before it */
    int start = prefix_len, depth = start;
    used[depth] = max_used;
    next[depth] = 0;
    while (depth < n_points) {
        int c = next[depth], u = used[depth];
        if (c > u || c == k) {
            if (depth == start)
                return 0;
            unassign(&s, --depth);
            continue;
        }
        next[depth] = c + 1;
        if (++*nodes > budget || *stop)
            return -1;
        if (assign(&s, depth, c) && canonical(&s, depth + 1)) {
            depth++;
            used[depth] = u + (c == u);
            next[depth] = 0;
        } else {
            unassign(&s, depth);
        }
    }
    return 1;
}
