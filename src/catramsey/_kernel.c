/* Compiled kernel: the problem layout, layout, that kernel.build_problem
   calls; the witness search, search_from_prefix; the bulk of the
   category-file reader, scan_lines and fill_table; and the composition-table
   check, check_table, which core's pure check mirrors.  None of them uses
   the Python API or allocates; every array is owned by the caller
   (_kernel.py), which passes each by address through ctypes with the GIL
   released.  A caller's array of length 0 may be passed as a null pointer,
   so no function reads one, or does arithmetic on it, unless its length
   says there is something there.  Their calling convention is ABI 8
   (KERNEL_ABI below).

   layout is the same computation as _kernel_py.layout, step for step: the
   search order, each point's bundles and the permutation rows conjugated
   into search order, from the bundles and rows laid end to end.

   search_from_prefix is the same search as _kernel_py.search_from_prefix,
   loop for loop: same tree, same node counts, same witness.  See that module
   for the algorithm.  It is one depth-first walk from the root, whose first
   levels are the prefix, each offered only its own color.

   Each bundle b keeps one counter, slack[b] = distinct + uncolored - (t + 1),
   which starts at size - t - 1; the bundle is dead below 0.  A color the
   bundle already holds costs one unit of slack, a new one none, and
   counts[c * n_bundles + b], the points of b colored c, tells them apart.
   fits() tests a color against every bundle of the point before assign()
   applies it, so a refused color is never applied or undone.  Any number of
   colors exceeds a t below -1 as it exceeds -1, so t is raised to -1, and
   a slack that starts below 0 is stored as -1: such a bundle refuses every
   color, so its slack never changes.  Both keep size - t - 1, computed in
   long long, within int range.

   assign() and unassign() move the slack by the value of the test,
   slack[b] -= (cnt[b]++ != 0), not by a branch on it.  Whether a bundle
   already holds the color follows no pattern that the CPU can predict, and
   on the benchmark's search suite the mispredicted branch made the search
   1.5 to 2 times slower.  fits() keeps its branch, returning at the first
   bundle that refuses, which spares a point in many bundles the rest of its
   list; a branch-free fits() measured slower.

   Canonicity is incremental, as in _kernel_py.  Row r of perms keeps pos[r],
   the positions already tied with the color prefix (n_points once it can no
   longer prune), and its color renumbering ren[r * k ...] with fresh[r]
   colors renumbered.  It waits on key = max(pos, row[pos]) in the stack
   bucket[key], kept as head[key] and link[r]; coloring point d advances only
   the rows in bucket[d], and a row that stops on an uncolored point moves to
   a bucket above d.  The trail holds (r, pos, fresh) triples, top[d] being
   its length before point d moved any row; undo(d) pops the moved rows off
   their buckets and puts them back in bucket[d] in their saved state.  A row
   moves at most once per level along a path, so the trail needs
   len(perms) * n_points triples.

   _kernel.py builds it on first import, named after this file's sha256:
   cc -O2 -shared -fPIC _kernel.c -o libcatramsey_kernel-<digest>.so */

#include <string.h>

/* Each exported function starts on a 64-byte boundary, so that where its
   loops fall against the cache lines does not shift when the code before it
   changes.  On a CPU that runs a branch crossing a 32-byte boundary slowly
   (Intel's JCC erratum), such a shift alone, with scan_lines unchanged,
   took it from 0.86 to 1.49 ms on a Surj_5 file. */
#if defined(__GNUC__)
#define ALIGNED __attribute__((aligned(64)))
#else
#define ALIGNED
#endif

/* The calling convention of the functions below.  _kernel.py refuses a
   library whose catramsey_kernel_abi() returns another value, or that has
   none, so a library built from an older source is never called with
   arguments it would misread, or asked for a function it lacks.  Bump it
   whenever a function is added or removed, or the signature, the meaning
   of an argument or a return code changes. */
#define KERNEL_ABI 8

int catramsey_kernel_abi(void)
{
    return KERNEL_ABI;
}

/* Lay a bundle problem over item ids out in search order, as
   kernel.build_problem does.  Bundle b holds the bundle_sizes[b] items that
   follow those of bundle b - 1 in items, n_total in all, and rows holds
   n_rows item permutations of n_items entries each, one after another.
   Fill order (n_items), the item id at each search position; pb_off
   (n_items + 1) and pb (n_total), point p's bundles in index order at
   pb[pb_off[p]:pb_off[p + 1]]; and perms (n_rows * n_items), row r
   conjugated into search order, pos[row[order[i]]] at position i.  work
   holds 3 * n_bundles + n_total + 3 * n_items + 2 ints, of any content.

   The order puts the items of smaller bundles first: the bundles sorted by
   size (a stable counting sort keeps equal sizes in index order), each
   item at its first place in them, then the items in none.  That is each
   item's rank, the first bundle in size order that holds it (n_bundles for
   none), written while walking the bundles in reverse; the ids then go in
   order of rank, ascending within one, by a second counting sort.  No
   bundle is sorted.

   Return 0; -3 when a size is below 0 or the sizes do not add up to
   n_total; -1 when an item lies outside [0, n_items); -4 when a bundle
   holds an item twice, which would count twice in its size and so in its
   slack; -2 when a row is not a permutation of [0, n_items).  A stamp per
   item, the bundle's or the row's number plus one, tells a repeat.  The
   outputs are then partly written. */
ALIGNED
int layout(int n_items, int n_bundles, const int *bundle_sizes, int n_total, const int *items,
           int n_rows, const int *rows, int *order, int *pb_off, int *pb, int *perms, int *work)
{
    int *start = work, *by_size = start + n_bundles, *cnt = by_size + n_bundles;
    int *rank = cnt + n_total + n_bundles + 2, *pos = rank + n_items, *stamp = pos + n_items;
    long long total = 0;
    for (int b = 0; b < n_bundles; b++) {
        if (bundle_sizes[b] < 0 || total + bundle_sizes[b] > n_total)
            return -3;
        start[b] = (int)total;
        total += bundle_sizes[b];
    }
    if (total != n_total)
        return -3;
    for (int i = 0; i < n_total; i++)
        if (items[i] < 0 || items[i] >= n_items)
            return -1;
    memset(stamp, 0, (size_t)n_items * sizeof *stamp);
    for (int b = 0; b < n_bundles; b++)
        for (int i = start[b]; i < start[b] + bundle_sizes[b]; i++) {
            if (stamp[items[i]] == b + 1)
                return -4;
            stamp[items[i]] = b + 1;
        }

    /* the bundles by size: cnt[s] counts those smaller than s */
    memset(cnt, 0, (size_t)(n_total + 2) * sizeof *cnt);
    for (int b = 0; b < n_bundles; b++)
        cnt[bundle_sizes[b] + 1]++;
    for (int s = 1; s <= n_total + 1; s++)
        cnt[s] += cnt[s - 1];
    for (int b = 0; b < n_bundles; b++)
        by_size[cnt[bundle_sizes[b]]++] = b;

    for (int x = 0; x < n_items; x++)
        rank[x] = n_bundles;
    for (int j = n_bundles - 1; j >= 0; j--) {
        int b = by_size[j];
        for (int i = start[b]; i < start[b] + bundle_sizes[b]; i++)
            rank[items[i]] = j;
    }

    /* the ids by rank: cnt[j] counts those of rank below j */
    memset(cnt, 0, (size_t)(n_bundles + 2) * sizeof *cnt);
    for (int x = 0; x < n_items; x++)
        cnt[rank[x] + 1]++;
    for (int j = 1; j <= n_bundles + 1; j++)
        cnt[j] += cnt[j - 1];
    for (int x = 0; x < n_items; x++)
        order[cnt[rank[x]]++] = x;
    for (int p = 0; p < n_items; p++)
        pos[order[p]] = p;

    /* bundles are visited in index order, so each point's list ascends; the
       ranks are spent, and rank[p] becomes point p's next slot in pb */
    memset(pb_off, 0, (size_t)(n_items + 1) * sizeof *pb_off);
    for (int i = 0; i < n_total; i++)
        pb_off[pos[items[i]] + 1]++;
    for (int p = 0; p < n_items; p++) {
        pb_off[p + 1] += pb_off[p];
        rank[p] = pb_off[p];
    }
    for (int b = 0; b < n_bundles; b++)
        for (int i = start[b]; i < start[b] + bundle_sizes[b]; i++)
            pb[rank[pos[items[i]]]++] = b;

    memset(stamp, 0, (size_t)n_items * sizeof *stamp);
    for (int r = 0; r < n_rows; r++) {
        long base = (long)r * n_items;
        for (int i = 0; i < n_items; i++) {
            int v = rows[base + i];
            if (v < 0 || v >= n_items || stamp[v] == r + 1)
                return -2;
            stamp[v] = r + 1;
        }
        for (int i = 0; i < n_items; i++)
            perms[base + i] = pos[rows[base + order[i]]];
    }
    return 0;
}

typedef struct {
    int n_points, k, n_bundles;
    const int *pb_off, *pb, *perms;
    int *counts, *slack, *color;
    int *pos, *fresh, *ren, *link, *head, *trail, *top;
    int trail_len;
} State;

/* 0 when color c at point p would kill one of its bundles */
static int fits(const State *s, int p, int c)
{
    const int *cnt = s->counts + (long)c * s->n_bundles;
    for (int bi = s->pb_off[p]; bi < s->pb_off[p + 1]; bi++) {
        int b = s->pb[bi];
        if (s->slack[b] < (cnt[b] ? 1 : 0))
            return 0;
    }
    return 1;
}

static void assign(State *s, int p, int c)
{
    int *cnt = s->counts + (long)c * s->n_bundles;
    for (int bi = s->pb_off[p]; bi < s->pb_off[p + 1]; bi++) {
        int b = s->pb[bi];
        s->slack[b] -= (cnt[b]++ != 0);
    }
    s->color[p] = c;
}

static void unassign(State *s, int p)
{
    int c = s->color[p];
    s->color[p] = -1;
    int *cnt = s->counts + (long)c * s->n_bundles;
    for (int bi = s->pb_off[p]; bi < s->pb_off[p + 1]; bi++) {
        int b = s->pb[bi];
        s->slack[b] += (--cnt[b] != 0);
    }
}

/* advance the rows waiting on point d, the last one colored; 0 when one of
   them maps the prefix to a lex-smaller one */
static int canonical(State *s, int d)
{
    int r = s->head[d];
    while (r >= 0) {
        s->head[d] = s->link[r];
        const int *row = s->perms + (long)r * s->n_points;
        int *rr = s->ren + (long)r * s->k;
        int i = s->pos[r], m = s->fresh[r];
        int *e = s->trail + 3L * s->trail_len++;
        e[0] = r;
        e[1] = i;
        e[2] = m;
        int x, ci;
        for (;;) {
            int cj = s->color[row[i]];
            x = rr[cj];
            if (x < 0)
                x = m;
            ci = s->color[i];
            if (x != ci) {
                i = s->n_points; /* retired, or pruning below */
                break;
            }
            if (x == m)
                rr[cj] = m++;
            if (++i == s->n_points)
                break;
            int q = row[i];
            if (q < i)
                q = i;
            if (q > d) {
                s->link[r] = s->head[q];
                s->head[q] = r;
                break;
            }
        }
        s->pos[r] = i;
        s->fresh[r] = m;
        if (x < ci)
            return 0;
        r = s->head[d];
    }
    return 1;
}

/* put the rows that point d moved back in bucket[d], as they were */
static void undo(State *s, int d)
{
    while (s->trail_len > s->top[d]) {
        const int *e = s->trail + 3L * --s->trail_len;
        int r = e[0], i = e[1], m = e[2];
        int j = s->pos[r];
        if (j < s->n_points) {
            int q = s->perms[(long)r * s->n_points + j];
            s->head[q > j ? q : j] = s->link[r];
        }
        if (s->fresh[r] > m) {
            int *rr = s->ren + (long)r * s->k;
            for (int c = 0; c < s->k; c++)
                if (rr[c] >= m)
                    rr[c] = -1;
            s->fresh[r] = m;
        }
        s->pos[r] = i;
        s->link[r] = s->head[d];
        s->head[d] = r;
    }
}

/* Explore the subtree under a restricted-growth prefix.  Returns 1 with the
   witness left in color, 0 when the subtree holds none, -1 when the search
   ended early: the node budget ran out, or another thread set *stop, which
   is read at every node below the prefix.  Returns -2, having searched
   nothing, when pb_off decreases somewhere, or pb names a bundle outside
   [0, n_bundles), or perms a point outside [0, n_points): a first pass
   checks them all before the search reads any.  The caller has checked the
   lengths: pb_off holds n_points + 1 offsets from 0 to the length of pb,
   and perms n_perms * n_points entries.  *nodes counts the assignments
   tried below the prefix at depth count_from or deeper; those above are not
   charged to the budget, so the empty prefix with count_from at the branch
   depth walks every branch prefix in one call and returns what
   kernel.solve's branch fold adds up to.  bundle_sizes is n_bundles long.
   work, of any content, holds the search's state end to end: color
   (n_points), where a witness is left, then counts (k * n_bundles), slack
   (n_bundles), pos, fresh and link (n_perms each), ren (n_perms * k), head
   (n_points), trail (3 * n_perms * n_points), and used, next and top
   (n_points + 1 each).  Only counts is read before it is written, and it is
   zeroed here. */
ALIGNED
int search_from_prefix(int n_points, int k, int t, int n_bundles, const int *bundle_sizes,
                       const int *pb_off, const int *pb, int n_perms, const int *perms,
                       int prefix_len, const int *prefix, int count_from,
                       long long budget, long long *nodes, int *work, const volatile int *stop)
{
    int *color = work, *counts = color + n_points, *slack = counts + (long)k * n_bundles;
    int *pos = slack + n_bundles, *fresh = pos + n_perms, *link = fresh + n_perms;
    int *ren = link + n_perms, *head = ren + (long)n_perms * k, *trail = head + n_points;
    int *used = trail + 3L * n_perms * n_points, *next = used + n_points + 1, *top = next + n_points + 1;
    State s = {n_points, k, n_bundles, pb_off, pb, perms,
               counts, slack, color,
               pos, fresh, ren, link, head, trail, top, 0};
    *nodes = 0;
    memset(counts, 0, (size_t)k * (size_t)n_bundles * sizeof *counts);
    for (int p = 0; p < n_points; p++)
        if (pb_off[p] > pb_off[p + 1])
            return -2;
    for (int i = 0; i < pb_off[n_points]; i++)
        if (pb[i] < 0 || pb[i] >= n_bundles)
            return -2;
    for (long i = 0; i < (long)n_perms * n_points; i++)
        if (perms[i] < 0 || perms[i] >= n_points)
            return -2;
    if (t < -1)
        t = -1;
    for (int b = 0; b < n_bundles; b++) {
        long long room = (long long)bundle_sizes[b] - t - 1;
        slack[b] = room < 0 ? -1 : (int)room;
    }
    for (int i = 0; i < n_points; i++) {
        color[i] = -1;
        head[i] = -1;
        next[i] = i < prefix_len ? prefix[i] : 0;
    }
    for (int r = 0; r < n_perms && n_points; r++) {
        int q = perms[(long)r * n_points];
        pos[r] = fresh[r] = 0;
        for (int c = 0; c < k; c++)
            ren[(long)r * k + c] = -1;
        link[r] = head[q];
        head[q] = r;
    }

    /* depth-first over next[depth], the next color to try at depth, with
       used[depth] colors already in use before it; next starts at the
       prefix, and a level's next goes back to 0 when the walk leaves it */
    int start = prefix_len, depth = 0;
    if (count_from < start)
        count_from = start;
    used[0] = top[0] = 0;
    while (depth < n_points) {
        int c = next[depth], u = used[depth];
        if (c > u || c == k) {
            if (depth <= start)
                return 0;
            next[depth--] = 0;
            if (s.trail_len > top[depth])
                undo(&s, depth);
            unassign(&s, depth);
            continue;
        }
        next[depth] = c + 1;
        if (depth >= count_from && ++*nodes > budget)
            return -1;
        if (*stop && depth >= start)
            return -1;
        if (fits(&s, depth, c)) {
            assign(&s, depth, c);
            if (head[depth] < 0 || canonical(&s, depth)) {
                depth++;
                used[depth] = u + (c == u);
                top[depth] = s.trail_len;
                continue;
            }
            if (s.trail_len > top[depth])
                undo(&s, depth);
            unassign(&s, depth);
        }
        if (depth < start) /* the prefix's color failed: its subtree is empty */
            return 0;
    }
    return 1;
}

/* The category-file reader.  The text is the file's UTF-8 bytes, n of them;
   its lines end at \n.  A cmp line is one that starts with [ \t]*cmp; every
   other line is a header line, which io reads in Python.  The reader may
   decline more files than io's grammar refuses, never fewer: io then reads
   the file again with the pure reader, which decides and names the line at
   fault. */

static int is_blank(unsigned char c)
{
    return c == ' ' || c == '\t';
}

static const unsigned char *skip_blanks(const unsigned char *p, const unsigned char *end)
{
    while (p < end && is_blank(*p))
        p++;
    return p;
}

static int is_cmp_line(const unsigned char *p, const unsigned char *end)
{
    p = skip_blanks(p, end);
    return end - p >= 3 && p[0] == 'c' && p[1] == 'm' && p[2] == 'p';
}

/* Write (start, end, line number) of each header line, [start, end) in
   bytes and numbered from 1, to out, which holds cap of them, and return
   how many header lines there are: more than cap means that only the first
   cap were written.  Return -1 when the text holds a line break other than
   \n that str.splitlines splits at: \r, \v, \f, \x1c to \x1e, or U+0085,
   U+2028 or U+2029 (C2 85, E2 80 A8 and E2 80 A9 in UTF-8). */
ALIGNED
int scan_lines(const char *text, int n, int *out, int cap)
{
    const unsigned char *s = (const unsigned char *)text, *end = s + n;
    int count = 0, line_no = 0;
    for (const unsigned char *start = s; start < end;) {
        const unsigned char *p = start;
        for (; p < end; p++) {
            unsigned char c = *p;
            if (c >= 0x20 && c < 0x7f) /* printable ASCII, nearly every byte */
                continue;
            if (c == '\n')
                break;
            if (c == '\r' || c == '\v' || c == '\f' || (c >= 0x1c && c <= 0x1e))
                return -1;
            if (c == 0xc2 && end - p >= 2 && p[1] == 0x85)
                return -1;
            if (c == 0xe2 && end - p >= 3 && p[1] == 0x80 && (p[2] == 0xa8 || p[2] == 0xa9))
                return -1;
        }
        line_no++;
        if (!is_cmp_line(start, p)) {
            if (count < cap) {
                out[3 * count] = (int)(start - s);
                out[3 * count + 1] = (int)(p - s);
                out[3 * count + 2] = line_no;
            }
            count++;
        }
        if (p == end)
            break;
        start = p + 1;
    }
    return count;
}

/* Read one field, [ \t]+-?[0-9]+, at *pp into *id and move *pp past it;
   0 when it is not there or names no id in [0, n_mor).  The value stops
   growing once it passes n_mor, so no digit string overflows it. */
static int read_id(const unsigned char **pp, const unsigned char *end, int n_mor, int *id)
{
    const unsigned char *p = *pp;
    if (p == end || !is_blank(*p))
        return 0;
    p = skip_blanks(p, end);
    int negative = p < end && *p == '-';
    p += negative;
    if (p == end || *p < '0' || *p > '9')
        return 0;
    int value = 0;
    for (; p < end && *p >= '0' && *p <= '9'; p++)
        if (value <= n_mor)
            value = 10 * value + (*p - '0');
    *pp = p;
    if (value >= n_mor || (negative && value != 0))
        return 0;
    *id = value;
    return 1;
}

/* Fill table, n_mor * n_mor cells that are all -1 on entry, with one cell
   g * n_mor + f = gf for each cmp line, which must be
   [ \t]*cmp([ \t]+-?[0-9]+){3}[ \t]* exactly.  Return the number of cmp
   lines, or -1 when a line is outside that grammar, names an id outside
   [0, n_mor), or fills a cell that an earlier line filled. */
ALIGNED
int fill_table(const char *text, int n, int n_mor, int *table)
{
    const unsigned char *s = (const unsigned char *)text, *end = s + n;
    int count = 0;
    for (const unsigned char *start = s; start < end;) {
        const unsigned char *stop = memchr(start, '\n', (size_t)(end - start));
        if (stop == NULL)
            stop = end;
        if (is_cmp_line(start, stop)) {
            const unsigned char *p = skip_blanks(start, stop) + 3;
            int g, f, gf;
            if (!read_id(&p, stop, n_mor, &g) || !read_id(&p, stop, n_mor, &f) || !read_id(&p, stop, n_mor, &gf))
                return -1;
            if (skip_blanks(p, stop) != stop)
                return -1;
            int *cell = table + (long)g * n_mor + f;
            if (*cell != -1)
                return -1;
            *cell = gf;
            count++;
        }
        if (stop == end)
            break;
        start = stop + 1;
    }
    return count;
}

/* The composition-table check, core.FiniteCategory._check_table at C speed.
   table holds m * m cells, cell g * m + f for g*f; g and f compose when
   mor_cod[f] == mor_dom[g].  A cell on a composable pair must hold -1 or an
   id in [0, m), and every other cell -1.  Return 0 when they all do.
   Otherwise write the cell at fault, g * m + f, to *bad, and return 1 for
   the first unknown id on a composable pair in row-major order, or, when
   there is none, 2 for the first entry off the composable pairs.  m * m must
   be in int range. */
ALIGNED
int check_table(int m, const int *table, const int *mor_dom, const int *mor_cod, int *bad)
{
    int off = -1;
    for (int g = 0; g < m; g++) {
        const int *row = table + (long)g * m;
        int d = mor_dom[g];
        for (int f = 0; f < m; f++) {
            int gf = row[f];
            if (gf == -1)
                continue;
            if (mor_cod[f] == d) {
                if (gf < -1 || gf >= m) {
                    *bad = g * m + f;
                    return 1;
                }
            } else if (off < 0) {
                off = g * m + f;
            }
        }
    }
    if (off < 0)
        return 0;
    *bad = off;
    return 2;
}
