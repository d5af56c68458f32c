/* Compiled kernel: the witness search, search_from_prefix; the bulk of the
   category-file reader, scan_lines and fill_table; and the composition-table
   check, check_table, which core's pure check mirrors.  None of them uses
   the Python API or allocates; every array is owned by the caller
   (_kernel.py), which calls them through ctypes with the GIL released.
   Their calling convention is ABI 6 (KERNEL_ABI below).

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

/* The calling convention of the functions below.  _kernel.py refuses a
   library whose catramsey_kernel_abi() returns another value, or that has
   none, so a library built from an older source is never called with
   arguments it would misread, or asked for a function it lacks.  Bump it
   whenever a function is added or removed, or the signature or the meaning
   of an argument changes. */
#define KERNEL_ABI 6

int catramsey_kernel_abi(void)
{
    return KERNEL_ABI;
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
        if (cnt[b]++)
            s->slack[b]--;
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
        if (--cnt[b])
            s->slack[b]++;
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
   kernel.solve's branch fold adds up to.  bundle_sizes and slack are
   n_bundles long; counts must be zeroed, k * n_bundles long; color and head
   n_points long; pos, fresh and link n_perms long; ren n_perms * k long;
   trail 3 * n_perms * n_points long; used, next and top n_points + 1 long.
   Only counts is read before it is written. */
int search_from_prefix(int n_points, int k, int t, int n_bundles, const int *bundle_sizes,
                       const int *pb_off, const int *pb, int n_perms, const int *perms,
                       int prefix_len, const int *prefix, int count_from,
                       long long budget, long long *nodes,
                       int *counts, int *slack, int *color,
                       int *pos, int *fresh, int *ren, int *link, int *head, int *trail,
                       int *used, int *next, int *top, const volatile int *stop)
{
    State s = {n_points, k, n_bundles, pb_off, pb, perms,
               counts, slack, color,
               pos, fresh, ren, link, head, trail, top, 0};
    *nodes = 0;
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
