/* Compiled kernel for exact minimum covering by cyclic shifts.

   A port of domkit._core_py.solve_cover onto 64-bit bitset words: the
   same greedy upper bound, branch vertex, branch order, tie-breaks and
   node count, so both kernels return identical (size, witness, explored)
   triples.  Only Python.h and libc are used.
   Every index is a size_t, so n * W cannot wrap for any n that fits in
   memory.

   The search is a loop, not a recursion, so no host stack limits its
   depth: the node of size h + 1 keeps its masks, branch order, next
   child and uncovered count in row h of per-depth arrays.  As in the
   pure kernel, each child is vetted from its fresh coverage before it is
   entered; once one is cut by the bound, every later child, with no
   more coverage, is cut too, so they are counted at once, as the
   recursion counted them one by one.  A node with no child left is
   skipped when the walk returns past it.  The pure kernel resolves a
   child at the last level (size best_size - 2) in place, without
   entering it; this one enters it, and both count the same nodes.

   The root needs only its uncovered count, so the n * W cover and dom
   tables and the per-depth rows are allocated and filled only when the
   greedy bound does not cut the root (prepare). */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned long long u64;

/* GCC and Clang builtins; setup.py passes -O3, which only they accept */
static inline size_t popcount(u64 x) { return (size_t)__builtin_popcountll(x); }
static inline size_t ctz(u64 x) { return (size_t)__builtin_ctzll(x); }

#define BIT(v) (1ULL << ((v) & 63))

typedef struct {
    size_t n, m, W;        /* modulus, offset count, words per mask */
    size_t best_size;
    size_t cand_cap;       /* most dominators a target can have */
    long long explored;
    u64 *cover, *dom;      /* n * W: what v covers, what dominates x */
    u64 *full;             /* W */
    u64 *cov, *exc, *cho;  /* depth_cap * W: covered, excluded, chosen per depth */
    u64 *sel;              /* W: candidates of the branch vertex */
    u64 *best;             /* W: best witness so far */
    size_t *cand_v, *cand_g;  /* depth_cap * cand_cap: branch order per depth */
    size_t *left, *next, *count;  /* depth_cap: uncovered targets, next child, children */
} Search;

/* calloc of a * b elements, NULL if a * b or the allocation overflows */
static void *calloc2(size_t a, size_t b, size_t size)
{
    if (b && a > SIZE_MAX / b)
        return NULL;
    return calloc(a * b, size);
}

static int cmp_size(const void *a, const void *b)
{
    size_t x = *(const size_t *)a, y = *(const size_t *)b;
    return (x > y) - (x < y);
}

static void search_free(Search *s)
{
    free(s->cover);
    free(s->dom);
    free(s->full);
    free(s->cov);
    free(s->exc);
    free(s->cho);
    free(s->sel);
    free(s->best);
    free(s->cand_v);
    free(s->cand_g);
    free(s->left);
    free(s->next);
    free(s->count);
}

/* popcount(mask & ~minus) over W words */
static size_t pop_masked(const u64 *mask, const u64 *minus, size_t W)
{
    size_t i, c = 0;
    for (i = 0; i < W; i++)
        c += popcount(mask[i] & ~minus[i]);
    return c;
}

/* greedy cover of _core_py.greedy over the k distinct offsets dist: each
   pick has the most fresh targets, the lowest vertex on ties.  gain[v] is
   the number of targets of v not yet covered; gains only fall, so while
   top stays the scan resumes at the last pick.  -1 if out of memory. */
static int greedy(Search *s, const size_t *dist, size_t k)
{
    size_t n = s->n, left = n, top = k, start = 0, bv, i, j, x;
    size_t *gain = calloc(n, sizeof(size_t));
    unsigned char *covd = calloc(n, 1);

    if (gain == NULL || covd == NULL) {
        free(gain);
        free(covd);
        return -1;
    }
    for (i = 0; i < n; i++)
        gain[i] = k;
    s->best_size = 0;
    while (left) {
        for (bv = start; bv < n && gain[bv] != top; bv++)
            ;
        if (bv == n) {
            top--;
            start = 0;
            continue;
        }
        start = bv;
        s->best[bv >> 6] |= BIT(bv);
        s->best_size++;
        for (i = 0; i < k; i++) {
            x = (bv + dist[i]) % n;
            if (covd[x])
                continue;
            covd[x] = 1;
            left--;
            for (j = 0; j < k; j++)
                gain[(x + n - dist[j]) % n]--;
        }
    }
    free(gain);
    free(covd);
    return 0;
}

/* branch vertex and branch order of the entered node at depth d: its
   candidates by descending fresh coverage go to cand_v/cand_g at d, with
   count[d] of them, none at a dead end */
static void expand(Search *s, size_t d)
{
    const size_t W = s->W;
    const u64 *covered = s->cov + d * W, *excluded = s->exc + d * W;
    size_t *cand_v = s->cand_v + d * s->cand_cap;
    size_t *cand_g = s->cand_g + d * s->cand_cap;
    size_t i, j, w, x, v, g, cnt, nc = 0, bx_count = s->n + 1;

    /* uncovered target with the fewest allowed dominators, lowest first;
       a single dominator cannot be beaten, so the scan stops there, and
       none at all is a dead end */
    for (w = 0; w < W && bx_count > 1; w++) {
        u64 rem = s->full[w] & ~covered[w];
        while (rem) {
            x = (w << 6) + ctz(rem);
            rem &= rem - 1;
            cnt = pop_masked(s->dom + x * W, excluded, W);
            if (cnt < bx_count) {
                bx_count = cnt;
                for (i = 0; i < W; i++)
                    s->sel[i] = s->dom[x * W + i] & ~excluded[i];
                if (cnt <= 1)
                    break;
            }
        }
    }

    /* insertion by descending fresh coverage; vertices arrive in
       ascending order, so ties keep the lower vertex first */
    for (w = 0; w < W; w++) {
        u64 cb = s->sel[w];
        while (cb) {
            v = (w << 6) + ctz(cb);
            cb &= cb - 1;
            g = pop_masked(s->cover + v * W, covered, W);
            for (j = nc; j > 0 && cand_g[j - 1] < g; j--) {
                cand_g[j] = cand_g[j - 1];
                cand_v[j] = cand_v[j - 1];
            }
            cand_g[j] = g;
            cand_v[j] = v;
            nc++;
        }
    }
    s->count[d] = nc;
    s->next[d] = 0;
}

/* the search below the root at depth 0, which must be entered: the walk
   of _core_py.solve_cover, with the node at depth d of size d + 1 */
static void search(Search *s)
{
    const size_t W = s->W, m = s->m;
    size_t d = 0, i, j, v, cl;

    expand(s, 0);
    for (;;) {
        /* vet the next child of the node at d from its gain */
        i = s->next[d];
        if (i < s->count[d]) {
            v = s->cand_v[d * s->cand_cap + i];
            cl = s->left[d] - s->cand_g[d * s->cand_cap + i];
            if (cl && d + 2 + (cl + m - 1) / m < s->best_size) {
                u64 *cov = s->cov + d * W, *exc = s->exc + d * W, *cho = s->cho + d * W;
                s->explored++;
                s->next[d] = i + 1;
                for (j = 0; j < W; j++) {
                    cov[W + j] = cov[j] | s->cover[v * W + j];
                    exc[W + j] = exc[j];
                    cho[W + j] = cho[j];
                }
                cho[W + (v >> 6)] |= BIT(v);
                exc[v >> 6] |= BIT(v);
                d++;
                s->left[d] = cl;
                expand(s, d);
                continue;
            }
            if (cl) {
                /* cut by the bound, and so is every later child */
                s->explored += (long long)(s->count[d] - i);
            } else {
                /* a leaf is always below best_size: this node passed the
                   bound with at least one target uncovered */
                s->explored++;
                s->best_size = d + 2;
                memcpy(s->best, s->cho + d * W, W * sizeof(u64));
                s->best[v >> 6] |= BIT(v);
            }
        }
        /* this node is done: resume the nearest one with a child left
           that the bound allows */
        for (;;) {
            if (d == 0)
                return;
            d--;
            if (s->next[d] < s->count[d]
                && d + 1 + (s->left[d] + m - 1) / m < s->best_size)
                break;
        }
    }
}

/* the tables and per-depth rows of a search that passes the root, with
   the root at depth 0: vertex 0 chosen, its k targets dist covered.
   -1 if out of memory. */
static int prepare(Search *s, const size_t *dist, size_t k)
{
    const size_t n = s->n, W = s->W;
    /* an entered node at depth h has size h + 1 below best_size */
    const size_t depth_cap = s->best_size;
    size_t i, v, y;

    s->cover = calloc2(n, W, sizeof(u64));
    s->dom = calloc2(n, W, sizeof(u64));
    s->full = calloc(W, sizeof(u64));
    s->sel = calloc(W, sizeof(u64));
    s->cov = calloc2(depth_cap, W, sizeof(u64));
    s->exc = calloc2(depth_cap, W, sizeof(u64));
    s->cho = calloc2(depth_cap, W, sizeof(u64));
    s->cand_v = calloc2(depth_cap, s->cand_cap, sizeof(size_t));
    s->cand_g = calloc2(depth_cap, s->cand_cap, sizeof(size_t));
    s->left = calloc(depth_cap, sizeof(size_t));
    s->next = calloc(depth_cap, sizeof(size_t));
    s->count = calloc(depth_cap, sizeof(size_t));
    if (!(s->cover && s->dom && s->full && s->sel && s->cov && s->exc && s->cho
          && s->cand_v && s->cand_g && s->left && s->next && s->count))
        return -1;
    for (v = 0; v < n; v++) {
        for (i = 0; i < k; i++) {
            y = (v + dist[i]) % n;
            s->cover[v * W + (y >> 6)] |= BIT(y);
            y = (v + n - dist[i]) % n;
            s->dom[v * W + (y >> 6)] |= BIT(y);
        }
    }
    for (i = 0; i < (n >> 6); i++)
        s->full[i] = ~0ULL;
    if (n & 63)
        s->full[n >> 6] = BIT(n) - 1;
    memcpy(s->cov, s->cover, W * sizeof(u64));
    s->cho[0] = 1;
    s->left[0] = n - k;
    return 0;
}

/* the W words of mask as one Python int, via a hex string */
static PyObject *mask_to_int(const u64 *mask, size_t W)
{
    PyObject *result;
    size_t i;
    char *hex = PyMem_Malloc(16 * W + 1);
    if (hex == NULL)
        return PyErr_NoMemory();
    for (i = 0; i < W; i++)
        snprintf(hex + 16 * i, 17, "%016llx", mask[W - 1 - i]);
    result = PyLong_FromString(hex, NULL, 16);
    PyMem_Free(hex);
    return result;
}

static PyObject *solve_cover(PyObject *self, PyObject *args)
{
    Py_ssize_t n_arg, m_arg, t;
    PyObject *offsets, *seq, *witness, *result = NULL;
    Search s;
    size_t n, W, i, k, *offs = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "nO:solve_cover", &n_arg, &offsets))
        return NULL;
    if (n_arg < 1) {
        PyErr_SetString(PyExc_ValueError, "modulus must be positive");
        return NULL;
    }
    seq = PySequence_Fast(offsets, "offsets must be a sequence");
    if (seq == NULL)
        return NULL;
    m_arg = PySequence_Fast_GET_SIZE(seq);
    if (m_arg == 0) {
        PyErr_SetString(PyExc_ValueError, "offsets must be nonempty");
        Py_DECREF(seq);
        return NULL;
    }

    memset(&s, 0, sizeof s);
    n = s.n = (size_t)n_arg;
    s.m = (size_t)m_arg;
    W = s.W = (n + 63) >> 6;

    /* offsets reduced into [0, n) as Python's % does, so no index leaves
       the tables whatever the caller passes */
    offs = PyMem_Calloc(s.m, sizeof(size_t));
    if (offs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < s.m; i++) {
        t = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i));
        if (t == -1 && PyErr_Occurred())
            goto done;
        t %= n_arg;
        offs[i] = (size_t)(t < 0 ? t + n_arg : t);
    }
    /* the k distinct ones, ascending; the lower bound still divides by m */
    qsort(offs, s.m, sizeof(size_t), cmp_size);
    for (k = i = 0; i < s.m; i++)
        if (k == 0 || offs[i] != offs[k - 1])
            offs[k++] = offs[i];

    s.cand_cap = k;  /* a target has k dominators */
    s.best = calloc(W, sizeof(u64));
    if (s.best == NULL || greedy(&s, offs, k) < 0) {
        PyErr_NoMemory();
        goto done;
    }

    /* fix vertex 0 in the witness: some rotation of any cover contains it.
       It covers the k distinct offsets, so the root has n - k targets
       uncovered; if that is none, greedy's first pick, vertex 0, already
       made best_size 1.  The tables are built only past the root. */
    s.explored = 1;
    if (1 + (n - k + s.m - 1) / s.m < s.best_size) {
        if (prepare(&s, offs, k) < 0) {
            PyErr_NoMemory();
            goto done;
        }
        search(&s);
    }

    witness = mask_to_int(s.best, W);
    if (witness != NULL)
        result = Py_BuildValue("(nNL)", (Py_ssize_t)s.best_size, witness, s.explored);

done:
    PyMem_Free(offs);
    search_free(&s);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef core_methods[] = {
    {"solve_cover", solve_cover, METH_VARARGS,
     "solve_cover(n, offsets) -> (size, witness, explored)\n\n"
     "Minimum |W|, a witness bitmask, and the node count of the search."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT,
    "_core",
    "Compiled twin of domkit._core_py: exact minimum covering by cyclic shifts.",
    -1,
    core_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__core(void)
{
    return PyModule_Create(&core_module);
}
