/* Compiled kernel for exact minimum covering by cyclic shifts.

   A port of domkit._core_py.solve_cover onto 64-bit bitset words: the
   same greedy upper bound, branch vertex, branch order, tie-breaks and
   node count, so both kernels return identical (size, witness, explored)
   triples.  The k offsets are as domkit.solver._offsets gives them,
   strictly ascending in [0, n); anything else is a ValueError, checked
   before any table is indexed.  Only Python.h and libc are used.
   Every index is a size_t, so n * W cannot wrap for any n that fits in
   memory.

   The search is a loop, not a recursion, so no host stack limits its
   depth.  As in the pure kernel's frames, the node at depth h (size
   h + 1) keeps its uncovered targets and allowed dominators, rows h of
   unc and alw, its branch order (Child: ascending uncovered count after
   the child, then vertex) and its Level: uncovered count, next child and
   child count.  Entering a child copies both rows one depth down and
   drops the child from the parent's allowed row.  No witness is kept per
   depth: a leaf rebuilds it from vertex 0 and the child entered at each
   depth.  Each child is vetted from its uncovered count before it is
   entered; once one is cut by the bound, every later child, with no
   fewer targets uncovered, is cut too, so they are counted at once, as
   the recursion counted them one by one.  A node with no child left, or
   cut by a best_size found below it, is left for its parent.  The pure
   kernel resolves a child at the last level (size best_size - 2) in
   place, without entering it; this one enters it, and both count the
   same nodes.

   A floor lb stops the search once best_size <= lb, at the root after
   greedy and right after each new best, at the same points as the pure
   kernel, so the triples agree for every lb.

   The root needs only its uncovered count, so the n * W cover and dom
   tables and the per-depth rows, one allocation, are made and filled
   only when the greedy bound does not cut the root (prepare). */

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
    size_t cl, v;          /* uncovered targets after entering v, and v */
} Child;

typedef struct {
    size_t left, next, count;  /* uncovered targets, next child, children */
} Level;

typedef struct {
    size_t n, W, k;        /* modulus, words per mask, offsets */
    size_t best_size;
    size_t lb;             /* stop once best_size <= lb */
    long long explored;
    u64 *cover, *dom;      /* n * W: what v covers, what dominates x */
    u64 *unc, *alw;        /* depth_cap * W: uncovered, allowed per depth */
    u64 *best;             /* W: best witness so far */
    Child *order;          /* depth_cap * k: branch order per depth */
    Level *level;          /* depth_cap */
} Search;

/* calloc of a * b elements, NULL if a * b or the allocation overflows */
static void *calloc2(size_t a, size_t b, size_t size)
{
    if (b && a > SIZE_MAX / b)
        return NULL;
    return calloc(a * b, size);
}

/* popcount(a & b) over W words */
static size_t pop_and(const u64 *a, const u64 *b, size_t W)
{
    size_t i, c = 0;
    for (i = 0; i < W; i++)
        c += popcount(a[i] & b[i]);
    return c;
}

/* greedy cover of _core_py.greedy over the k offsets dist: each
   pick has the most fresh targets, the lowest vertex on ties.  gain[v] is
   the number of targets of v not yet covered; gains only fall, so while
   top stays the scan resumes at the last pick.  This is the gain loop
   alone, one pass over all n vertices.  The pure twin makes its picks of
   top == k first, first-fit on a window of T - T that jumps whole periods
   of picks, and then counts gains only from the targets left;
   test_kernels_agree_bit_for_bit holds both routes to one cover.  -1 if
   out of memory. */
static int greedy(Search *s, const size_t *dist)
{
    size_t n = s->n, k = s->k, left = n, top = k, start = 0, bv, i, j, x;
    size_t *gain = calloc(n, sizeof(size_t));
    unsigned char *covd = calloc(n, 1);

    if (gain == NULL || covd == NULL) {
        free(gain);
        free(covd);
        return -1;
    }
    for (i = 0; i < n; i++)
        gain[i] = k;
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

/* branch order of the entered node at depth d: the allowed dominators of
   its branch target, the uncovered target with the fewest of them (lowest
   first), by ascending uncovered count after each; none at a dead end */
static void expand(Search *s, size_t d)
{
    const size_t W = s->W;
    const u64 *unc = s->unc + d * W, *alw = s->alw + d * W, *bx = NULL;
    Child *order = s->order + d * s->k, c;
    Level *lv = s->level + d;
    size_t j, w, x, cnt, bx_count = s->n + 1;

    /* a single dominator cannot be beaten, so the scan stops there, and
       none at all is a dead end; an entered node has a target uncovered */
    for (w = 0; w < W && bx_count > 1; w++) {
        u64 rem = unc[w];
        while (rem) {
            x = (w << 6) + ctz(rem);
            rem &= rem - 1;
            cnt = pop_and(s->dom + x * W, alw, W);
            if (cnt < bx_count) {
                bx_count = cnt;
                bx = s->dom + x * W;
                if (cnt <= 1)
                    break;
            }
        }
    }

    /* insertion by ascending cl; vertices arrive in ascending order, so
       ties keep the lower vertex first */
    lv->count = lv->next = 0;
    for (w = 0; w < W; w++) {
        u64 cb = bx[w] & alw[w];
        while (cb) {
            c.v = (w << 6) + ctz(cb);
            cb &= cb - 1;
            c.cl = lv->left - pop_and(s->cover + c.v * W, unc, W);
            for (j = lv->count; j > 0 && order[j - 1].cl > c.cl; j--)
                order[j] = order[j - 1];
            order[j] = c;
            lv->count++;
        }
    }
}

/* the search below the root at depth 0, which must be entered: the walk
   of _core_py.solve_cover, with the node at depth d of size d + 1 */
static void search(Search *s)
{
    const size_t W = s->W, k = s->k;
    size_t d = 0, h, j, v;
    Child c;

    expand(s, 0);
    for (;;) {
        /* a node with no child left, or cut by a best_size found since it
           was entered, is done: resume its parent */
        Level *lv = s->level + d;
        if (lv->next == lv->count || d + 1 + (lv->left + k - 1) / k >= s->best_size) {
            if (d == 0)
                return;
            d--;
            continue;
        }
        /* vet its next child from the child's uncovered count */
        c = s->order[d * k + lv->next++];
        if (c.cl && d + 2 + (c.cl + k - 1) / k < s->best_size) {
            u64 *unc = s->unc + d * W, *alw = s->alw + d * W;
            s->explored++;
            for (j = 0; j < W; j++) {
                unc[W + j] = unc[j] & ~s->cover[c.v * W + j];
                alw[W + j] = alw[j];
            }
            alw[c.v >> 6] &= ~BIT(c.v);
            d++;
            s->level[d].left = c.cl;
            expand(s, d);
        } else if (c.cl) {
            /* cut by the bound, and so is every later child */
            s->explored += (long long)(lv->count - lv->next) + 1;
            lv->next = lv->count;
        } else {
            /* a leaf is always below best_size: this node passed the
               bound with a target uncovered, and now the bound cuts it.
               The witness is vertex 0 and the child taken at each depth. */
            s->explored++;
            s->best_size = d + 2;
            memset(s->best, 0, W * sizeof(u64));
            s->best[0] = 1;
            for (h = 0; h <= d; h++) {
                v = s->order[h * k + s->level[h].next - 1].v;
                s->best[v >> 6] |= BIT(v);
            }
            if (s->best_size <= s->lb)
                return;
        }
    }
}

/* the tables and per-depth rows of a search that passes the root, with
   the root at depth 0: vertex 0 chosen, its k targets dist covered.
   cover, dom, unc and alw share one allocation, freed through cover.
   -1 if out of memory. */
static int prepare(Search *s, const size_t *dist)
{
    const size_t n = s->n, W = s->W, k = s->k;
    /* an entered node at depth h has size h + 1 below best_size */
    const size_t depth_cap = s->best_size;
    size_t i, v, y;

    /* depth_cap <= n, so n + depth_cap cannot wrap */
    s->cover = calloc2(n + depth_cap, 2 * W, sizeof(u64));
    s->order = calloc2(depth_cap, k, sizeof(Child));  /* a target has k dominators */
    s->level = calloc(depth_cap, sizeof(Level));
    if (!(s->cover && s->order && s->level))
        return -1;
    s->dom = s->cover + n * W;
    s->unc = s->dom + n * W;
    s->alw = s->unc + depth_cap * W;
    for (v = 0; v < n; v++) {
        for (i = 0; i < k; i++) {
            y = (v + dist[i]) % n;
            s->cover[v * W + (y >> 6)] |= BIT(y);
            y = (v + n - dist[i]) % n;
            s->dom[v * W + (y >> 6)] |= BIT(y);
        }
        /* row 0 of cover, vertex 0's targets, is complete from v = 0 on */
        s->unc[v >> 6] |= BIT(v) & ~s->cover[v >> 6];
    }
    /* every vertex is allowed; bits past n meet no dom bit */
    memset(s->alw, 0xff, W * sizeof(u64));
    s->level[0].left = n - k;
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
    Py_ssize_t n_arg, k_arg, lb_arg = 0, t;
    PyObject *offsets, *seq, *witness, *result = NULL;
    Search s = {0};
    size_t n, W, i, k, *offs = NULL;

    (void)self;
    if (!PyArg_ParseTuple(args, "nO|n:solve_cover", &n_arg, &offsets, &lb_arg))
        return NULL;
    if (n_arg < 1) {
        PyErr_SetString(PyExc_ValueError, "modulus must be positive");
        return NULL;
    }
    if (lb_arg < 0) {
        PyErr_SetString(PyExc_ValueError, "lb must be nonnegative");
        return NULL;
    }
    seq = PySequence_Fast(offsets, "offsets must be a sequence");
    if (seq == NULL)
        return NULL;
    k_arg = PySequence_Fast_GET_SIZE(seq);
    if (k_arg == 0) {
        PyErr_SetString(PyExc_ValueError, "offsets must be nonempty");
        goto done;
    }

    n = s.n = (size_t)n_arg;
    k = s.k = (size_t)k_arg;
    s.lb = (size_t)lb_arg;
    W = s.W = (n + 63) >> 6;

    /* strictly ascending in [0, n), so no index leaves the tables and
       k <= n bounds every size */
    offs = PyMem_Calloc(k, sizeof(size_t));
    if (offs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < k; i++) {
        t = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, i));
        if (t == -1 && PyErr_Occurred())
            goto done;
        if (t < 0 || t >= n_arg || (i && (size_t)t <= offs[i - 1])) {
            PyErr_SetString(PyExc_ValueError, "offsets must ascend within [0, n)");
            goto done;
        }
        offs[i] = (size_t)t;
    }

    s.best = calloc(W, sizeof(u64));
    if (s.best == NULL || greedy(&s, offs) < 0) {
        PyErr_NoMemory();
        goto done;
    }

    /* fix vertex 0 in the witness: some rotation of any cover contains it.
       It covers the k offsets, so the root has n - k targets uncovered
       and the bound 1 + ceil((n - k) / k) = ceil(n / k); if none is
       uncovered, greedy's first pick, vertex 0, already made best_size 1.
       The tables are built only past the root, and not when greedy
       already meets the floor lb. */
    s.explored = 1;
    if ((n + k - 1) / k < s.best_size && s.best_size > s.lb) {
        if (prepare(&s, offs) < 0) {
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
    free(s.best);
    free(s.cover);
    free(s.order);
    free(s.level);
    Py_DECREF(seq);
    return result;
}

static PyMethodDef core_methods[] = {
    {"solve_cover", solve_cover, METH_VARARGS,
     "solve_cover(n, offsets, lb=0, /) -> (size, witness, explored)\n\n"
     "Minimum |W|, a witness bitmask, and the node count of the search,\n"
     "for offsets strictly ascending in [0, n); it stops once its best\n"
     "cover has at most lb elements."},
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
