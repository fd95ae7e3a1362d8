/*
 * Gate kernels of the batched statevector engine (EinsumBatchBackend).
 *
 * A stack of statevectors over n qubits is a (2**n, cols) complex128 array,
 * row-major: the cols amplitudes of one basis state are contiguous (batch
 * innermost, the layout of repro.quantum.kernel.empty_stack).  Qubit 0 is
 * the most significant bit of the basis index.
 *
 * A gate stream is an (n_gates, 6) int64 array of records
 *
 *     kind, a, b, offset, per_row, overlap
 *
 *   kind ONE         a 2x2 matrix on qubit a;
 *   kind CONTROLLED  a 2x2 matrix on qubit b where qubit a is 1: the
 *                    control=1 block of a controlled 4x4 gate;
 *   kind DENSE       a 4x4 matrix on qubits (a, b), a the more significant
 *                    bit of the gate's own index.
 *
 * The matrix is row-major at complex entry `offset` of `mats`.  With
 * per_row it holds one matrix per column of the stack: entry k of column c
 * sits at offset + k * cols + c.  `overlap` is used by qugeo_sweep only.
 *
 * Every record is checked in Python before the call; a kind outside the
 * three returns -1.  On x86-64 an AVX2 copy of the kernels is picked at run
 * time where the CPU has it, and qugeo_isa names the copy picked; vector
 * width changes no lane's arithmetic, so both copies give the same bits.
 * No Python C-API: the library is loaded with ctypes.
 */

#include <stdint.h>

typedef int64_t i64;
typedef struct {
    double re, im;
} cplx;

#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

enum { ONE = 0, CONTROLLED = 1, DENSE = 2 };
enum { KIND, QA, QB, OFFSET, PER_ROW, OVERLAP, RECORD };

INLINE cplx mul(cplx x, cplx y)
{
    return (cplx){x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re};
}

INLINE cplx add(cplx x, cplx y)
{
    return (cplx){x.re + y.re, x.im + y.im};
}

/* acc + conj(x) * y */
INLINE cplx add_dot(cplx acc, cplx x, cplx y)
{
    return (cplx){acc.re + (x.re * y.re + x.im * y.im),
                  acc.im + (x.re * y.im - x.im * y.re)};
}

/* x[r] <- sum_c m[r][c] x[c] over len elements; coefficient k of element e
 * is m[k * ks + e * es] (es = 0 for one matrix shared by every element). */
INLINE void mix2(cplx *restrict x0, cplx *restrict x1,
                 const cplx *restrict m, i64 ks, i64 es, i64 len)
{
    for (i64 e = 0; e < len; e++) {
        const cplx *c = m + e * es;
        const cplx v0 = x0[e], v1 = x1[e];
        x0[e] = add(mul(c[0], v0), mul(c[ks], v1));
        x1[e] = add(mul(c[2 * ks], v0), mul(c[3 * ks], v1));
    }
}

INLINE void mix4(cplx *restrict x0, cplx *restrict x1, cplx *restrict x2,
                 cplx *restrict x3, const cplx *restrict m, i64 ks, i64 es,
                 i64 len)
{
    for (i64 e = 0; e < len; e++) {
        const cplx *c = m + e * es;
        const cplx v[4] = {x0[e], x1[e], x2[e], x3[e]};
        cplx out[4];
        for (int r = 0; r < 4; r++)
            out[r] = add(add(mul(c[(4 * r) * ks], v[0]),
                             mul(c[(4 * r + 1) * ks], v[1])),
                         add(mul(c[(4 * r + 2) * ks], v[2]),
                             mul(c[(4 * r + 3) * ks], v[3])));
        x0[e] = out[0];
        x1[e] = out[1];
        x2[e] = out[2];
        x3[e] = out[3];
    }
}

/* h[(a * d + c) * batch + j] += conj(lam_a[j]) * psi_c[j] over the d rows
 * x[0..d), where a row holds batch co-state then batch state amplitudes. */
INLINE void overlap(cplx *restrict h, cplx *const *x, int d, i64 batch)
{
    for (int a = 0; a < d; a++)
        for (int c = 0; c < d; c++) {
            cplx *restrict out = h + (a * d + c) * batch;
            const cplx *lam = x[a], *psi = x[c] + batch;
            for (i64 j = 0; j < batch; j++)
                out[j] = add_dot(out[j], lam[j], psi[j]);
        }
}

/* overlap() and then mix2() of both halves, for d = 2, in one pass. */
INLINE void overlap_mix2(cplx *restrict h, cplx *restrict x0,
                         cplx *restrict x1, const cplx *restrict m,
                         i64 batch)
{
    cplx *restrict h00 = h, *restrict h01 = h + batch;
    cplx *restrict h10 = h + 2 * batch, *restrict h11 = h + 3 * batch;
    const cplx m0 = m[0], m1 = m[1], m2 = m[2], m3 = m[3];
    for (i64 j = 0; j < batch; j++) {
        const cplx l0 = x0[j], l1 = x1[j];
        const cplx p0 = x0[batch + j], p1 = x1[batch + j];
        h00[j] = add_dot(h00[j], l0, p0);
        h01[j] = add_dot(h01[j], l0, p1);
        h10[j] = add_dot(h10[j], l1, p0);
        h11[j] = add_dot(h11[j], l1, p1);
        x0[j] = add(mul(m0, l0), mul(m1, l1));
        x1[j] = add(mul(m2, l0), mul(m3, l1));
        x0[batch + j] = add(mul(m0, p0), mul(m1, p1));
        x1[batch + j] = add(mul(m2, p0), mul(m3, p1));
    }
}

/* k with a zero bit inserted at position p. */
INLINE i64 spread(i64 k, i64 p)
{
    return ((k >> p) << (p + 1)) | (k & (((i64)1 << p) - 1));
}

/*
 * Apply record g to the stack.  With h, first add the reduced overlap of
 * the gate's rows into h (the sweep: cols = 2 * batch, one matrix), and
 * apply the gate only if `apply`.
 */
INLINE int apply_gate(cplx *s, i64 n, i64 cols, const i64 *g,
                      const cplx *mats, cplx *h, i64 batch, int apply)
{
    const i64 kind = g[KIND];
    if (kind != ONE && kind != CONTROLLED && kind != DENSE)
        return -1;
    if (!h && !apply)
        return 0;
    const i64 pa = n - 1 - g[QA], pb = n - 1 - g[QB];
    const i64 bit_a = (i64)1 << pa, bit_b = (i64)1 << pb;
    /* Rows of the gate relative to a base row whose gate bits are zero. */
    i64 rows[4], d = 2;
    if (kind == ONE) {
        rows[0] = 0;
        rows[1] = bit_a;
    } else if (kind == CONTROLLED) {
        rows[0] = bit_a;
        rows[1] = bit_a | bit_b;
    } else {
        d = 4;
        rows[0] = 0;
        rows[1] = bit_b;
        rows[2] = bit_a;
        rows[3] = bit_a | bit_b;
    }
    const i64 low = kind == ONE ? pa : (pa < pb ? pa : pb);
    const i64 high = pa < pb ? pb : pa;
    const i64 count = ((i64)1 << n) >> (kind == ONE ? 1 : 2);
    const i64 run = (i64)1 << low; /* consecutive base rows */
    const cplx *m = mats + g[OFFSET];
    const i64 ks = g[PER_ROW] ? cols : 1, es = g[PER_ROW] ? 1 : 0;
    for (i64 k = 0; k < count; k += run) {
        const i64 base = kind == ONE ? spread(k, pa)
                                     : spread(spread(k, low), high);
        if (!h && !g[PER_ROW]) {
            /* One matrix: the run's rows are contiguous, mix them at once. */
            cplx *x0 = s + (base + rows[0]) * cols;
            cplx *x1 = s + (base + rows[1]) * cols;
            if (d == 2)
                mix2(x0, x1, m, 1, 0, run * cols);
            else
                mix4(x0, x1, s + (base + rows[2]) * cols,
                     s + (base + rows[3]) * cols, m, 1, 0, run * cols);
            continue;
        }
        for (i64 r = base; r < base + run; r++) {
            cplx *x[4];
            for (int i = 0; i < d; i++)
                x[i] = s + (r + rows[i]) * cols;
            if (h && apply && d == 2) {
                overlap_mix2(h, x[0], x[1], m, batch);
                continue;
            }
            if (h)
                overlap(h, x, (int)d, batch);
            if (!apply)
                continue;
            if (d == 2)
                mix2(x[0], x[1], m, ks, es, cols);
            else
                mix4(x[0], x[1], x[2], x[3], m, ks, es, cols);
        }
    }
    return 0;
}

typedef int (*gate_fn)(cplx *, i64, i64, const i64 *, const cplx *, cplx *,
                       i64, int);

/* One copy of apply_gate per instruction set (on x86-64, plain and AVX2). */
#define GATE(SUFFIX, ATTR)                                                    \
    ATTR static int gate##SUFFIX(cplx *s, i64 n, i64 cols, const i64 *g,      \
                                 const cplx *mats, cplx *h, i64 batch,        \
                                 int apply)                                   \
    {                                                                         \
        return apply_gate(s, n, cols, g, mats, h, batch, apply);              \
    }

GATE(_plain, )
#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_AVX2 1
GATE(_avx2, __attribute__((target("avx2"))))
#endif

static gate_fn pick(void)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        return gate_avx2;
#endif
    return gate_plain;
}

/* The name of the copy pick() runs: generic or avx2. */
const char *qugeo_isa(void)
{
    return pick() == gate_plain ? "generic" : "avx2";
}

/*
 * Apply a gate stream, in order, to a (2**n, cols) stack in place.
 * Returns 0, or -1 for a record of unknown kind.
 */
int qugeo_apply(double *stack, i64 n, i64 cols, const i64 *gates,
                i64 n_gates, const double *mats)
{
    const gate_fn run = pick();
    for (i64 i = 0; i < n_gates; i++)
        if (run((cplx *)stack, n, cols, gates + i * RECORD,
                 (const cplx *)mats, 0, 0, 1))
            return -1;
    return 0;
}

/*
 * One window of the reversible adjoint sweep.
 *
 * stack    (2**n, 2 * batch)   each row: batch co-state amplitudes, then
 *                              batch state amplitudes, taken after the
 *                              window's last gate
 * gates    (n_gates, 6)        the window's ops in circuit order, each with
 *                              its U^dagger (one matrix, per_row 0)
 * h        (rows, entries, batch)  zeroed output
 *
 * The gates run last to first.  A gate with overlap >= 0 first adds its
 * reduced overlap h[overlap][a * d + c][j] = <lam_{j,a} | psi_{j,c}> on
 * its target basis (the control=1 half for CONTROLLED; d is 2, or 4 for
 * DENSE) in the same pass over its rows that applies U^dagger to both
 * halves.  The window's first gate is applied only if apply_first.
 */
int qugeo_sweep(double *stack, i64 n, i64 batch, const i64 *gates,
                i64 n_gates, const double *mats, double *h, i64 entries,
                i64 apply_first)
{
    const gate_fn run = pick();
    for (i64 i = n_gates - 1; i >= 0; i--) {
        const i64 *g = gates + i * RECORD;
        cplx *out = g[OVERLAP] < 0
                        ? 0
                        : (cplx *)h + g[OVERLAP] * entries * batch;
        if (run((cplx *)stack, n, 2 * batch, g, (const cplx *)mats, out,
                 batch, i > 0 || apply_first))
            return -1;
    }
    return 0;
}
