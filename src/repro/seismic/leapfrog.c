/*
 * Fused leap-frog time loop of the 2-D acoustic propagator.
 *
 * One call runs the whole time history of a batch of wavefields, one
 * wavefield after the other, so each wavefield's three nz*nx buffers stay
 * in cache for all of its steps.  Every cell does exactly the floating-point
 * operations of the reference oracle AcousticSimulator2D, in its order:
 *
 *   lap = 0; for each tap k: lap += cz[k] * P[clamp(i+k-h), j];
 *                            lap += cx[k] * P[i, clamp(j+k-h)];
 *   next = (2 * curr - prev) + c2dt2 * lap;
 *   next[source] += amplitude;  next *= mask;  curr *= mask.
 *
 * Built with -ffp-contract=off (no fused multiply-adds), the gathers are
 * bit-identical to the oracle's on any IEEE-754 host.  The damping of
 * curr is applied when the field is next read as prev, which gives the same
 * product without a second pass over the grid.
 *
 * The padded row.  Row i of next is computed from a copy of curr's row i
 * that carries h = taps / 2 copies of its edge cell at each end, the
 * oracle's clamp in x.  Every column reads its x taps unclamped from that
 * padded row and its z taps through row pointers clamped once per row, so
 * each row is one loop over all nx columns with no edge case, which the
 * compiler vectorises with the tap count a compile-time constant.  The
 * padded copy of row i + 1 is written by the loop of row i, from the z tap
 * it already loads, into the second of two scratch rows; a separate copy
 * per row (a memcpy call) cost more than it saved on 70-column rows.  Only
 * the source cell, recomputed once per step to add its amplitude, clamps
 * tap by tap (cell()).
 *
 * Three copies of the loop: a generic one, and on x86-64 an AVX2 and an
 * AVX-512 copy, the widest the CPU has picked at run time.  Vector width
 * changes no lane's arithmetic, so every copy gives the same bits.
 *
 * No Python C-API: the library is loaded with ctypes.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

INLINE i64 clamp(i64 i, i64 n)
{
    return i < 0 ? 0 : (i >= n ? n - 1 : i);
}

/* Undamped new value of column j of one row, its x taps clamped to the row.
 * rows[k] is the row of z tap k; c, p and v point at the row in curr, prev
 * and c2dt2, m at its damping. */
INLINE double cell(const int taps, const double *const *rows,
                   const double *c, const double *p, const double *v,
                   const double *m, const double *cz, const double *cx,
                   i64 nx, i64 j)
{
    const int h = taps / 2;
    double lap = 0.0;
    for (int k = 0; k < taps; k++) {
        lap += cz[k] * rows[k][j];
        lap += cx[k] * c[clamp(j + k - h, nx)];
    }
    return (2.0 * c[j] - p[j] * m[j]) + v[j] * lap;
}

/* Fill the h cells at each end of a padded row with copies of its first
 * and last cells: the oracle's clamp of the x taps. */
INLINE void pad_edges(double *x, i64 nx, int h)
{
    for (int k = 0; k < h; k++) {
        x[k] = x[h];
        x[h + nx + k] = x[h + nx - 1];
    }
}

/* One time step of one wavefield: next from curr and prev, with amp added
 * at the source cell s before the damping.  pad is scratch for two padded
 * rows of nx + taps - 1 doubles: row i of curr, whose x taps the sweep of
 * row i reads, and row i + 1, which that sweep copies in as it goes. */
INLINE void sweep(const int taps, double *restrict next,
                  const double *restrict curr, const double *restrict prev,
                  const double *restrict c2dt2, const double *restrict mask,
                  const double *restrict cz, const double *restrict cx,
                  double *restrict pad, i64 nz, i64 nx, i64 s, double amp)
{
    const int h = taps / 2;
    const i64 width = nx + taps - 1;
    const double *rows[9];
    for (i64 j = 0; j < nx; j++)
        pad[h + j] = curr[j];
    pad_edges(pad, nx, h);
    for (i64 i = 0; i < nz; i++) {
        const i64 at = i * nx;
        const double *restrict c = curr + at, *restrict p = prev + at;
        const double *restrict v = c2dt2 + at, *restrict m = mask + at;
        const double *restrict x = pad + (i & 1) * width;
        double *restrict x_below = pad + (~i & 1) * width;
        double *restrict out = next + at;
        for (int k = 0; k < taps; k++)
            rows[k] = curr + clamp(i + k - h, nz) * nx;
        const double *restrict below = rows[h + 1];   /* row i + 1, clamped */
        for (i64 j = 0; j < nx; j++) {      /* cell() with x read off x[] */
            double lap = 0.0;
            for (int k = 0; k < taps; k++) {
                lap += cz[k] * rows[k][j];
                lap += cx[k] * x[j + k];
            }
            out[j] = ((2.0 * c[j] - p[j] * m[j]) + v[j] * lap) * m[j];
            x_below[h + j] = below[j];
        }
        pad_edges(x_below, nx, h);
    }
    /* The source cell once more, its amplitude added before the damping. */
    const i64 si = s / nx, sj = s % nx, at = si * nx;
    for (int k = 0; k < taps; k++)
        rows[k] = curr + clamp(si + k - h, nz) * nx;
    next[s] = (cell(taps, rows, curr + at, prev + at, c2dt2 + at,
                    mask + at, cz, cx, nx, sj) + amp) * mask[s];
}

typedef void (*sweep_fn)(double *, const double *, const double *,
                         const double *, const double *, const double *,
                         const double *, double *, i64, i64, i64, double);

/* One copy of sweep per tap count (and, on x86-64, per instruction set). */
#define SWEEP(TAPS, SUFFIX, ATTR)                                             \
    ATTR static void sweep##TAPS##SUFFIX(double *next, const double *curr,    \
        const double *prev, const double *c2dt2, const double *mask,          \
        const double *cz, const double *cx, double *pad, i64 nz, i64 nx,      \
        i64 s, double amp)                                                    \
    {                                                                         \
        sweep(TAPS, next, curr, prev, c2dt2, mask, cz, cx, pad, nz, nx, s,    \
              amp);                                                           \
    }
#define SWEEPS(SUFFIX, ATTR) \
    SWEEP(3, SUFFIX, ATTR) SWEEP(5, SUFFIX, ATTR) SWEEP(9, SUFFIX, ATTR)

SWEEPS(, )
#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_X86_COPIES 1
SWEEPS(_avx2, __attribute__((target("avx2"))))
SWEEPS(_avx512, __attribute__((target("avx512f"))))
#endif

static sweep_fn pick(i64 taps)
{
#ifdef HAVE_X86_COPIES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return taps == 3 ? sweep3_avx512 : taps == 5 ? sweep5_avx512
             : taps == 9 ? sweep9_avx512 : 0;
    if (__builtin_cpu_supports("avx2"))
        return taps == 3 ? sweep3_avx2 : taps == 5 ? sweep5_avx2
             : taps == 9 ? sweep9_avx2 : 0;
#endif
    return taps == 3 ? sweep3 : taps == 5 ? sweep5 : taps == 9 ? sweep9 : 0;
}

/*
 * Run n_steps leap-frog steps of n_batch wavefields.
 *
 * fields   (n_batch, 3, nz, nx)  slot 0 prev (undamped), slot 1 curr,
 *                                slot 2 scratch; zeros for a run from rest
 * c2dt2    (n_models, nz, nx)    dt^2 c^2 of each model; wavefield b runs
 *                                on model b / (n_batch / n_models)
 * mask     (nz, nx)              Cerjan damping
 * cz, cx   (taps,)               stencil taps over dz^2 and dx^2
 * src      (n_batch,)            flat source cell of each wavefield
 * amps     (n_batch, n_steps)    injected amplitude of each step
 * rec      (n_rec,)              flat receiver cells
 * gather   (n_batch, ceil(n_steps / record_every), n_rec)   output
 * snaps    (ceil(n_steps / snap_stride), n_batch, nz, nx)   output, when
 *                                snap_stride > 0
 *
 * Returns 0, -1 for a tap count other than 3, 5 or 9, or -2 if the
 * scratch rows cannot be allocated.
 */
int qugeo_leapfrog(double *fields, const double *c2dt2, const double *mask,
                   const double *cz, const double *cx, const i64 *src,
                   const double *amps, const i64 *rec, double *gather,
                   double *snaps, i64 n_batch, i64 n_models, i64 nz, i64 nx,
                   i64 taps, i64 n_steps, i64 record_every, i64 n_rec,
                   i64 snap_stride)
{
    const sweep_fn step_fn = pick(taps);
    if (!step_fn)
        return -1;
    double *pad = malloc(2 * (size_t)(nx + taps - 1) * sizeof(double));
    if (!pad)
        return -2;
    const i64 cells = nz * nx;
    const i64 n_recorded = (n_steps + record_every - 1) / record_every;
    const i64 per_model = n_batch / n_models;
    for (i64 b = 0; b < n_batch; b++) {
        const double *c2 = c2dt2 + (b / per_model) * cells;
        const double *amp = amps + b * n_steps;
        double *out = gather + b * n_recorded * n_rec;
        double *prev = fields + b * 3 * cells;
        double *curr = prev + cells, *next = curr + cells;
        for (i64 step = 0; step < n_steps; step++) {
            step_fn(next, curr, prev, c2, mask, cz, cx, pad, nz, nx, src[b],
                    amp[step]);
            if (step % record_every == 0) {
                double *row = out + (step / record_every) * n_rec;
                for (i64 r = 0; r < n_rec; r++)
                    row[r] = next[rec[r]];
            }
            if (snap_stride > 0 && step % snap_stride == 0)
                memcpy(snaps + ((step / snap_stride) * n_batch + b) * cells,
                       next, (size_t)cells * sizeof(double));
            double *done = prev;
            prev = curr;
            curr = next;
            next = done;
        }
    }
    free(pad);
    return 0;
}
