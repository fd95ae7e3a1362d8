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
 * Each row reads its z taps through row pointers clamped once per row, so
 * only the h = taps / 2 cells at each end of a row clamp their x taps; the
 * rest of the row is a plain loop the compiler vectorises, with the tap
 * count a compile-time constant.  On x86-64 an AVX2 copy of the loop is
 * picked at run time where the CPU has it; vector width changes no lane's
 * arithmetic, so every copy gives the same bits.
 *
 * No Python C-API: the library is loaded with ctypes.
 */

#include <stdint.h>
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

/* One time step of one wavefield: next from curr and prev, with amp added
 * at the source cell s before the damping. */
INLINE void sweep(const int taps, double *restrict next,
                  const double *restrict curr, const double *restrict prev,
                  const double *restrict c2dt2, const double *restrict mask,
                  const double *restrict cz, const double *restrict cx,
                  i64 nz, i64 nx, i64 s, double amp)
{
    const int h = taps / 2;
    const i64 lo = h < nx ? h : nx;               /* first interior column */
    const i64 hi = nx - h > lo ? nx - h : lo;     /* end of the interior */
    const double *rows[9];
    for (i64 i = 0; i < nz; i++) {
        const i64 at = i * nx;
        const double *restrict c = curr + at, *restrict p = prev + at;
        const double *restrict v = c2dt2 + at, *restrict m = mask + at;
        double *restrict out = next + at;
        for (int k = 0; k < taps; k++)
            rows[k] = curr + clamp(i + k - h, nz) * nx;
        for (i64 j = 0; j < lo; j++)
            out[j] = cell(taps, rows, c, p, v, m, cz, cx, nx, j) * m[j];
        for (i64 j = lo; j < hi; j++) {     /* cell() with no clamp */
            double lap = 0.0;
            for (int k = 0; k < taps; k++) {
                lap += cz[k] * rows[k][j];
                lap += cx[k] * c[j + k - h];
            }
            out[j] = ((2.0 * c[j] - p[j] * m[j]) + v[j] * lap) * m[j];
        }
        for (i64 j = hi; j < nx; j++)
            out[j] = cell(taps, rows, c, p, v, m, cz, cx, nx, j) * m[j];
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
                         const double *, i64, i64, i64, double);

/* One copy of sweep per tap count (and, on x86-64, per instruction set). */
#define SWEEP(TAPS, SUFFIX, ATTR)                                             \
    ATTR static void sweep##TAPS##SUFFIX(double *next, const double *curr,    \
        const double *prev, const double *c2dt2, const double *mask,          \
        const double *cz, const double *cx, i64 nz, i64 nx, i64 s,            \
        double amp)                                                           \
    {                                                                         \
        sweep(TAPS, next, curr, prev, c2dt2, mask, cz, cx, nz, nx, s, amp);   \
    }
#define SWEEPS(SUFFIX, ATTR) \
    SWEEP(3, SUFFIX, ATTR) SWEEP(5, SUFFIX, ATTR) SWEEP(9, SUFFIX, ATTR)

SWEEPS(, )
#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_AVX2 1
SWEEPS(_avx2, __attribute__((target("avx2"))))
#endif

static sweep_fn pick(i64 taps)
{
#ifdef HAVE_AVX2
    __builtin_cpu_init();
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
 * Returns 0, or -1 for a tap count other than 3, 5 or 9.
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
            step_fn(next, curr, prev, c2, mask, cz, cx, nz, nx, src[b],
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
    return 0;
}
