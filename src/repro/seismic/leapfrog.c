/*
 * Fused leap-frog time loop of the 2-D acoustic propagator.
 *
 * One call runs the whole time history of a batch of wavefields.  Every
 * cell of every wavefield does exactly the floating-point operations of the
 * reference oracle AcousticSimulator2D, in its order:
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
 * Lanes.  The wavefields run in lane groups: a group of L consecutive
 * wavefields of the batch is stored with the wavefield innermost, cell
 * (i, j) of lane l at i * stride + origin + j * L + l, and its c2dt2 and
 * mask are copied into the same layout.  Row i of a group is then one loop
 * over nx * L doubles in which the lanes never mix: lane l's x taps lie
 * L doubles apart in its own row, its z taps at the same place in the rows
 * above and below, and every other operand at the same place in its own
 * buffer.  Each row of a field carries h = taps / 2 copies of its edge
 * cell (all L lanes of it) at each end, the oracle's clamp in x, written
 * as soon as the row is done, so the loop reads every x tap unclamped; the
 * z taps are read through row pointers clamped once per row.  Rows start
 * on 64-byte boundaries.  Each source cell, whose amplitude is added
 * before the damping, is recomputed once per step and lane, clamping tap
 * by tap.
 *
 * Groups.  A group's buffers (three fields, c2dt2 and mask) are kept under
 * GROUP_BYTES, so that a group stays in a core's L2 cache for all its
 * steps (qugeo_group_lanes); the batch is split into the fewest groups
 * that fit, of as equal a size as they can be.  The grouping follows from
 * the call's wavefield count and grid size alone.
 *
 * Three copies of the row loop: a generic one, and on x86-64 an AVX2 and an
 * AVX-512 copy; qugeo_leapfrog runs the widest the CPU has and qugeo_isa
 * names it.  Vector width changes no lane's arithmetic, so every copy gives
 * the same bits; qugeo_leapfrog_copy runs a given copy, for the tests.
 *
 * No Python C-API: the library is loaded with ctypes.
 */

#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

/* Doubles per 64-byte cache line: rows are padded to a multiple of it. */
#define LINE 8
/* Largest group working set: three fields, c2dt2 and mask. */
#define GROUP_BYTES (1 << 20)

INLINE i64 clamp(i64 i, i64 n)
{
    return i < 0 ? 0 : (i >= n ? n - 1 : i);
}

INLINE i64 round_up(i64 n, i64 to)
{
    return (n + to - 1) / to * to;
}

/* Where a lane group's cells live: cell (i, j) of lane l at
 * i * stride + origin + j * lanes + l, for j in [-h, nx + h). */
typedef struct {
    i64 nz, nx, lanes, h, origin, stride;
} layout;

static layout group_layout(i64 nz, i64 nx, i64 lanes, i64 taps)
{
    const i64 h = taps / 2, origin = round_up(h * lanes, LINE);
    layout g = {nz, nx, lanes, h, origin,
                round_up(origin + (nx + h) * lanes, LINE)};
    return g;
}

/* Fill the h cells at each end of a row (row points at its column 0) with
 * copies of its first and last cells, lanes l0 to l1 - 1: the oracle's
 * clamp of the x taps. */
INLINE void pad_row(double *row, i64 nx, i64 lanes, i64 h, i64 l0, i64 l1)
{
    for (i64 k = 1; k <= h; k++)
        for (i64 l = l0; l < l1; l++) {
            row[-k * lanes + l] = row[l];
            row[(nx - 1 + k) * lanes + l] = row[(nx - 1) * lanes + l];
        }
}

/* One time step of a lane group: next from curr and prev, undamped and
 * without the source amplitudes, each row of next padded as it is done. */
INLINE void sweep(const int taps, double *restrict next,
                  const double *restrict curr, const double *restrict prev,
                  const double *restrict c2dt2, const double *restrict mask,
                  const double *restrict cz, const double *restrict cx,
                  const layout g)
{
    const int h = taps / 2;
    const i64 lanes = g.lanes, n = g.nx * lanes;
    const double *rows[9];
    for (i64 i = 0; i < g.nz; i++) {
        const i64 at = i * g.stride + g.origin;
        const double *restrict p = prev + at;
        const double *restrict v = c2dt2 + at, *restrict m = mask + at;
        double *restrict out = next + at;
        for (int k = 0; k < taps; k++)
            rows[k] = curr + clamp(i + k - h, g.nz) * g.stride + g.origin;
        const double *restrict c = rows[h];   /* row i, x taps and all */
        for (i64 q = 0; q < n; q++) {
            double lap = 0.0;
            for (int k = 0; k < taps; k++) {
                lap += cz[k] * rows[k][q];
                lap += cx[k] * c[q + (k - h) * lanes];
            }
            out[q] = ((2.0 * c[q] - p[q] * m[q]) + v[q] * lap) * m[q];
        }
        pad_row(out, g.nx, lanes, h, 0, lanes);
    }
}

typedef void (*sweep_fn)(double *, const double *, const double *,
                         const double *, const double *, const double *,
                         const double *, const layout);

/* One copy of sweep per tap count (and, on x86-64, per instruction set). */
#define SWEEP(TAPS, SUFFIX, ATTR)                                             \
    ATTR static void sweep##TAPS##SUFFIX(double *next, const double *curr,    \
        const double *prev, const double *c2dt2, const double *mask,          \
        const double *cz, const double *cx, const layout g)                   \
    {                                                                         \
        sweep(TAPS, next, curr, prev, c2dt2, mask, cz, cx, g);                \
    }
#define SWEEPS(SUFFIX, ATTR) \
    SWEEP(3, SUFFIX, ATTR) SWEEP(5, SUFFIX, ATTR) SWEEP(9, SUFFIX, ATTR)

enum { GENERIC, AVX2, AVX512, N_COPIES };
static const char *const COPY_NAMES[N_COPIES] = {"generic", "avx2", "avx512"};

SWEEPS(, )
#if defined(__x86_64__) && defined(__GNUC__)
#define HAVE_X86_COPIES 1
SWEEPS(_avx2, __attribute__((target("avx2"))))
SWEEPS(_avx512, __attribute__((target("avx512f"))))
static const sweep_fn COPIES[N_COPIES][3] = {
    {sweep3, sweep5, sweep9},
    {sweep3_avx2, sweep5_avx2, sweep9_avx2},
    {sweep3_avx512, sweep5_avx512, sweep9_avx512}};
#else
static const sweep_fn COPIES[N_COPIES][3] = {{sweep3, sweep5, sweep9}};
#endif

/* Whether this CPU can run copy. */
static int can_run(i64 copy)
{
    if (copy == GENERIC)
        return 1;
#ifdef HAVE_X86_COPIES
    __builtin_cpu_init();
    if (copy == AVX2)
        return __builtin_cpu_supports("avx2");
    if (copy == AVX512)
        return __builtin_cpu_supports("avx512f");
#endif
    return 0;
}

static i64 widest(void)
{
    i64 copy = N_COPIES - 1;
    while (!can_run(copy))
        copy--;
    return copy;
}

/* The name of the copy qugeo_leapfrog runs: generic, avx2 or avx512. */
const char *qugeo_isa(void)
{
    return COPY_NAMES[widest()];
}

/* The most lanes a group holds on an nz x nx grid: as many as fit
 * GROUP_BYTES, and at least one. */
i64 qugeo_group_lanes(i64 nz, i64 nx)
{
    const i64 fit = GROUP_BYTES / (5 * (i64)sizeof(double) * nz * nx);
    return fit < 1 ? 1 : fit;
}

/* The source cell s of lane l once more, its amplitude added before the
 * damping, the taps clamped one by one; then its row's padding. */
static void source_cell(int taps, double *next, const double *curr,
                        const double *prev, const double *c2dt2,
                        const double *mask, const double *cz,
                        const double *cx, const layout g, i64 l, i64 s,
                        double amp)
{
    const int h = taps / 2;
    const i64 si = s / g.nx, sj = s % g.nx, lanes = g.lanes;
    const i64 row = si * g.stride + g.origin, at = row + sj * lanes + l;
    double lap = 0.0;
    for (int k = 0; k < taps; k++) {
        lap += cz[k] * curr[clamp(si + k - h, g.nz) * g.stride + g.origin
                            + sj * lanes + l];
        lap += cx[k] * curr[row + clamp(sj + k - h, g.nx) * lanes + l];
    }
    next[at] = (((2.0 * curr[at] - prev[at] * mask[at]) + c2dt2[at] * lap)
                + amp) * mask[at];
    pad_row(next + row, g.nx, lanes, h, l, l + 1);
}

/* Copy an (nz, nx) grid into lane l of a lane buffer (in), or back. */
static void lane_copy(int in, double *grid, double *buffer, i64 l,
                      const layout g)
{
    for (i64 i = 0; i < g.nz; i++) {
        double *row = buffer + i * g.stride + g.origin;
        for (i64 j = 0; j < g.nx; j++) {
            if (in)
                row[j * g.lanes + l] = grid[i * g.nx + j];
            else
                grid[i * g.nx + j] = row[j * g.lanes + l];
        }
        if (in)
            pad_row(row, g.nx, g.lanes, g.h, l, l + 1);
    }
}

/*
 * Run n_steps leap-frog steps of n_batch wavefields with the given copy of
 * the row loop (GENERIC, AVX2 or AVX512).
 *
 * fields   (n_batch, 3, nz, nx)  slot 0 prev (undamped), slot 1 curr,
 *                                slot 2 scratch; zeros for a run from rest.
 *                                Each slot holds its buffer's field on return.
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
 * Returns 0, -1 for a tap count other than 3, 5 or 9, -2 if the lane
 * buffers cannot be allocated, or -3 for a copy this CPU cannot run.
 */
int qugeo_leapfrog_copy(i64 copy, double *fields, const double *c2dt2,
                        const double *mask, const double *cz,
                        const double *cx, const i64 *src, const double *amps,
                        const i64 *rec, double *gather, double *snaps,
                        i64 n_batch, i64 n_models, i64 nz, i64 nx, i64 taps,
                        i64 n_steps, i64 record_every, i64 n_rec,
                        i64 snap_stride)
{
    if (copy < 0 || copy >= N_COPIES || !can_run(copy))
        return -3;
    if (taps != 3 && taps != 5 && taps != 9)
        return -1;
    if (n_batch < 1)
        return 0;
    const sweep_fn step_fn = COPIES[copy][taps / 4];
    /* The fewest groups that fit, as equal as they can be: group g holds
     * n_batch / n_groups lanes, one more for g < n_batch % n_groups. */
    const i64 fit = qugeo_group_lanes(nz, nx);
    const i64 n_groups = (n_batch + fit - 1) / fit;
    const i64 widest = (n_batch + n_groups - 1) / n_groups;
    const size_t grid =
        (size_t)(nz * group_layout(nz, nx, widest, taps).stride);
    /* Three fields, c2dt2 and mask; 64-byte aligned. */
    void *store = malloc(5 * grid * sizeof(double) + 64);
    i64 *rec_at = malloc((size_t)(n_rec > 0 ? n_rec : 1) * sizeof(i64));
    if (!store || !rec_at) {
        free(store);
        free(rec_at);
        return -2;
    }
    double *buffers[5];
    buffers[0] = (double *)(((uintptr_t)store + 63) & ~(uintptr_t)63);
    for (int k = 1; k < 5; k++)
        buffers[k] = buffers[k - 1] + grid;
    double *c2 = buffers[3], *m = buffers[4];
    const i64 cells = nz * nx;
    const i64 n_recorded = (n_steps + record_every - 1) / record_every;
    const i64 per_model = n_batch / n_models;
    for (i64 group = 0, b0 = 0; group < n_groups; group++) {
        const i64 lanes = n_batch / n_groups + (group < n_batch % n_groups);
        const layout g = group_layout(nz, nx, lanes, taps);
        for (i64 r = 0; r < n_rec; r++)
            rec_at[r] = rec[r] / nx * g.stride + g.origin
                        + rec[r] % nx * lanes;
        for (i64 l = 0; l < lanes; l++) {
            lane_copy(1, (double *)c2dt2 + (b0 + l) / per_model * cells, c2,
                      l, g);
            lane_copy(1, (double *)mask, m, l, g);
            for (int slot = 0; slot < 3; slot++)
                lane_copy(1, fields + ((b0 + l) * 3 + slot) * cells,
                          buffers[slot], l, g);
        }
        double *prev = buffers[0], *curr = buffers[1], *next = buffers[2];
        for (i64 step = 0; step < n_steps; step++) {
            step_fn(next, curr, prev, c2, m, cz, cx, g);
            for (i64 l = 0; l < lanes; l++) {
                const i64 b = b0 + l;
                source_cell(taps, next, curr, prev, c2, m, cz, cx, g, l,
                            src[b], amps[b * n_steps + step]);
                if (step % record_every == 0) {
                    double *row = gather + (b * n_recorded
                                            + step / record_every) * n_rec;
                    for (i64 r = 0; r < n_rec; r++)
                        row[r] = next[rec_at[r] + l];
                }
                if (snap_stride > 0 && step % snap_stride == 0)
                    lane_copy(0, snaps + ((step / snap_stride) * n_batch + b)
                                             * cells,
                              next, l, g);
            }
            double *done = prev;
            prev = curr;
            curr = next;
            next = done;
        }
        for (i64 l = 0; l < lanes; l++)
            for (int slot = 0; slot < 3; slot++)
                lane_copy(0, fields + ((b0 + l) * 3 + slot) * cells,
                          buffers[slot], l, g);
        b0 += lanes;
    }
    free(store);
    free(rec_at);
    return 0;
}

/* qugeo_leapfrog_copy with the widest copy this CPU can run. */
int qugeo_leapfrog(double *fields, const double *c2dt2, const double *mask,
                   const double *cz, const double *cx, const i64 *src,
                   const double *amps, const i64 *rec, double *gather,
                   double *snaps, i64 n_batch, i64 n_models, i64 nz, i64 nx,
                   i64 taps, i64 n_steps, i64 record_every, i64 n_rec,
                   i64 snap_stride)
{
    return qugeo_leapfrog_copy(widest(), fields, c2dt2, mask, cz, cx, src,
                               amps, rec, gather, snaps, n_batch, n_models,
                               nz, nx, taps, n_steps, record_every, n_rec,
                               snap_stride);
}
