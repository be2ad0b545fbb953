/* Native code-region walker (trace generation).
 *
 * One C translation of repro.codegen.CodeRegion.walk_into plus the
 * address models it is driven with (repro.codegen.*Address and
 * repro.workloads.program.DataModel).  The Python walker stays the
 * reference and the fallback; this one must emit byte-identical ops and
 * leave every piece of state exactly where the Python walker would:
 *
 * - The RNG is CPython's MT19937.  The caller exports the 624 state
 *   words plus the index from random.Random.getstate(), this file draws
 *   from them with CPython's genrand_uint32/random() construction, and
 *   the caller restores the advanced state with setstate().
 * - Every Python ``x ** k`` is libm pow(x, k) -- CPython's float_pow
 *   calls pow() -- reached through a volatile pointer so the compiler
 *   cannot rewrite pow(x, 2.0) as x * x.  Every ``int(x)`` of a
 *   non-negative float is a truncating (i64) cast.  Compile with
 *   -ffp-contract=off.
 * - Model state (recency rings, stream cursor, the syscall metadata
 *   ring) and the managed live set live in int64 arrays the Python
 *   models read and write too; this file mutates them in place.
 *
 * No allocation: the caller passes an output scratch of four int64
 * columns sized from the region's per-block maximum, so one walk never
 * overflows it.  Built into the same shared library as the consume
 * kernel (repro.uarch.native).
 */

#include <stdint.h>
#include <math.h>

typedef int64_t i64;
typedef uint32_t u32;

/* ---- op kinds (repro.trace) ---- */
#define OP_BLOCK 0
#define OP_BRANCH 1
#define OP_LOAD 2
#define OP_STORE 3

/* ---- CPython-compatible MT19937 ---- */
#define MT_N 624
#define MT_M 397

/* ``st`` holds MT_N state words followed by the index word, exactly the
 * tuple random.Random.getstate()[1] returns. */
static u32 genrand_u32(u32 *st) {
    static const u32 mag01[2] = {0x0U, 0x9908b0dfU};
    u32 y;
    if (st[MT_N] >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (st[kk] & 0x80000000U) | (st[kk + 1] & 0x7fffffffU);
            st[kk] = st[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (st[kk] & 0x80000000U) | (st[kk + 1] & 0x7fffffffU);
            st[kk] = st[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (st[MT_N - 1] & 0x80000000U) | (st[0] & 0x7fffffffU);
        st[MT_N - 1] = st[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        st[MT_N] = 0;
    }
    y = st[st[MT_N]++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random.random(): 53-bit float from two draws. */
static double rnd(u32 *st) {
    u32 a = genrand_u32(st) >> 5, b = genrand_u32(st) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static double (*volatile pow_fn)(double, double) = pow;

/* ---- address models (mirror repro.codegen.MODEL_*) ---- */
enum { MODEL_DATA, MODEL_RING, MODEL_JIT, MODEL_STACK, MODEL_CONST };

/* Integer parameter vector ``mi`` (mirrors repro.codegen.MI_*):
 * [kind, ring*, state*, live*, n_live, 0, 0, 0, model-specific...];
 * n_live is -1 for a model without a live set. */
enum { MI_KIND, MI_RING, MI_STATE, MI_LIVE, MI_NLIVE, MI_X = 8 };

/* DataModel (MI_X + k) */
enum { DM_STACK_LINES, DM_SLOT_LINES, DM_NATIVE_PAGES, DM_HOT_PAGES,
       DM_NATIVE_BASE, DM_STREAM_BASE, DM_STREAM_SPAN, DM_RECENT_CAP,
       DM_WARM_CAP, DM_EPISODE_CAP, DM_STACK_BASE };
/* DataModel doubles */
enum { DD_STREAM, DD_REUSE, DD_STACK, DD_FRESH_NEW, DD_CHASE, DD_COLD,
       DD_SKEW, DD_STORE_STACK };
/* DataModel state vector */
enum { DS_RECENT_N, DS_RECENT_HEAD, DS_WARM_N, DS_WARM_IDX, DS_EP_N,
       DS_EP_IDX, DS_CURSOR };

typedef struct {
    const i64 *mi;
    const double *md;
    i64 *ring;
    i64 *st;
    const i64 *live;
    i64 n_live;
    u32 *rng;
    int bad_index;              /* a draw indexed past the live set */
} Model;

/* FIFO ring of ``cap`` entries at ring[0..cap), state (n, head): the
 * list.pop(0)/append discipline of the Python models. */
static void fifo_push(i64 *ring, i64 *n, i64 *head, i64 cap, i64 addr) {
    if (*n < cap) {
        ring[(*head + *n) % cap] = addr;
        *n += 1;
    } else {
        ring[*head] = addr;
        *head = (*head + 1) % cap;
    }
}

static i64 dm_stack_addr(Model *m) {
    const i64 *x = m->mi + MI_X;
    double r = rnd(m->rng);
    i64 line = (i64)(r * r * (double)x[DM_STACK_LINES]);
    return x[DM_STACK_BASE] + line * 64;
}

static i64 dm_stream_addr(Model *m) {
    const i64 *x = m->mi + MI_X;
    i64 c = (m->st[DS_CURSOR] + 8) % x[DM_STREAM_SPAN];
    m->st[DS_CURSOR] = c;
    return x[DM_STREAM_BASE] + c;
}

static i64 dm_hot_object_addr(Model *m) {
    const i64 *x = m->mi + MI_X;
    i64 idx = (i64)((double)m->n_live
                    * pow_fn(rnd(m->rng), m->md[DD_SKEW]));
    if (idx >= m->n_live) {     /* only an empty live set gets here */
        m->bad_index = 1;
        return 0;
    }
    i64 base = m->live[idx];
    if (x[DM_SLOT_LINES] > 1)
        base += (i64)(rnd(m->rng) * (double)x[DM_SLOT_LINES]) * 64;
    return base;
}

static i64 dm_native_addr(Model *m, int uniform) {
    const i64 *x = m->mi + MI_X;
    i64 page;
    if (uniform || rnd(m->rng) < m->md[DD_COLD])
        page = (i64)(rnd(m->rng) * (double)x[DM_NATIVE_PAGES]);
    else
        page = (i64)(pow_fn(rnd(m->rng), m->md[DD_SKEW])
                     * (double)x[DM_HOT_PAGES]);
    return x[DM_NATIVE_BASE] + page * 4096
        + (i64)(rnd(m->rng) * 64.0) * 64;
}

static i64 dm_remember(Model *m, i64 addr) {
    const i64 *x = m->mi + MI_X;
    i64 *st = m->st;
    if (m->bad_index)
        return 0;
    i64 rc = x[DM_RECENT_CAP], wc = x[DM_WARM_CAP], ec = x[DM_EPISODE_CAP];
    fifo_push(m->ring, &st[DS_RECENT_N], &st[DS_RECENT_HEAD], rc, addr);
    i64 *warm = m->ring + rc;
    if (st[DS_WARM_N] < wc) {
        warm[st[DS_WARM_N]++] = addr;
    } else {
        warm[st[DS_WARM_IDX]] = addr;
        st[DS_WARM_IDX] = (st[DS_WARM_IDX] + 1) % wc;
    }
    i64 *ep = warm + wc;
    if (st[DS_EP_N] < ec) {
        ep[st[DS_EP_N]++] = addr;
    } else {
        ep[st[DS_EP_IDX]] = addr;
        st[DS_EP_IDX] = (st[DS_EP_IDX] + 1) % ec;
    }
    return addr;
}

static i64 dm_fresh_load(Model *m) {
    const i64 *x = m->mi + MI_X;
    const double *d = m->md;
    i64 *st = m->st;
    double r = rnd(m->rng);
    if (r < d[DD_STACK])
        return dm_stack_addr(m);
    if (rnd(m->rng) >= d[DD_FRESH_NEW]) {
        const i64 *warm = m->ring + x[DM_RECENT_CAP];
        if (st[DS_WARM_N] && rnd(m->rng) < 0.6)
            return warm[(i64)(rnd(m->rng) * (double)st[DS_WARM_N])];
        if (st[DS_EP_N]) {
            const i64 *ep = warm + x[DM_WARM_CAP];
            return ep[(i64)(rnd(m->rng) * (double)st[DS_EP_N])];
        }
    }
    r = rnd(m->rng);
    if (d[DD_CHASE] != 0.0 && r < d[DD_CHASE])
        return dm_native_addr(m, 1);
    if (m->n_live >= 0)
        return dm_remember(m, dm_hot_object_addr(m));
    return dm_remember(m, dm_native_addr(m, 0));
}

static i64 dm_recent_pick(Model *m) {
    const i64 *x = m->mi + MI_X;
    i64 n = m->st[DS_RECENT_N];
    i64 k = (i64)(rnd(m->rng) * (double)n);
    return m->ring[(m->st[DS_RECENT_HEAD] + k) % x[DM_RECENT_CAP]];
}

static i64 dm_load(Model *m) {
    const double *d = m->md;
    if (d[DD_STREAM] != 0.0 && rnd(m->rng) < d[DD_STREAM])
        return dm_stream_addr(m);
    if (m->st[DS_RECENT_N] && rnd(m->rng) < d[DD_REUSE])
        return dm_recent_pick(m);
    return dm_fresh_load(m);
}

static i64 dm_store(Model *m) {
    const double *d = m->md;
    if (m->st[DS_RECENT_N] && rnd(m->rng) < d[DD_REUSE])
        return dm_recent_pick(m);
    if (rnd(m->rng) < d[DD_STORE_STACK])
        return dm_stack_addr(m);
    if (m->n_live >= 0)
        return dm_remember(m, dm_hot_object_addr(m));
    return dm_remember(m, dm_native_addr(m, 0));
}

/* Syscall metadata ring: RING (MI_X + k) = meta_base, meta_lines, cap;
 * md[0] = reuse probability; state = (n, head). */
static i64 ring_load(Model *m) {
    const i64 *x = m->mi + MI_X;
    i64 *st = m->st;
    i64 cap = x[2];
    if (st[0] && rnd(m->rng) < m->md[0]) {
        i64 k = (i64)(rnd(m->rng) * (double)st[0]);
        return m->ring[(st[1] + k) % cap];
    }
    i64 addr = x[0] + (i64)(pow_fn(rnd(m->rng), 2.0) * (double)x[1]) * 64;
    fifo_push(m->ring, &st[0], &st[1], cap, addr);
    return addr;
}

/* JIT metadata: JIT (MI_X + k) = meta_base, hot_lines, il_base,
 * il_lines; md[0] = hot-table probability. */
static i64 jit_load(Model *m) {
    const i64 *x = m->mi + MI_X;
    if (rnd(m->rng) < m->md[0])
        return x[0] + (i64)(pow_fn(rnd(m->rng), 2.0) * (double)x[1]) * 64;
    return x[2] + (i64)(rnd(m->rng) * (double)x[3]) * 64;
}

static i64 model_addr(Model *m, int is_store) {
    const i64 *x = m->mi + MI_X;
    switch (m->mi[MI_KIND]) {
    case MODEL_DATA:
        return is_store ? dm_store(m) : dm_load(m);
    case MODEL_RING:
        return ring_load(m);
    case MODEL_JIT:
        return jit_load(m);
    case MODEL_STACK:
        return x[0] + (i64)(rnd(m->rng) * 64.0) * 64;
    default:
        return x[0];
    }
}

/* ---- region table (mirrors repro.codegen.CodeRegion._native_table) ----
 * Header, then n_blocks-long columns, then the hot-entry list. */
enum { RT_BASE, RT_NBLOCKS, RT_NHOT, RT_NCHUNKS, RT_CHUNK_BYTES, RT_HDR = 8 };
enum { RC_PC, RC_OTHER, RC_BYTES, RC_LOADS, RC_STORES, RC_TRIPS,
       RC_TARGET, RC_N };

/* Walk ~n_instr instructions of the region into out[0..4*cap).
 *
 * entry < 0 picks a hot entry point from the RNG (Python's entry=None);
 * otherwise it is the starting block (already reduced mod n_blocks).
 * Writes the executed instruction count to res[0] and returns the op
 * count, -1 if the scratch would overflow (never, for the cap the Python
 * side computes: ops <= executed < n_instr + max block cost), or -2 if a
 * draw indexed an empty live set (the Python walker's IndexError). */
i64 repro_walk(const i64 *rt, const double *p_taken, u32 *rng,
               const i64 *mi, const double *md, i64 n_instr, i64 entry,
               i64 kernel_bit, i64 *out, i64 cap, i64 *res) {
    const i64 base = rt[RT_BASE], n_blocks = rt[RT_NBLOCKS];
    const i64 n_hot = rt[RT_NHOT], n_chunks = rt[RT_NCHUNKS];
    const i64 chunk_bytes = rt[RT_CHUNK_BYTES];
    const i64 *col = rt + RT_HDR;
    const i64 *pc = col + RC_PC * n_blocks;
    const i64 *n_other = col + RC_OTHER * n_blocks;
    const i64 *n_bytes = col + RC_BYTES * n_blocks;
    const i64 *n_loads = col + RC_LOADS * n_blocks;
    const i64 *n_stores = col + RC_STORES * n_blocks;
    const i64 *trips = col + RC_TRIPS * n_blocks;
    const i64 *target = col + RC_TARGET * n_blocks;
    const i64 *hot = col + RC_N * n_blocks;
    i64 *kinds = out, *a0 = out + cap, *a1 = out + 2 * cap,
        *a2 = out + 3 * cap;
    Model m;
    m.mi = mi;
    m.md = md;
    m.ring = (i64 *)(intptr_t)mi[MI_RING];
    m.st = (i64 *)(intptr_t)mi[MI_STATE];
    m.live = (const i64 *)(intptr_t)mi[MI_LIVE];
    m.n_live = mi[MI_NLIVE];
    m.rng = rng;
    m.bad_index = 0;

    i64 n = 0, executed = 0, run_len = 0, off = 0, i;
#define EMIT(k, x0, x1, x2) do { \
        if (n >= cap) { res[0] = executed; return -1; } \
        kinds[n] = (k); a0[n] = (x0); a1[n] = (x1); a2[n] = (x2); n++; \
    } while (0)

    if (entry < 0)
        i = hot[(i64)(pow_fn(rnd(rng), 3.0) * (double)n_hot)];
    else
        i = entry;
    while (executed < n_instr) {
        i64 reps = trips[i];
        for (i64 rep = 0; rep < reps; rep++) {
            i64 other = n_other[i];
            if (other)
                EMIT(OP_BLOCK, base + pc[i] + off, other,
                     n_bytes[i] | kernel_bit);
            for (i64 k = 0; k < n_loads[i]; k++) {
                i64 addr = model_addr(&m, 0);
                if (m.bad_index) { res[0] = executed; return -2; }
                EMIT(OP_LOAD, addr, 0, 0);
            }
            for (i64 k = 0; k < n_stores[i]; k++) {
                i64 addr = model_addr(&m, 1);
                if (m.bad_index) { res[0] = executed; return -2; }
                EMIT(OP_STORE, addr, 0, 0);
            }
            executed += other + n_loads[i] + n_stores[i] + 1;
            i64 branch_pc = base + pc[i] + off + n_bytes[i] - 4;
            if (rep < reps - 1) {
                EMIT(OP_BRANCH, branch_pc, base + pc[i] + off, 1);
                continue;
            }
            run_len += 1;
            i64 j;
            if (run_len >= 8) {
                run_len = 0;
                if (rnd(rng) < 0.98) {
                    j = hot[(i64)(pow_fn(rnd(rng), 3.0) * (double)n_hot)];
                    off = 0;
                } else {
                    j = (i64)(rnd(rng) * (double)n_blocks);
                    if (n_chunks > 1)
                        off = (i64)(rnd(rng) * (double)n_chunks)
                            * chunk_bytes;
                }
                EMIT(OP_BRANCH, branch_pc, base + pc[j] + off, 1);
            } else if (rnd(rng) < p_taken[i]) {
                j = target[i];
                EMIT(OP_BRANCH, branch_pc, base + pc[j] + off, 1);
            } else {
                j = (i + 1) % n_blocks;
                EMIT(OP_BRANCH, branch_pc, base + pc[j] + off, 0);
            }
            i = j;
        }
    }
#undef EMIT
    res[0] = executed;
    return n;
}
