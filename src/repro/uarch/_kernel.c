/* Native consume kernel for the vector engine (engine="vector").
 *
 * One C translation of the legacy per-op semantics of
 * repro.uarch.pipeline.Core (_op_block/_op_branch/_op_mem and the
 * structures they drive).  The Python glue (repro.uarch.native) owns
 * every byte of state as numpy arrays; this kernel only mutates them in
 * place, so there is no C-side allocation and no lifetime to manage.
 *
 * Bit-identity contract: every floating-point accumulation reproduces
 * the exact IEEE-754 double expression tree the legacy Python path
 * evaluates, in the same op order.  Derived constants (overlap factors,
 * walk costs, hidden-latency products) are computed once in *Python*
 * with the legacy expressions and passed in as doubles, which is
 * equivalent because the legacy path recomputes the same deterministic
 * value per op.  Compile with -ffp-contract=off (no FMA contraction)
 * and never with -ffast-math.
 */

#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint64_t u64;
typedef double f64;

/* ---- op kinds (repro.trace) ---- */
#define OP_BLOCK 0
#define OP_BRANCH 1
#define OP_LOAD 2
#define OP_STORE 3
#define OP_EVENT 4

/* ---- pointer-table layout (mirrors repro.uarch.native._PTR) ---- */
enum {
    P_KINDS, P_A0, P_A1, P_A2, P_EVIDX, P_EVCYC,
    P_SI, P_SD, P_PD, P_PI,
    P_CACHE0,                       /* 5 x (tags, flags, cnt, stats) */
    P_TLB0 = P_CACHE0 + 20,        /* 3 x (vpns, cnt, stats) */
    P_GS_VAL = P_TLB0 + 9, P_GS_PRES,
    P_LP_SLAB, P_LP_ORDER, P_LP_HKEY, P_LP_HVAL,
    P_BTB_KEY, P_BTB_TGT, P_BTB_CNT,
    P_SPF_PAGE, P_SPF_LINE,
    P_DRAM_ROWS, P_DRAM_ST,
    P_VM_HASH, P_VM_LOG,
    P_VM_RANGES,                    /* [start_0, end_0, start_1, ...] */
    P_LLC_EPOCH,                    /* [epoch_total, slice_0..slice_{n-1}] */
    P_N
};

/* ---- scalar int slots (mirrors native._SI) ---- */
enum {
    SI_INSTR, SI_KINSTR, SI_BRANCHES, SI_LOADS, SI_STORES,
    SI_DTLB_LWALK, SI_DTLB_SWALK, SI_ITLB_WALK,
    SI_LAST_CODE_LINE, SI_LAST_CODE_PAGE, SI_LAST_DATA_VPN, SI_KMODE,
    SI_GS_HIST,
    SI_BU_BR, SI_BU_MIS, SI_BU_BTBM, SI_BU_TK,
    SI_L1IPF_ISS, SI_L1IPF_PB, SI_L1DPF_ISS, SI_L1DPF_PB,
    SI_L2PF_ISS, SI_L2PF_PB,
    SI_L1IPF_LAST, SI_L1DPF_LAST,
    SI_VM_MIN, SI_VM_MAJ, SI_VM_MAPPED, SI_VM_SEQ, SI_VM_CNT, SI_VM_LOGN,
    SI_LP_CNT, SI_LP_TOMB, SI_SPF_CNT,
    SI_RAND0,                       /* 5 cache LCG states */
    SI_EV_N = SI_RAND0 + 5, SI_NEXT_POS,
    SI_OPS_RETIRED,                 /* live progress: ops retired so far */
    SI_OPK0,                        /* 5 per-op-kind retirement counters */
    SI_N = SI_OPK0 + 5
};

/* ---- scalar double slots ---- */
enum { SD_IDEAL, SD_UOPS, SD_ST0,
       SD_NEXT_HOOK = SD_ST0 + 17,  /* +inf when no cycle hook armed */
       SD_N };

/* ---- stall bucket order (pipeline.ALL_BUCKETS) ---- */
enum {
    ST_FE_ICACHE, ST_FE_ITLB, ST_FE_RESTEER, ST_FE_MS, ST_FE_IFAULT,
    ST_FE_DSB_BW, ST_FE_MITE_BW, ST_BAD_SPEC,
    ST_BE_L1, ST_BE_L2, ST_BE_L3, ST_BE_DRAM, ST_BE_DTLB, ST_BE_STORE,
    ST_BE_DFAULT, ST_BE_DIV, ST_BE_PORTS
};

/* ---- constant doubles (native._PD) ---- */
enum {
    PD_UOP_FACTOR, PD_INV_WIDTH, PD_PORTS_COEFF, PD_DIV_FRAC, PD_DIV_PEN,
    PD_MICRO_FRAC, PD_MS_PEN, PD_MITE_COEFF,
    PD_ITLB_WALK, PD_DTLB_WALK,
    PD_ICACHE_L2, PD_ICACHE_L3, PD_ICACHE_DRAM,
    PD_L1_HIT, PD_BE_L2, PD_BE_L3, PD_BE_DRAM,
    PD_STORE_PEN, PD_MIS_PEN, PD_RESTEER_PEN, PD_TAKEN_BUBBLE,
    PD_PF_DRAM, PD_MINOR_FAULT, PD_MAJOR_FAULT, PD_PORTS_ON,
    PD_WIDTH,                       /* uops / width is a true division */
    PD_HOOK_INTERVAL,
    PD_N
};

/* ---- constant ints (native._PI) ---- */
enum {
    PI_HIST_BITS, PI_HIST_MASK, PI_GS_MASK,
    PI_BTB_MASK, PI_BTB_WAYS,
    PI_LP_MAX, PI_LP_HMASK, PI_VM_HMASK, PI_MAJOR_PERIOD,
    PI_DRAM_BANKS, PI_DRAM_ROWSZ, PI_SPF_MAX, PI_SPF_DEG,
    PI_LLC_SLICES,                  /* 0 = private LLC (no counting) */
    PI_VM_NRANGES,                  /* premapped page ranges */
    PI_CACHE0,                      /* 5 x (mask, ways, lru, evict_head) */
    PI_TLB0 = PI_CACHE0 + 20,      /* 3 x (mask, ways) */
    PI_N = PI_TLB0 + 6
};

/* cache order: l1i, l1d, l2, llc, dsb */
enum { C_L1I, C_L1D, C_L2, C_LLC, C_DSB };
/* tlb order: itlb_l1, dtlb_l1, stlb */
enum { T_ITLB, T_DTLB, T_STLB };

/* cache stats order: CacheStats fields */
enum { CS_ACC, CS_MISS, CS_DACC, CS_DMISS, CS_PFF, CS_USEFUL, CS_USELESS,
       CS_EVICT, CS_WB };
/* tlb stats: accesses, misses, walks */
/* dram stats: reads, writes, row_hits, row_misses, bytes_r, bytes_w */

typedef struct {
    i64 *tags; uint8_t *flags; int32_t *cnt; i64 *st;
    i64 mask; int32_t ways; int32_t lru; int32_t evict_head;
    i64 *rand_state;
} CacheS;

typedef struct {
    i64 *vpns; int32_t *cnt; i64 *st;
    i64 mask; int32_t ways;
} TlbS;

typedef struct {
    i64 *kinds, *a0, *a1, *a2;
    i64 *evidx; f64 *evcyc;
    i64 *si; f64 *sd; const f64 *pd; i64 *pi;
    CacheS c[5];
    TlbS t[3];
    int8_t *gs_val; uint8_t *gs_pres;
    i64 *lp_slab;                   /* [256][4]: pc, learned, run, conf */
    int32_t *lp_order;
    i64 *lp_hkey; int32_t *lp_hval;
    i64 *btb_key, *btb_tgt; int32_t *btb_cnt;
    i64 *spf_page, *spf_line;
    i64 *dram_rows, *dram_st;
    i64 *vm_hash, *vm_log;
    const i64 *vm_ranges;           /* sorted disjoint [start, end) pairs */
    i64 *llc_epoch;                 /* shared-LLC epoch + slice counters */
    i64 llc_slices;                 /* 0 disables counting */
    f64 *stalls;                    /* &sd[SD_ST0] */
} Sim;

/* ================= caches ================= */

static int cache_access(CacheS *c, i64 addr, int w) {
    c->st[CS_ACC]++; c->st[CS_DACC]++;
    i64 line = addr >> 6;
    i64 base = (line & c->mask) * c->ways;
    int32_t n = c->cnt[line & c->mask];
    int j = -1;
    for (int k = n - 1; k >= 0; k--)
        if (c->tags[base + k] == line) { j = k; break; }
    if (j < 0) { c->st[CS_MISS]++; c->st[CS_DMISS]++; return 0; }
    uint8_t f = c->flags[base + j];
    if (c->lru && j != n - 1) {
        memmove(&c->tags[base + j], &c->tags[base + j + 1],
                (size_t)(n - 1 - j) * sizeof(i64));
        memmove(&c->flags[base + j], &c->flags[base + j + 1],
                (size_t)(n - 1 - j));
        c->tags[base + n - 1] = line;
        j = n - 1;
    }
    if ((f & 1) && !(f & 2)) c->st[CS_USEFUL]++;
    f |= 2;
    if (w) f |= 4;
    c->flags[base + j] = f;
    return 1;
}

static void cache_fill(CacheS *c, i64 addr, int pf, int dirty) {
    i64 line = addr >> 6;
    i64 si = line & c->mask;
    i64 base = si * c->ways;
    int32_t n = c->cnt[si];
    for (int k = 0; k < n; k++)
        if (c->tags[base + k] == line) {
            uint8_t f = c->flags[base + k];
            if (!pf) f |= 2;
            if (dirty) f |= 4;
            if (c->lru && k != n - 1) {
                memmove(&c->tags[base + k], &c->tags[base + k + 1],
                        (size_t)(n - 1 - k) * sizeof(i64));
                memmove(&c->flags[base + k], &c->flags[base + k + 1],
                        (size_t)(n - 1 - k));
                c->tags[base + n - 1] = line;
                c->flags[base + n - 1] = f;
            } else {
                c->flags[base + k] = f;
            }
            return;
        }
    if (pf) c->st[CS_PFF]++;
    if (n >= c->ways) {
        int vi = 0;
        if (!c->evict_head) {
            *c->rand_state = (*c->rand_state * 1103515245 + 12345)
                & 0x7FFFFFFF;
            vi = (int)(*c->rand_state % n);
        }
        uint8_t vf = c->flags[base + vi];
        c->st[CS_EVICT]++;
        if ((vf & 1) && !(vf & 2)) c->st[CS_USELESS]++;
        if (vf & 4) c->st[CS_WB]++;
        memmove(&c->tags[base + vi], &c->tags[base + vi + 1],
                (size_t)(n - 1 - vi) * sizeof(i64));
        memmove(&c->flags[base + vi], &c->flags[base + vi + 1],
                (size_t)(n - 1 - vi));
        n--;
    }
    c->tags[base + n] = line;
    c->flags[base + n] = (uint8_t)((pf ? 1 : 2) | (dirty ? 4 : 0));
    c->cnt[si] = n + 1;
}

static int cache_contains(const CacheS *c, i64 addr) {
    i64 line = addr >> 6;
    i64 base = (line & c->mask) * c->ways;
    int32_t n = c->cnt[line & c->mask];
    for (int k = 0; k < n; k++)
        if (c->tags[base + k] == line) return 1;
    return 0;
}

/* ================= TLBs ================= */

static int tlb_access(TlbS *t, i64 vpn) {
    t->st[0]++;
    i64 base = (vpn & t->mask) * t->ways;
    int32_t n = t->cnt[vpn & t->mask];
    int j = -1;
    for (int k = n - 1; k >= 0; k--)
        if (t->vpns[base + k] == vpn) { j = k; break; }
    if (j < 0) { t->st[1]++; return 0; }
    if (j != n - 1) {
        memmove(&t->vpns[base + j], &t->vpns[base + j + 1],
                (size_t)(n - 1 - j) * sizeof(i64));
        t->vpns[base + n - 1] = vpn;
    }
    return 1;
}

static void tlb_fill(TlbS *t, i64 vpn) {
    i64 si = vpn & t->mask;
    i64 base = si * t->ways;
    int32_t n = t->cnt[si];
    for (int k = 0; k < n; k++)
        if (t->vpns[base + k] == vpn) return;
    if (n >= t->ways) {
        memmove(&t->vpns[base], &t->vpns[base + 1],
                (size_t)(n - 1) * sizeof(i64));
        n--;
    }
    t->vpns[base + n] = vpn;
    t->cnt[si] = n + 1;
}

/* returns 1 = L1, 2 = STLB, 3 = walk (tlb.TLB_*) */
static int thier_access(Sim *s, TlbS *l1, i64 vpn) {
    if (tlb_access(l1, vpn)) return 1;
    if (tlb_access(&s->t[T_STLB], vpn)) { tlb_fill(l1, vpn); return 2; }
    l1->st[2]++;
    tlb_fill(&s->t[T_STLB], vpn);
    tlb_fill(l1, vpn);
    return 3;
}

/* ================= DRAM / VM ================= */

static void dram_access(Sim *s, i64 addr, int w) {
    i64 rg = addr / s->pi[PI_DRAM_ROWSZ];
    i64 bank = rg % s->pi[PI_DRAM_BANKS];
    i64 row = rg / s->pi[PI_DRAM_BANKS];
    if (s->dram_rows[bank] == row) s->dram_st[2]++;
    else { s->dram_st[3]++; s->dram_rows[bank] = row; }
    if (w) { s->dram_st[1]++; s->dram_st[5] += 64; }
    else { s->dram_st[0]++; s->dram_st[4] += 64; }
}

static u64 vm_mix(i64 vpn) {
    u64 h = (u64)vpn * 0x9E3779B97F4A7C15ull;
    return h ^ (h >> 29);
}

/* Premapped memory: is vpn inside one of the sorted, disjoint
 * [start, end) page ranges?  Binary search for the last start <= vpn. */
static int vm_in_ranges(const Sim *s, i64 vpn) {
    const i64 *r = s->vm_ranges;
    i64 lo = 0, hi = s->pi[PI_VM_NRANGES];
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (r[2 * mid] <= vpn) lo = mid + 1;
        else hi = mid;
    }
    return lo > 0 && vpn < r[2 * lo - 1];
}

/* 0 = mapped already, 1 = minor fault, 2 = major fault.  Runs only on
 * STLB walks, so the range check before the hash probe is off the hot
 * path.  The hash holds demand-faulted pages only (none inside a range). */
static int vm_touch(Sim *s, i64 vpn) {
    if (vm_in_ranges(s, vpn)) return 0;
    i64 mask = s->pi[PI_VM_HMASK];
    u64 h = vm_mix(vpn) & (u64)mask;
    while (s->vm_hash[h] != -1) {
        if (s->vm_hash[h] == vpn) return 0;
        h = (h + 1) & (u64)mask;
    }
    s->vm_hash[h] = vpn;
    s->si[SI_VM_CNT]++;
    s->vm_log[s->si[SI_VM_LOGN]++] = vpn;
    s->si[SI_VM_MAPPED]++;
    s->si[SI_VM_SEQ]++;
    if (s->pi[PI_MAJOR_PERIOD] > 0
            && s->si[SI_VM_SEQ] % s->pi[PI_MAJOR_PERIOD] == 0) {
        s->si[SI_VM_MAJ]++;
        return 2;
    }
    s->si[SI_VM_MIN]++;
    return 1;
}

void repro_vm_build(i64 *keys, i64 n, i64 *hash, i64 mask) {
    for (i64 i = 0; i <= mask; i++) hash[i] = -1;
    for (i64 i = 0; i < n; i++) {
        u64 h = vm_mix(keys[i]) & (u64)mask;
        while (hash[h] != -1) {
            if (hash[h] == keys[i]) break;
            h = (h + 1) & (u64)mask;
        }
        hash[h] = keys[i];
    }
}

void repro_vm_rehash(i64 *old_hash, i64 old_mask, i64 *hash, i64 mask) {
    for (i64 i = 0; i <= mask; i++) hash[i] = -1;
    for (i64 i = 0; i <= old_mask; i++) {
        i64 v = old_hash[i];
        if (v == -1) continue;
        u64 h = vm_mix(v) & (u64)mask;
        while (hash[h] != -1) h = (h + 1) & (u64)mask;
        hash[h] = v;
    }
}

/* ================= prefetchers / hierarchy walk ================= */

static void prefetch_backing(Sim *s, i64 addr) {
    if (cache_contains(&s->c[C_LLC], addr)) return;
    cache_fill(&s->c[C_LLC], addr, 1, 0);
    dram_access(s, addr, 0);
    s->stalls[ST_BE_DRAM] += s->pd[PD_PF_DRAM];
}

static void l1_prefetch_backing(Sim *s, i64 addr) {
    if (cache_contains(&s->c[C_L2], addr)) return;
    prefetch_backing(s, addr);
    cache_fill(&s->c[C_L2], addr, 1, 0);
}

static void spf_observe(Sim *s, i64 addr) {
    i64 line = addr >> 6;
    i64 page = addr >> 12;
    int n = (int)s->si[SI_SPF_CNT];
    int idx = -1;
    for (int k = 0; k < n; k++)
        if (s->spf_page[k] == page) { idx = k; break; }
    if (idx >= 0) {
        i64 last = s->spf_line[idx];
        if (line == last + 1 || line == last + 2) {
            i64 page_last_line = (((page + 1) << 12) - 1) >> 6;
            for (int d = 1; d <= (int)s->pi[PI_SPF_DEG]; d++) {
                i64 pl = line + d;
                if (pl > page_last_line) { s->si[SI_L2PF_PB]++; break; }
                i64 pa = pl << 6;
                if (!cache_contains(&s->c[C_L2], pa)) {
                    prefetch_backing(s, pa);
                    cache_fill(&s->c[C_L2], pa, 1, 0);
                    s->si[SI_L2PF_ISS]++;
                }
            }
        }
        s->spf_line[idx] = line;
    } else {
        if (n >= (int)s->pi[PI_SPF_MAX]) {
            memmove(&s->spf_page[0], &s->spf_page[1],
                    (size_t)(n - 1) * sizeof(i64));
            memmove(&s->spf_line[0], &s->spf_line[1],
                    (size_t)(n - 1) * sizeof(i64));
            n--;
        }
        s->spf_page[n] = page;
        s->spf_line[n] = line;
        s->si[SI_SPF_CNT] = n + 1;
    }
}

/* NextLinePrefetcher.observe; which = 1 -> L1d (backing fetch), 0 -> L1i */
static void nlp_observe(Sim *s, i64 addr, int which) {
    CacheS *target = which ? &s->c[C_L1D] : &s->c[C_L1I];
    i64 *last = which ? &s->si[SI_L1DPF_LAST] : &s->si[SI_L1IPF_LAST];
    i64 line = addr >> 6;
    if (line == *last) return;
    *last = line;
    i64 nl = line + 1;
    if (((nl << 6) >> 12) != (addr >> 12)) {
        s->si[which ? SI_L1DPF_PB : SI_L1IPF_PB]++;
        return;
    }
    i64 na = nl << 6;
    if (!cache_contains(target, na)) {
        if (which) l1_prefetch_backing(s, na);
        cache_fill(target, na, 1, 0);
        s->si[which ? SI_L1DPF_ISS : SI_L1IPF_ISS]++;
    }
}

/* L2 -> LLC -> DRAM walk with fills; returns service level (2/3/4). */
static int fill_from_l2(Sim *s, i64 addr, int is_code, int w) {
    if (cache_access(&s->c[C_L2], addr, w)) return 2;
    if (!is_code) spf_observe(s, addr);
    if (s->llc_slices) {
        /* SharedLlc.access: count the epoch total and the slice-hashed
         * bucket before the underlying cache lookup.  Demand only —
         * prefetch_backing bypasses this, exactly like the Python model
         * (prefetches use llc.contains/fill directly). */
        s->llc_epoch[0]++;
        s->llc_epoch[1 + (i64)((u64)(addr >> 6) % (u64)s->llc_slices)]++;
    }
    if (cache_access(&s->c[C_LLC], addr, w)) {
        cache_fill(&s->c[C_L2], addr, 0, 0);
        return 3;
    }
    cache_fill(&s->c[C_LLC], addr, 0, 0);
    cache_fill(&s->c[C_L2], addr, 0, 0);
    dram_access(s, addr, w);
    return 4;
}

/* ================= loop-predictor hash ================= */
/* open addressing, EMPTY = -1, TOMBSTONE = -2 */

static int lp_find(Sim *s, i64 pc) {
    i64 mask = s->pi[PI_LP_HMASK];
    u64 h = vm_mix(pc) & (u64)mask;
    while (s->lp_hkey[h] != -1) {
        if (s->lp_hkey[h] == pc) return (int)s->lp_hval[h];
        h = (h + 1) & (u64)mask;
    }
    return -1;
}

static void lp_hash_insert(Sim *s, i64 pc, int32_t slot) {
    i64 mask = s->pi[PI_LP_HMASK];
    u64 h = vm_mix(pc) & (u64)mask;
    while (s->lp_hkey[h] != -1 && s->lp_hkey[h] != -2)
        h = (h + 1) & (u64)mask;
    if (s->lp_hkey[h] == -2) s->si[SI_LP_TOMB]--;
    s->lp_hkey[h] = pc;
    s->lp_hval[h] = slot;
}

static void lp_hash_delete(Sim *s, i64 pc) {
    i64 mask = s->pi[PI_LP_HMASK];
    u64 h = vm_mix(pc) & (u64)mask;
    while (s->lp_hkey[h] != -1) {
        if (s->lp_hkey[h] == pc) {
            s->lp_hkey[h] = -2;
            s->si[SI_LP_TOMB]++;
            return;
        }
        h = (h + 1) & (u64)mask;
    }
}

static void lp_hash_rebuild(Sim *s) {
    i64 mask = s->pi[PI_LP_HMASK];
    for (i64 i = 0; i <= mask; i++) s->lp_hkey[i] = -1;
    s->si[SI_LP_TOMB] = 0;
    for (int k = 0; k < (int)s->si[SI_LP_CNT]; k++) {
        int32_t slot = s->lp_order[k];
        lp_hash_insert(s, s->lp_slab[(i64)slot * 4], slot);
    }
}

/* ================= branch unit ================= */

static void resolve_branch(Sim *s, i64 pc, i64 target, int taken,
                           int *mispredict, int *btb_miss) {
    s->si[SI_BU_BR]++;
    int slot = lp_find(s, pc);
    int has_pred = 0, predicted = 0;
    i64 *e = slot >= 0 ? &s->lp_slab[(i64)slot * 4] : 0;
    if (e && e[3] >= 2) {
        has_pred = 1;
        predicted = e[2] + 1 < e[1];
    }
    if (taken && target <= pc && !e) {
        /* LoopPredictor.allocate */
        int n = (int)s->si[SI_LP_CNT];
        int32_t free_slot;
        if (n >= (int)s->pi[PI_LP_MAX]) {
            free_slot = s->lp_order[0];
            lp_hash_delete(s, s->lp_slab[(i64)free_slot * 4]);
            memmove(&s->lp_order[0], &s->lp_order[1],
                    (size_t)(n - 1) * sizeof(int32_t));
            n--;
        } else {
            free_slot = (int32_t)n;
        }
        e = &s->lp_slab[(i64)free_slot * 4];
        e[0] = pc; e[1] = 0; e[2] = 1; e[3] = 0;
        s->lp_order[n] = free_slot;
        s->si[SI_LP_CNT] = n + 1;
        lp_hash_insert(s, pc, free_slot);
        if (s->si[SI_LP_TOMB] * 4 > s->pi[PI_LP_HMASK] + 1)
            lp_hash_rebuild(s);
    }
    if (e) {
        /* LoopPredictor.update */
        if (taken) {
            e[2]++;
            if (e[1] && e[2] > e[1] + 1) e[3] = 0;
        } else {
            i64 trips = e[2] + 1;
            if (e[1] == trips) {
                e[3] = e[3] + 1 < 3 ? e[3] + 1 : 3;
            } else {
                e[1] = trips;
                e[3] = 0;
            }
            e[2] = 0;
        }
    }
    /* gshare */
    i64 key = pc >> 2;
    i64 idx = (key ^ s->si[SI_GS_HIST]) & s->pi[PI_GS_MASK];
    int ctr = s->gs_pres[idx] ? s->gs_val[idx] : 1;
    if (!has_pred) predicted = ctr >= 2;
    if (taken) {
        if (ctr < 3) { s->gs_val[idx] = (int8_t)(ctr + 1); s->gs_pres[idx] = 1; }
    } else if (ctr > 0) {
        s->gs_val[idx] = (int8_t)(ctr - 1);
        s->gs_pres[idx] = 1;
    }
    if (s->pi[PI_HIST_BITS])
        s->si[SI_GS_HIST] = ((s->si[SI_GS_HIST] << 1) | (i64)(taken != 0))
            & s->pi[PI_HIST_MASK];
    *mispredict = predicted != taken;
    *btb_miss = 0;
    if (taken) {
        s->si[SI_BU_TK]++;
        i64 base = (key & s->pi[PI_BTB_MASK]) * s->pi[PI_BTB_WAYS];
        int32_t n = s->btb_cnt[key & s->pi[PI_BTB_MASK]];
        int j = -1;
        for (int k = n - 1; k >= 0; k--)
            if (s->btb_key[base + k] == key) { j = k; break; }
        if (j < 0) {
            *btb_miss = 1;
            s->si[SI_BU_BTBM]++;
            if (n >= (int)s->pi[PI_BTB_WAYS]) {
                memmove(&s->btb_key[base], &s->btb_key[base + 1],
                        (size_t)(n - 1) * sizeof(i64));
                memmove(&s->btb_tgt[base], &s->btb_tgt[base + 1],
                        (size_t)(n - 1) * sizeof(i64));
                n--;
            }
            s->btb_key[base + n] = key;
            s->btb_tgt[base + n] = target;
            s->btb_cnt[key & s->pi[PI_BTB_MASK]] = n + 1;
        } else {
            i64 known = s->btb_tgt[base + j];
            if (j != n - 1) {                  /* lookup promotes to MRU */
                memmove(&s->btb_key[base + j], &s->btb_key[base + j + 1],
                        (size_t)(n - 1 - j) * sizeof(i64));
                memmove(&s->btb_tgt[base + j], &s->btb_tgt[base + j + 1],
                        (size_t)(n - 1 - j) * sizeof(i64));
                s->btb_key[base + n - 1] = key;
                s->btb_tgt[base + n - 1] = known;
                j = n - 1;
            }
            if (known != target) {
                *btb_miss = 1;
                s->si[SI_BU_BTBM]++;
            }
            s->btb_tgt[base + j] = target;     /* insert updates in place */
        }
    }
    if (*mispredict) s->si[SI_BU_MIS]++;
}

/* ================= per-op bodies ================= */

static void op_fetch(Sim *s, i64 pc, i64 n_bytes, f64 uops) {
    i64 first_line = pc >> 6;
    i64 last_line = (pc + n_bytes - 1) >> 6;
    i64 dsb_hit_lines = 0;
    i64 n_lines = last_line - first_line + 1;
    for (i64 line = first_line; line <= last_line; line++) {
        if (line == s->si[SI_LAST_CODE_LINE]) { dsb_hit_lines++; continue; }
        s->si[SI_LAST_CODE_LINE] = line;
        i64 addr = line << 6;
        i64 page = addr >> 12;
        if (page != s->si[SI_LAST_CODE_PAGE]) {
            s->si[SI_LAST_CODE_PAGE] = page;
            if (thier_access(s, &s->t[T_ITLB], page) == 3) {
                s->si[SI_ITLB_WALK]++;
                s->stalls[ST_FE_ITLB] += s->pd[PD_ITLB_WALK];
                int fault = vm_touch(s, page);
                if (fault)
                    s->stalls[ST_FE_IFAULT] += fault == 2
                        ? s->pd[PD_MAJOR_FAULT] : s->pd[PD_MINOR_FAULT];
            }
        }
        if (cache_access(&s->c[C_L1I], addr, 0)) {
            nlp_observe(s, addr, 0);
        } else {
            int level = fill_from_l2(s, addr, 1, 0);
            cache_fill(&s->c[C_L1I], addr, 0, 0);
            s->stalls[ST_FE_ICACHE] += level == 2 ? s->pd[PD_ICACHE_L2]
                : level == 3 ? s->pd[PD_ICACHE_L3] : s->pd[PD_ICACHE_DRAM];
            nlp_observe(s, addr, 0);
        }
        if (cache_access(&s->c[C_DSB], addr, 0)) dsb_hit_lines++;
        else cache_fill(&s->c[C_DSB], addr, 0, 0);
    }
    if (n_lines && dsb_hit_lines < n_lines) {
        f64 mite_frac = 1.0 - (f64)dsb_hit_lines / (f64)n_lines;
        f64 deficit = (uops * mite_frac) * s->pd[PD_MITE_COEFF];
        if (deficit > 0) s->stalls[ST_FE_MITE_BW] += deficit;
    }
}

static void op_mem(Sim *s, i64 addr, int w) {
    s->si[SI_INSTR]++;
    if (s->si[SI_KMODE]) s->si[SI_KINSTR]++;
    s->sd[SD_UOPS] += 1.0;
    s->sd[SD_IDEAL] += s->pd[PD_INV_WIDTH];
    if (w) s->si[SI_STORES]++; else s->si[SI_LOADS]++;
    i64 vpn = addr >> 12;
    if (vpn != s->si[SI_LAST_DATA_VPN]) {
        s->si[SI_LAST_DATA_VPN] = vpn;
        if (thier_access(s, &s->t[T_DTLB], vpn) == 3) {
            if (w) s->si[SI_DTLB_SWALK]++; else s->si[SI_DTLB_LWALK]++;
            s->stalls[ST_BE_DTLB] += s->pd[PD_DTLB_WALK];
            int fault = vm_touch(s, vpn);
            if (fault)
                s->stalls[ST_BE_DFAULT] += fault == 2
                    ? s->pd[PD_MAJOR_FAULT] : s->pd[PD_MINOR_FAULT];
        }
    }
    if (cache_access(&s->c[C_L1D], addr, w)) {
        nlp_observe(s, addr, 1);
        if (!w) s->stalls[ST_BE_L1] += s->pd[PD_L1_HIT];
        return;
    }
    int level = fill_from_l2(s, addr, 0, w);
    cache_fill(&s->c[C_L1D], addr, 0, w);
    nlp_observe(s, addr, 1);
    if (w) {
        if (level >= 3) s->stalls[ST_BE_STORE] += s->pd[PD_STORE_PEN];
        return;
    }
    if (level == 2) s->stalls[ST_BE_L2] += s->pd[PD_BE_L2];
    else if (level == 3) s->stalls[ST_BE_L3] += s->pd[PD_BE_L3];
    else s->stalls[ST_BE_DRAM] += s->pd[PD_BE_DRAM];
}

/* ================= main loop ================= */
/* returns: 0 chunk done, 1 limit hit, 2 vm hash near-full (paused),
 *          3 cycle-hook due (trampoline to Python), -1 bad */

i64 repro_sim_run(void **p, i64 start, i64 n_ops, i64 limit) {
    Sim sim, *s = &sim;
    s->kinds = (i64 *)p[P_KINDS];
    s->a0 = (i64 *)p[P_A0];
    s->a1 = (i64 *)p[P_A1];
    s->a2 = (i64 *)p[P_A2];
    s->evidx = (i64 *)p[P_EVIDX];
    s->evcyc = (f64 *)p[P_EVCYC];
    s->si = (i64 *)p[P_SI];
    s->sd = (f64 *)p[P_SD];
    s->pd = (const f64 *)p[P_PD];
    s->pi = (i64 *)p[P_PI];
    for (int k = 0; k < 5; k++) {
        CacheS *c = &s->c[k];
        c->tags = (i64 *)p[P_CACHE0 + k * 4];
        c->flags = (uint8_t *)p[P_CACHE0 + k * 4 + 1];
        c->cnt = (int32_t *)p[P_CACHE0 + k * 4 + 2];
        c->st = (i64 *)p[P_CACHE0 + k * 4 + 3];
        c->mask = s->pi[PI_CACHE0 + k * 4];
        c->ways = (int32_t)s->pi[PI_CACHE0 + k * 4 + 1];
        c->lru = (int32_t)s->pi[PI_CACHE0 + k * 4 + 2];
        c->evict_head = (int32_t)s->pi[PI_CACHE0 + k * 4 + 3];
        c->rand_state = &s->si[SI_RAND0 + k];
    }
    for (int k = 0; k < 3; k++) {
        TlbS *t = &s->t[k];
        t->vpns = (i64 *)p[P_TLB0 + k * 3];
        t->cnt = (int32_t *)p[P_TLB0 + k * 3 + 1];
        t->st = (i64 *)p[P_TLB0 + k * 3 + 2];
        t->mask = s->pi[PI_TLB0 + k * 2];
        t->ways = (int32_t)s->pi[PI_TLB0 + k * 2 + 1];
    }
    s->gs_val = (int8_t *)p[P_GS_VAL];
    s->gs_pres = (uint8_t *)p[P_GS_PRES];
    s->lp_slab = (i64 *)p[P_LP_SLAB];
    s->lp_order = (int32_t *)p[P_LP_ORDER];
    s->lp_hkey = (i64 *)p[P_LP_HKEY];
    s->lp_hval = (int32_t *)p[P_LP_HVAL];
    s->btb_key = (i64 *)p[P_BTB_KEY];
    s->btb_tgt = (i64 *)p[P_BTB_TGT];
    s->btb_cnt = (int32_t *)p[P_BTB_CNT];
    s->spf_page = (i64 *)p[P_SPF_PAGE];
    s->spf_line = (i64 *)p[P_SPF_LINE];
    s->dram_rows = (i64 *)p[P_DRAM_ROWS];
    s->dram_st = (i64 *)p[P_DRAM_ST];
    s->vm_hash = (i64 *)p[P_VM_HASH];
    s->vm_log = (i64 *)p[P_VM_LOG];
    s->vm_ranges = (const i64 *)p[P_VM_RANGES];
    s->llc_epoch = (i64 *)p[P_LLC_EPOCH];
    s->llc_slices = s->pi[PI_LLC_SLICES];
    s->stalls = &s->sd[SD_ST0];
    s->si[SI_EV_N] = 0;
    int hook_on = s->sd[SD_NEXT_HOOK] < __builtin_inf();

    i64 vm_cap = s->pi[PI_VM_HMASK] + 1;
    for (i64 i = start; i < n_ops; i++) {
        i64 kind = s->kinds[i];
        /* keep the vm hash under half load; pause for a Python-side
         * grow before any op that could overflow the safety margin */
        i64 vm_margin = 4;
        if (kind == OP_BLOCK)
            vm_margin += ((s->a2[i] & 0xFFFFFFFFll) >> 6) + 2;
        if ((s->si[SI_VM_CNT] + vm_margin) * 2 > vm_cap) {
            s->si[SI_NEXT_POS] = i;
            return 2;
        }
        if (kind < OP_BLOCK || kind > OP_EVENT) {
            s->si[SI_NEXT_POS] = i;
            return -1;
        }
        /* Retirement telemetry: counted before dispatch so every exit
         * that advances past op i (DONE, LIMIT, HOOK — all at i+1) has
         * it on the books, while pauses that re-enter AT i (VM_FULL)
         * and the bad-kind bail above never double- or under-count.
         * Two aligned int64 increments; a Python thread may read them
         * mid-run (the ctypes call releases the GIL) for live
         * progress — the read is tear-free on every target ABI. */
        s->si[SI_OPS_RETIRED]++;
        s->si[SI_OPK0 + kind]++;
        if (kind == OP_LOAD) {
            op_mem(s, s->a0[i], 0);
        } else if (kind == OP_STORE) {
            op_mem(s, s->a0[i], 1);
        } else if (kind == OP_BLOCK) {
            i64 packed = s->a2[i];
            i64 n_instr = s->a1[i];
            i64 kern = packed >> 32;
            s->si[SI_KMODE] = kern;
            s->si[SI_INSTR] += n_instr;
            if (kern) s->si[SI_KINSTR] += n_instr;
            f64 uops = (f64)n_instr * s->pd[PD_UOP_FACTOR];
            s->sd[SD_UOPS] += uops;
            s->sd[SD_IDEAL] += uops / s->pd[PD_WIDTH];
            op_fetch(s, s->a0[i], packed & 0xFFFFFFFFll, uops);
            if (s->pd[PD_PORTS_ON] != 0.0)
                s->stalls[ST_BE_PORTS] += uops * s->pd[PD_PORTS_COEFF];
            if (s->pd[PD_DIV_FRAC] != 0.0)
                s->stalls[ST_BE_DIV] +=
                    ((f64)n_instr * s->pd[PD_DIV_FRAC]) * s->pd[PD_DIV_PEN];
            if (s->pd[PD_MICRO_FRAC] != 0.0)
                s->stalls[ST_FE_MS] +=
                    ((f64)n_instr * s->pd[PD_MICRO_FRAC]) * s->pd[PD_MS_PEN];
            if (hook_on) {
                /* _op_block's hook threshold: ideal + the ordered sum
                 * of all 17 stall buckets (dict order), checked after
                 * the block's stall accounting and BEFORE the limit —
                 * a single `if`, exactly like the legacy path.  The
                 * Python trampoline writes state back, runs the hook,
                 * then re-enters from NEXT_POS. */
                f64 acc = 0.0;
                for (int k = 0; k < 17; k++) acc += s->stalls[k];
                if (s->sd[SD_IDEAL] + acc >= s->sd[SD_NEXT_HOOK]) {
                    s->sd[SD_NEXT_HOOK] += s->pd[PD_HOOK_INTERVAL];
                    s->si[SI_NEXT_POS] = i + 1;
                    return 3;
                }
            }
            if (limit >= 0 && s->si[SI_INSTR] >= limit) {
                s->si[SI_NEXT_POS] = i + 1;
                return 1;
            }
        } else if (kind == OP_BRANCH) {
            s->si[SI_INSTR]++;
            if (s->si[SI_KMODE]) s->si[SI_KINSTR]++;
            s->si[SI_BRANCHES]++;
            s->sd[SD_UOPS] += 1.0;
            s->sd[SD_IDEAL] += s->pd[PD_INV_WIDTH];
            int mis, btbm;
            resolve_branch(s, s->a0[i], s->a1[i], s->a2[i] != 0,
                           &mis, &btbm);
            if (mis) s->stalls[ST_BAD_SPEC] += s->pd[PD_MIS_PEN];
            if (btbm) s->stalls[ST_FE_RESTEER] += s->pd[PD_RESTEER_PEN];
            if (s->a2[i] != 0)
                s->stalls[ST_FE_DSB_BW] += s->pd[PD_TAKEN_BUBBLE];
        } else if (kind == OP_EVENT) {
            /* JIT-metadata side effects are delegated away by the glue
             * (machines with the SVIII flags never reach this kernel);
             * the only observable here is the hook log with the exact
             * cycle stamp Python's `sum(stalls.values())` would give. */
            f64 acc = 0.0;
            for (int k = 0; k < 17; k++) acc += s->stalls[k];
            i64 n = s->si[SI_EV_N];
            s->evidx[n] = i;
            s->evcyc[n] = s->sd[SD_IDEAL] + acc;
            s->si[SI_EV_N] = n + 1;
        }
    }
    s->si[SI_NEXT_POS] = n_ops;
    return 0;
}

/* expression parity helper: 1.0 - hit/total as Python evaluates it */
f64 repro_abi_version(void) { return 10.0; }
