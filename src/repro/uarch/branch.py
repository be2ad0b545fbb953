"""Branch prediction: a gshare direction predictor plus a set-associative BTB.

Both structures are indexed by program-counter bits, which is exactly why
the paper finds JIT compilation so punishing: when the CLR emits (or
re-tiers) a method at a fresh virtual address, all the predictor state the
old address had accumulated becomes unreachable and the new PCs start from
cold counters.  We model that faithfully — there is no "JIT penalty knob";
the mispredicts after a JIT event fall out of the PC indexing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BranchStats:
    branches: int = 0
    mispredicts: int = 0          # direction mispredicts
    btb_misses: int = 0           # taken branches with no BTB target (re-steers)
    taken: int = 0

    def snapshot(self) -> "BranchStats":
        return BranchStats(self.branches, self.mispredicts,
                           self.btb_misses, self.taken)

    @property
    def mpki_numerator(self) -> int:
        return self.mispredicts


class GsharePredictor:
    """Global-history XOR PC indexed table of 2-bit saturating counters.

    ``history_bits=0`` degenerates to a per-PC bimodal predictor — the
    default machine configuration, because the synthetic workloads draw
    branch outcomes i.i.d. per branch (real cross-branch history
    correlation does not exist in generated code, so feeding noise history
    into the index would only destroy PC locality).  The JIT cold-start
    phenomenon the paper studies needs only PC indexing, which bimodal
    preserves.
    """

    __slots__ = ("bits", "_mask", "_table", "_history", "history_bits")

    def __init__(self, table_bits: int = 14, history_bits: int = 0) -> None:
        self.bits = table_bits
        self._mask = (1 << table_bits) - 1
        # dict-backed table: only touched entries materialize, which keeps
        # construction O(1) and lookup fast for the footprints we simulate.
        self._table: dict[int, int] = {}
        self._history = 0
        self.history_bits = history_bits

    def predict(self, pc: int) -> bool:
        idx = ((pc >> 2) ^ self._history) & self._mask
        return self._table.get(idx, 1) >= 2     # weakly-not-taken default

    def update(self, pc: int, taken: bool) -> None:
        idx = ((pc >> 2) ^ self._history) & self._mask
        ctr = self._table.get(idx, 1)
        if taken:
            if ctr < 3:
                self._table[idx] = ctr + 1
        else:
            if ctr > 0:
                self._table[idx] = ctr - 1
        if self.history_bits:
            self._history = ((self._history << 1) | int(taken)) \
                & ((1 << self.history_bits) - 1)


class Btb:
    """Branch Target Buffer: set-associative, PC-indexed, LRU."""

    __slots__ = ("entries", "ways", "n_sets", "_index_mask", "_sets")

    def __init__(self, entries: int = 4096, ways: int = 4) -> None:
        n_sets = entries // ways
        if n_sets & (n_sets - 1):
            raise ValueError("BTB set count must be a power of two")
        self.entries = entries
        self.ways = ways
        self.n_sets = n_sets
        self._index_mask = n_sets - 1
        self._sets: list[list[list[int]]] = [[] for _ in range(n_sets)]

    def lookup(self, pc: int) -> int | None:
        key = pc >> 2
        bucket = self._sets[key & self._index_mask]
        for i, entry in enumerate(bucket):
            if entry[0] == key:
                if i != len(bucket) - 1:
                    bucket.append(bucket.pop(i))
                return entry[1]
        return None

    def insert(self, pc: int, target: int) -> None:
        key = pc >> 2
        bucket = self._sets[key & self._index_mask]
        for entry in bucket:
            if entry[0] == key:
                entry[1] = target
                return
        if len(bucket) >= self.ways:
            bucket.pop(0)
        bucket.append([key, target])


class LoopPredictor:
    """Trip-count predictor for backward (loop) branches.

    Modern frontends (Intel's loop stream detector + TAGE-L) predict loop
    exits once the trip count has been observed; without this, every loop
    would charge one mispredict per execution, drowning the real
    control-flow signal.  State per loop PC: [learned_trips, current_run,
    confidence].
    """

    __slots__ = ("_table", "max_entries")

    def __init__(self, max_entries: int = 256) -> None:
        self._table: dict[int, list[int]] = {}
        self.max_entries = max_entries

    def predict(self, pc: int) -> bool | None:
        """Prediction for a tracked loop PC, or None if not confident."""
        entry = self._table.get(pc)
        if entry is None or entry[2] < 2:
            return None
        return entry[1] + 1 < entry[0]      # taken unless this is the exit

    def allocate(self, pc: int) -> None:
        """Start tracking a PC (first backward-taken observation)."""
        if pc in self._table:
            return
        if len(self._table) >= self.max_entries:
            self._table.pop(next(iter(self._table)))
        self._table[pc] = [0, 1, 0]

    def update(self, pc: int, taken: bool) -> None:
        """Feed an outcome for a *tracked* PC (any direction).

        A PC's dynamic stream can mix loop backedges with its block's
        final (possibly forward) branch; the trip count only learns when
        runs of taken end in a not-taken, and loses confidence otherwise.
        """
        entry = self._table.get(pc)
        if entry is None:
            return
        if taken:
            entry[1] += 1
            if entry[0] and entry[1] > entry[0] + 1:
                entry[2] = 0            # run overshot the learned trips
            return
        trips = entry[1] + 1
        if entry[0] == trips:
            entry[2] = min(entry[2] + 1, 3)
        else:
            entry[0] = trips
            entry[2] = 0
        entry[1] = 0


class BranchUnit:
    """Combined direction predictor + loop predictor + BTB.

    :meth:`resolve` is called once per executed branch and returns
    ``(direction_mispredict, btb_miss)`` so the pipeline can charge bad
    speculation and frontend re-steer stalls respectively.
    """

    def __init__(self, table_bits: int = 14, history_bits: int = 0,
                 btb_entries: int = 4096, btb_ways: int = 4) -> None:
        self.predictor = GsharePredictor(table_bits, history_bits)
        self.loop_predictor = LoopPredictor()
        self.btb = Btb(btb_entries, btb_ways)
        self.stats = BranchStats()

    def resolve(self, pc: int, taken: bool, target: int) -> tuple[bool, bool]:
        st = self.stats
        st.branches += 1
        lp = self.loop_predictor
        predicted = lp.predict(pc)
        if taken and target <= pc:           # backward-taken: loop backedge
            lp.allocate(pc)
        lp.update(pc, taken)
        if predicted is None:
            predicted = self.predictor.predict(pc)
        self.predictor.update(pc, taken)
        mispredict = predicted != taken
        btb_miss = False
        if taken:
            st.taken += 1
            known_target = self.btb.lookup(pc)
            if known_target is None:
                btb_miss = True
                st.btb_misses += 1
            elif known_target != target:
                # Indirect branch whose target changed: counts as a re-steer.
                btb_miss = True
                st.btb_misses += 1
            self.btb.insert(pc, target)
        if mispredict:
            st.mispredicts += 1
        return mispredict, btb_miss

    def reset_stats(self) -> None:
        self.stats = BranchStats()

    # -- §VIII extension: software-driven state transformation ---------
    def transform_range(self, old_base: int, new_base: int,
                        size: int) -> int:
        """Remap PC-indexed predictor state from a moved code range.

        Implements the paper's proposal: "meta-data can also be used to
        either preserve or transform the microarchitectural state of the
        machine (such as branch predictor tables) related to these pages
        to reduce the effect of cold starts."  Returns the number of
        entries moved.
        """
        delta = new_base - old_base
        if delta == 0 or size <= 0:
            return 0
        moved = 0
        # Direction counters (PC-indexed when history_bits == 0).
        table = self.predictor._table
        mask = self.predictor._mask
        for off in range(0, size, 4):
            old_idx = ((old_base + off) >> 2) & mask
            ctr = table.pop(old_idx, None)
            if ctr is not None:
                table[((new_base + off) >> 2) & mask] = ctr
                moved += 1
        # BTB entries: rewrite tags, and shift targets inside the range.
        old_lo, old_hi = old_base, old_base + size
        relocated: list[tuple[int, int]] = []
        for bucket in self.btb._sets:
            for i in range(len(bucket) - 1, -1, -1):
                pc = bucket[i][0] << 2
                if old_lo <= pc < old_hi:
                    target = bucket[i][1]
                    if old_lo <= target < old_hi:
                        target += delta
                    relocated.append((pc + delta, target))
                    bucket.pop(i)
                    moved += 1
        for pc, target in relocated:
            self.btb.insert(pc, target)
        # Loop-predictor trip counts.
        lp = self.loop_predictor._table
        for pc in [p for p in lp if old_lo <= p < old_hi]:
            lp[pc + delta] = lp.pop(pc)
            moved += 1
        return moved
