"""Multi-core model: shared sliced LLC with port/NoC contention.

Implements the substrate behind Figs 11-12: as ASP.NET scales across
cores, per-core LLC MPKI stays roughly flat but LLC *access latency*
climbs because of contention at LLC slice ports and in the NoC — which the
Top-Down profile then reports as a growing L3-bound component.

The contention model is a per-epoch M/M/1 approximation: cores run
interleaved in fixed instruction quanta; after each round the shared LLC
recomputes the expected queueing delay from the aggregate request rate per
slice over that round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.vm import VirtualMemory
from repro.trace import TraceBufferStream
from repro.uarch.cache import Cache
from repro.uarch.machine import MachineConfig
from repro.uarch.pipeline import Core


class SharedLlc:
    """A shared last-level cache with slice hashing and contention.

    ``extra_latency`` is the current queueing + NoC delay added to every
    LLC access; it is refreshed from observed traffic by
    :meth:`update_contention`.
    """

    MAX_QUEUE_FACTOR = 8.0

    def __init__(self, machine: MachineConfig) -> None:
        m = machine
        llc = m.sim_cache(m.llc)
        self.cache = Cache("LLC", llc.size_bytes, llc.line_size, llc.ways)
        self.n_slices = m.llc_slices
        self.noc_hop_latency = m.noc_hop_latency
        self.service_rate = m.llc_port_service_rate
        self.base_latency = m.llc.latency
        #: §VIII extension: "hashed" queues on the hottest slice (address
        #: hashing concentrates hot lines); "balanced" models metadata-
        #: driven placement that spreads hot data and localizes it near
        #: the owning core (shorter NoC paths).
        self.placement = m.llc_placement
        self.extra_latency = 0.0
        self._accesses_this_epoch = 0
        self.slice_accesses = [0] * self.n_slices
        self.active_cores = 1
        #: native images attached to the cores sharing this LLC, owner
        #: first (see repro.uarch.native.CoreImage); None when detached
        self._native_group = None

    def __getstate__(self) -> dict:
        group = self._native_group
        if group:                   # never pickle structures left in C
            group[0].core.sync_native()
        return self.__dict__

    def access(self, addr: int, core_id: int, is_write: bool = False) -> bool:
        self._accesses_this_epoch += 1
        self.slice_accesses[(addr >> 6) % self.n_slices] += 1
        return self.cache.access(addr, is_write)

    def update_contention(self, epoch_cycles: float,
                          active_cores: int) -> None:
        """Recompute ``extra_latency`` from the last epoch's traffic.

        ``epoch_cycles`` is the mean per-core cycle count of the epoch —
        since the cores run concurrently, the aggregate arrival rate per
        slice is total accesses / (slices * epoch_cycles).
        """
        self.active_cores = active_cores
        if epoch_cycles <= 0:
            return
        mean_arrival = self._accesses_this_epoch / (self.n_slices
                                                    * epoch_cycles)
        if self.placement == "balanced":
            # Placement-aware distribution: load spreads evenly and hot
            # data is homed near its consumer (shorter NoC paths).
            arrival = mean_arrival
            noc_factor = 0.6
        else:
            # Address hashing: hot-line concentration makes the loaded
            # slices pace the queueing (imbalance factor, capped).
            per_slice = self._accesses_this_epoch / self.n_slices
            hottest = max(self.slice_accesses, default=0)
            imbalance = min(2.0, hottest / per_slice) if per_slice else 1.0
            arrival = mean_arrival * imbalance
            noc_factor = 1.0
        # An LLC slice port serves one request per `1/service_rate` cycles;
        # each request also occupies the slice's bank for ~9 cycles, so
        # queueing builds quickly once several cores stream requests.
        rho = min(0.95, arrival * 9.0 / self.service_rate)
        queue_delay = 9.0 * rho / (1.0 - rho)
        queue_delay = min(queue_delay, self.base_latency
                          * self.MAX_QUEUE_FACTOR)
        # NoC: average hop count and link sharing grow with the number of
        # active cores on the mesh.
        noc_delay = self.noc_hop_latency * noc_factor \
            * (active_cores ** 0.75)
        self.extra_latency = queue_delay + noc_delay
        self._accesses_this_epoch = 0
        self.slice_accesses = [0] * self.n_slices

    @property
    def effective_latency(self) -> float:
        return self.base_latency + self.extra_latency


@dataclass
class MulticoreResult:
    """Outputs of a multicore run."""

    cores: list[Core]
    llc: SharedLlc
    epochs: int
    #: filled by run_multicore(sampling=True): core 0's sampled timeline
    samples: object | None = None

    @property
    def total_instructions(self) -> int:
        return sum(c.counts.instructions for c in self.cores)

    @property
    def mean_cycles(self) -> float:
        return sum(c.cycles for c in self.cores) / len(self.cores)

    def per_core_llc_mpki(self) -> float:
        """Mean per-core LLC demand MPKI (Fig 12's flat line)."""
        misses = self.llc.cache.stats.demand_misses
        instr = self.total_instructions
        return misses / instr * 1000 if instr else 0.0


class MulticoreRunner:
    """Interleaves N per-core op streams against one shared LLC.

    Each core gets its own :class:`VirtualMemory` (separate process images
    would share kernel text; for simplicity each core's stream includes
    its own kernel activity) and its own stream factory — a callable
    ``(core_id) -> (source, WorkloadHints)`` where ``source`` is a
    :class:`~repro.trace.TraceBufferStream` or an op-tuple iterable
    (wrapped in one).  The stream keeps a resume position, so each
    quantum continues where the core's previous one stopped.
    """

    def __init__(self, machine: MachineConfig, n_cores: int,
                 stream_factory, epoch_instructions: int = 4000,
                 engine: str = "batched") -> None:
        self.machine = machine
        self.n_cores = n_cores
        self.llc = SharedLlc(machine)
        self.epoch_instructions = epoch_instructions
        self.engine = engine
        self.cores: list[Core] = []
        self._streams = []
        for core_id in range(n_cores):
            vm = VirtualMemory()
            core = Core(machine, vm, shared_llc=self.llc, core_id=core_id)
            source, hints = stream_factory(core_id)
            core.set_hints(hints)
            self.cores.append(core)
            if not isinstance(source, TraceBufferStream):
                source = TraceBufferStream(ops=source)
            self._streams.append(source)

    def _open_session(self):
        """A native multicore session for ``engine="vector"``, or None.

        The session (see :class:`repro.uarch.native.NativeMulticoreSession`)
        runs each quantum on the cores' attached kernel images, which
        stay resident across quanta and later ``run`` calls — the shared
        LLC is aliased into every image and the Python contention model
        runs unchanged at epoch boundaries.  Call ``core.sync_native()``
        before reading a core's caches or predictors after a run.  Any
        disqualifying configuration (kernel unavailable, non-nativizable
        core) falls back to the per-quantum ``consume_stream`` path.
        """
        if self.engine != "vector":
            return None
        from repro.uarch import native
        return native.multicore_session(self.cores)

    def run(self, instructions_per_core: int) -> MulticoreResult:
        """Run all cores to ``instructions_per_core``, interleaved."""
        remaining = [instructions_per_core] * self.n_cores
        epochs = 0
        session = self._open_session()
        while any(r > 0 for r in remaining):
            cycles_before = [c.cycles for c in self.cores]
            progressed = False
            for i, core in enumerate(self.cores):
                if remaining[i] <= 0:
                    continue
                quantum = min(self.epoch_instructions, remaining[i])
                stream = self._streams[i]
                if session is not None:
                    done = session.consume(i, stream, quantum)
                else:
                    done = core.consume_stream(stream,
                                               max_instructions=quantum,
                                               engine=self.engine)
                remaining[i] -= done if done else remaining[i]
                if done:
                    progressed = True
            epoch_cycles = sum(c.cycles - b for c, b in
                               zip(self.cores, cycles_before)) \
                / self.n_cores
            if session is not None:
                session.sync_epoch()
            self.llc.update_contention(epoch_cycles, self.n_cores)
            if session is not None:
                session.refresh_contention()
            epochs += 1
            if not progressed:      # all streams exhausted early
                break
        return MulticoreResult(self.cores, self.llc, epochs)
