"""The benchmark's workloads: set-up, one timed pass, and the output check.

Every workload drives the public API (``repro.harness``,
``repro.core``) at ``Fidelity.default()`` on the i9 preset.  A *pass* is
one repetition of the workload's unit of work; ``run.py``
repeats passes for the requested number of seconds.  Calls go through
module attributes (``harness.run_workload``) so that the wrappers
installed by :mod:`tracing` see them.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass

from repro import harness
from repro.core import characterize, subset
from repro.exec.traces import TraceStore
from repro.harness import sweep as sweep_mod
from repro.uarch import machine as machines
from repro.workloads import aspnet_specs, dotnet_category_specs, speccpu_specs


@dataclass
class PassOutput:
    """What one pass produced: comparable results and the work done."""

    results: dict            # job key -> comparable output of that job
    instructions: int        # simulated instructions, all jobs and cores
    extra: tuple = ()        # pass-level outputs (analysis picks, ...)

    def same_as(self, other: "PassOutput") -> bool:
        return self.results == other.results and self.extra == other.extra


def _specs(names) -> list:
    registry = {s.name: s for s in (dotnet_category_specs() + aspnet_specs()
                                    + speccpu_specs())}
    return [registry[n] for n in names]


def _job_output(result) -> tuple:
    return (result.counters, result.topdown)


class SuiteCold:
    """``characterize_suite`` on the default engine with no stores."""

    name = "suite_cold"
    engine = None                   # resolve_engine(None)
    check_engine = "vector"
    #: small-footprint .NET categories, ASP.NET Json/Plaintext/Fortunes
    #: and the large-footprint SPEC programs
    SPECS = ("System.Runtime", "System.Linq", "System.Collections",
             "System.Text.Json", "System.Memory", "Json", "Plaintext",
             "DbFortunesRaw", "mcf", "xalancbmk")
    K = 4                           # representatives picked by the analysis

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed, "specs": _specs(self.SPECS),
                "machine": machines.i9_9980xe(),
                "fidelity": harness.Fidelity.default()}

    def inputs(self, state: dict) -> dict:
        return {"specs": [s.name for s in state["specs"]],
                "machine": state["machine"].name,
                "fidelity": dataclasses.asdict(state["fidelity"]),
                "jobs": 1, "store": None, "representatives": self.K}

    def run_pass(self, state: dict) -> PassOutput:
        suite = harness.characterize_suite(
            state["specs"], state["machine"], state["fidelity"],
            seed=state["seed"], jobs=1, store=None, on_error="skip")
        matrix = suite.metric_matrix()
        characterize.characterization_pca(matrix)
        scores = subset.pca_scores(matrix.values)
        reps = subset.select_representatives(matrix.names, scores, self.K,
                                             seed=state["seed"])
        return PassOutput(
            results={r.name: _job_output(r) for r in suite.results},
            instructions=sum(r.counters.instructions
                             for r in suite.results),
            extra=tuple(reps))

    def check(self, state: dict, out: PassOutput) -> tuple[str, bool]:
        spec = state["specs"][state["seed"] % len(state["specs"])]
        r = harness.run_workload(spec, state["machine"], state["fidelity"],
                                 seed=state["seed"],
                                 engine=self.check_engine)
        return spec.name, out.results.get(spec.name) == _job_output(r)


class SweepWarm:
    """``harness.sweep`` over an LLC x L2 grid, vector engine, warm traces."""

    name = "sweep_warm"
    engine = "vector"
    check_engine = None
    #: large to small footprint.  Each mcf job leaves ~70 MB of cyclic
    #: garbage until the collector runs; starting the pass with mcf, right
    #: after the collection every pass begins with, keeps the pass's peak
    #: memory from depending on the collector's phase (and so on the seed).
    SPECS = ("mcf", "Json", "System.Runtime")
    #: 12-way LLC sizes must divide by 64 x 12 after the /8 capacity scale
    LLC_MIB = (3, 6, 12, 24)
    L2_KIB = (256, 512, 1024, 2048)

    def setup(self, seed: int, workdir: str) -> dict:
        base = machines.i9_9980xe()
        fid = harness.Fidelity.default()
        specs = _specs(self.SPECS)
        axes = [
            sweep_mod.Axis("llc", tuple(
                dataclasses.replace(base.llc, size_bytes=mib << 20)
                for mib in self.LLC_MIB)),
            sweep_mod.Axis("l2", tuple(
                dataclasses.replace(base.l2, size_bytes=kib << 10)
                for kib in self.L2_KIB)),
        ]
        trace_dir = os.path.join(workdir, f"traces-{seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        store = TraceStore(trace_dir)
        for spec in specs:          # record each trace once
            harness.run_workload(spec, base, fid, seed=seed,
                                 trace_store=store, engine=self.engine)
        return {"seed": seed, "specs": specs, "machine": base,
                "fidelity": fid, "axes": axes, "trace_dir": trace_dir}

    def inputs(self, state: dict) -> dict:
        return {"specs": [s.name for s in state["specs"]],
                "machine": state["machine"].name,
                "fidelity": dataclasses.asdict(state["fidelity"]),
                "grid": {"llc_mib": list(self.LLC_MIB),
                         "l2_kib": list(self.L2_KIB)},
                "points": len(self.LLC_MIB) * len(self.L2_KIB)
                * len(self.SPECS),
                "engine": self.engine, "trace_store": "REPRO_TRACE_DIR"}

    def run_pass(self, state: dict) -> PassOutput:
        os.environ["REPRO_TRACE_DIR"] = state["trace_dir"]
        try:
            results = {}
            for spec in state["specs"]:
                grid = sweep_mod.sweep(spec, state["machine"], state["axes"],
                                       state["fidelity"], on_error="skip",
                                       seed=state["seed"],
                                       engine=self.engine)
                for (llc, l2), r in grid.results.items():
                    results[(spec.name, llc.size_bytes, l2.size_bytes)] = \
                        _job_output(r)
        finally:
            del os.environ["REPRO_TRACE_DIR"]
        return PassOutput(results=results, instructions=sum(
            c.instructions for c, _ in results.values()))

    def check(self, state: dict, out: PassOutput) -> tuple[str, bool]:
        seed = state["seed"]
        spec = state["specs"][seed % len(state["specs"])]
        llc = self.LLC_MIB[seed % len(self.LLC_MIB)]
        l2 = self.L2_KIB[(seed // len(self.LLC_MIB)) % len(self.L2_KIB)]
        base = state["machine"]
        point = dataclasses.replace(
            base, llc=dataclasses.replace(base.llc, size_bytes=llc << 20),
            l2=dataclasses.replace(base.l2, size_bytes=l2 << 10))
        r = harness.run_workload(spec, point, state["fidelity"], seed=seed,
                                 engine=self.check_engine)
        key = (spec.name, llc << 20, l2 << 10)
        return f"{spec.name}@llc={llc}MiB,l2={l2}KiB", \
            out.results.get(key) == _job_output(r)


class MulticoreSampled:
    """``run_multicore`` on ASP.NET Json, 4 cores, vector, sampler on."""

    name = "multicore_sampled"
    engine = "vector"
    check_engine = None
    SPEC = "Json"
    CORES = 4
    #: Fig 13's sampling interval: one HOOK trampoline exit per sample
    SAMPLE_INTERVAL = 5e-6

    def _run(self, state: dict, engine, store) -> tuple:
        return harness.run_multicore(
            state["spec"], state["machine"], self.CORES, state["fidelity"],
            seed=state["seed"], engine=engine, trace_store=store,
            sampling=True, sample_interval=self.SAMPLE_INTERVAL)

    def setup(self, seed: int, workdir: str) -> dict:
        trace_dir = os.path.join(workdir, f"mc-traces-{seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        state = {"seed": seed, "spec": _specs([self.SPEC])[0],
                 "machine": machines.i9_9980xe(),
                 "fidelity": harness.Fidelity.default(),
                 "store": TraceStore(trace_dir)}
        self._run(state, self.engine, state["store"])  # record per-core traces
        return state

    def inputs(self, state: dict) -> dict:
        return {"specs": [self.SPEC], "machine": state["machine"].name,
                "fidelity": dataclasses.asdict(state["fidelity"]),
                "cores": self.CORES, "sampling": True,
                "sample_interval_s": self.SAMPLE_INTERVAL,
                "engine": self.engine, "trace_store": "per-core, warm"}

    @staticmethod
    def _output(res) -> tuple:
        result, topdown, counters = res
        cores = tuple((c.counts.instructions, c.cycles)
                      for c in result.cores)
        samples = tuple(sorted((k, tuple(v)) for k, v in
                               result.samples.columns.items()))
        return counters, topdown, cores, result.epochs, samples

    def run_pass(self, state: dict) -> PassOutput:
        res = self._run(state, self.engine, state["store"])
        return PassOutput(results={self.SPEC: self._output(res)},
                          instructions=res[0].total_instructions)

    def check(self, state: dict, out: PassOutput) -> tuple[str, bool]:
        res = self._run(state, self.check_engine, state["store"])
        return self.SPEC, out.results.get(self.SPEC) == self._output(res)


WORKLOADS = {w.name: w for w in (SuiteCold(), SweepWarm(),
                                 MulticoreSampled())}
