"""Warm-state reuse: owned-copy buffers, identity checks, eviction."""

import itertools

import pytest

import repro.exec.warm as warm
from repro.exec.chaos import ChaosConfig, injected
from repro.exec.jobs import JobSpec
from repro.exec.pool import run_jobs
from repro.exec.warm import WarmCache, file_identity
from repro.harness.runner import Fidelity
from repro.perf.trace_io import record, replay_buffers
from repro.uarch.machine import get_machine
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import build_program

from tests.opstream import program_ops

FID = Fidelity(warmup_instructions=6_000, measure_instructions=10_000)


def record_workload_trace(tmp_path, n_ops=4000):
    spec = next(s for s in dotnet_category_specs()
                if s.name == "System.Runtime")
    prog = build_program(spec, seed=4)
    path = tmp_path / "w.trace"
    record(iter(itertools.islice(program_ops(prog), n_ops)), path)
    return path


class TestOwnedCopy:
    def test_copy_detaches_from_trace_file(self, tmp_path):
        path = record_workload_trace(tmp_path)
        bufs = list(replay_buffers(path, use_mmap=True))
        expected = [(list(b.kinds), list(b.a0), list(b.a1), list(b.a2))
                    for b in bufs]
        cache = WarmCache()
        cache.put_buffers("k", bufs, identity=file_identity(path))
        del bufs                          # drop the mmap-backed views
        # Truncating the file in place would SIGBUS any view still
        # backed by the mapping; cached copies must not care.
        path.write_bytes(b"")
        cached = cache._buffers["k"][0]
        for buf, (kinds, a0, a1, a2) in zip(cached, expected):
            assert type(buf.a0[0]) is int
            assert (list(buf.kinds), list(buf.a0),
                    list(buf.a1), list(buf.a2)) == (kinds, a0, a1, a2)

    def test_list_backed_buffers_pass_through(self):
        from repro.trace import OP_LOAD, TraceBuffer
        buf = TraceBuffer()
        buf.fill_from(iter([(OP_LOAD, 0x1000)]), 10)
        assert warm._owned_copy(buf) is buf


class TestBufferCache:
    def test_identity_mismatch_drops_entry(self, tmp_path):
        path = record_workload_trace(tmp_path)
        bufs = list(replay_buffers(path, use_mmap=False))
        cache = WarmCache()
        ident = file_identity(path)
        cache.put_buffers("k", bufs, identity=ident)
        assert cache.buffers("k", ident) is not None
        stale = (ident[0], ident[1] - 1, ident[2])
        assert cache.buffers("k", stale) is None
        assert cache.evictions == 1
        # fully gone, not just missed
        assert cache.buffers("k", ident) is None

    def test_over_cap_trace_not_cached(self, tmp_path):
        path = record_workload_trace(tmp_path)
        bufs = list(replay_buffers(path, use_mmap=False))
        cache = WarmCache(max_buffer_ops=len(bufs[0]) - 1)
        cache.put_buffers("k", bufs, identity=file_identity(path))
        assert cache.buffers("k", file_identity(path)) is None

    def test_lru_eviction_respects_ops_budget(self, tmp_path):
        path = record_workload_trace(tmp_path)
        bufs = list(replay_buffers(path, use_mmap=False))
        n_ops = sum(len(b) for b in bufs)
        cache = WarmCache(max_buffer_ops=n_ops + n_ops // 2)
        ident = file_identity(path)
        cache.put_buffers("a", bufs, identity=ident)
        cache.put_buffers("b", bufs, identity=ident)
        assert cache.buffers("a", ident) is None      # LRU-evicted
        assert cache.buffers("b", ident) is not None
        assert cache._buffer_ops == n_ops

    def test_missing_file_identity_is_none(self, tmp_path):
        assert file_identity(tmp_path / "nope") is None


class TestModelCache:
    def test_snapshot_roundtrip_and_counters(self):
        cache = WarmCache()
        machine = get_machine("i9")
        assert cache.model(machine) is None
        cache.put_model(machine, {"vm": 1}, ["core"])
        pair = cache.model(machine)
        assert pair == ({"vm": 1}, ["core"])
        # rehydration is a fresh object, never the cached one
        assert pair[0] is not cache.model(machine)[0]
        assert cache.model_misses == 1
        assert cache.model_hits >= 2

    def test_unpicklable_model_skipped(self):
        cache = WarmCache()
        cache.put_model(get_machine("i9"), lambda: None, None)
        assert len(cache) == 0
        assert cache.model(get_machine("i9")) is None

    def test_model_lru_bounded(self):
        cache = WarmCache(max_models=2)
        for key in ("i9", "xeon", "arm"):
            cache.put_model(get_machine(key), key, key)
        assert len(cache._models) == 2
        assert cache.model(get_machine("i9")) is None
        assert cache.model(get_machine("arm")) is not None

    def test_evict_all_clears_everything(self, tmp_path):
        path = record_workload_trace(tmp_path)
        cache = WarmCache()
        cache.put_model(get_machine("i9"), 1, 2)
        cache.put_buffers("k", list(replay_buffers(path, use_mmap=False)),
                          identity=file_identity(path))
        assert len(cache) == 2
        cache.evict_all()
        assert len(cache) == 0
        assert cache._buffer_ops == 0


class TestGlobalCache:
    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARM_MODELS", "0")
        assert warm.get_cache() is None

    def test_enabled_returns_singleton(self, monkeypatch):
        monkeypatch.delenv("REPRO_WARM_MODELS", raising=False)
        monkeypatch.setattr(warm, "_CACHE", None)
        cache = warm.get_cache()
        assert cache is not None
        assert warm.get_cache() is cache

    def test_module_evict_all_tolerates_no_cache(self, monkeypatch):
        monkeypatch.setattr(warm, "_CACHE", None)
        warm.evict_all()                  # must not raise


class TestEvictionOnFailure:
    def test_chaos_flaky_failure_evicts_global_cache(self, tmp_path,
                                                     monkeypatch):
        """A job that fails in-process may have poisoned shared warm
        state; the serial retry path must drop the whole cache before
        retrying, so the rerun rebuilds models from scratch."""
        monkeypatch.delenv("REPRO_WARM_MODELS", raising=False)
        monkeypatch.setattr(warm, "_CACHE", None)
        cache = warm.get_cache()
        # A sentinel entry that only survives if eviction never ran:
        # real jobs repopulate the cache with their own keys afterwards.
        cache.put_model("sentinel-config", "vm", "core")
        assert cache.model("sentinel-config") is not None

        spec = dotnet_category_specs()[0]
        jobs = [JobSpec(spec=spec, machine=get_machine("i9"),
                        fidelity=FID, seed=0)]
        config = ChaosConfig(flaky_rate=1.0, once=True,
                             state_dir=str(tmp_path / "chaos"))
        with injected(config):
            outcomes = run_jobs(jobs, n_jobs=1, catch=(Exception,),
                                max_retries=1)
        assert not any(hasattr(o, "error") for o in outcomes)
        assert cache.model("sentinel-config") is None
        assert cache.evictions >= 1

    def test_unretried_failure_still_evicts(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_WARM_MODELS", raising=False)
        monkeypatch.setattr(warm, "_CACHE", None)
        cache = warm.get_cache()
        cache.put_model("sentinel-config", "vm", "core")

        spec = dotnet_category_specs()[0]
        jobs = [JobSpec(spec=spec, machine=get_machine("i9"),
                        fidelity=FID, seed=0)]
        config = ChaosConfig(flaky_rate=1.0, once=False,
                             state_dir=str(tmp_path / "chaos"))
        with injected(config):
            outcomes = run_jobs(jobs, n_jobs=1, catch=(Exception,),
                                max_retries=0)
        (failure,) = outcomes
        assert isinstance(failure.error, OSError)
        assert cache.model("sentinel-config") is None
