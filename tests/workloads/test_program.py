"""Tests for program execution (managed / ASP.NET / native)."""

import itertools

from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE,
                         EV_GC_ALLOCATION_TICK, EV_JIT_STARTED,
                         EV_REQUEST_DONE)
from repro.workloads.aspnet import aspnet_specs
from repro.workloads.dotnet import dotnet_category_specs
from repro.workloads.program import (AspNetProgram, DataModel,
                                     ManagedProgram, NativeProgram,
                                     build_program)
from repro.workloads.speccpu import speccpu_specs

from tests.opstream import program_ops

VALID_OPS = (OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE, OP_EVENT)


def spec_by_name(name):
    for s in (dotnet_category_specs() + aspnet_specs() + speccpu_specs()):
        if s.name == name:
            return s
    raise KeyError(name)


def take_ops(program, n_ops):
    return list(itertools.islice(program_ops(program), n_ops))


def take_instructions(program, n_instr):
    out = []
    n = 0
    for op in program_ops(program):
        out.append(op)
        if op[0] == OP_BLOCK:
            n += op[2]
        elif op[0] != OP_EVENT:
            n += 1
        if n >= n_instr:
            break
    return out


class TestBuildProgram:
    def test_dispatch(self):
        assert isinstance(build_program(spec_by_name("mcf")), NativeProgram)
        assert isinstance(build_program(spec_by_name("Json")), AspNetProgram)
        p = build_program(spec_by_name("System.Runtime"))
        assert isinstance(p, ManagedProgram)
        assert not isinstance(p, AspNetProgram)


class TestManagedProgram:
    def test_valid_op_stream(self):
        p = build_program(spec_by_name("System.Runtime"), seed=1)
        for op in take_ops(p, 3000):
            assert op[0] in VALID_OPS

    def test_deterministic_stream(self):
        a = take_ops(build_program(spec_by_name("System.Linq"), seed=3), 2000)
        b = take_ops(build_program(spec_by_name("System.Linq"), seed=3), 2000)
        assert a == b

    def test_different_seeds_differ(self):
        a = take_ops(build_program(spec_by_name("System.Linq"), seed=3), 2000)
        b = take_ops(build_program(spec_by_name("System.Linq"), seed=4), 2000)
        assert a != b

    def test_jit_events_present_early(self):
        p = build_program(spec_by_name("System.Runtime"), seed=1)
        ops = take_instructions(p, 30_000)
        assert any(op[0] == OP_EVENT and op[1] == EV_JIT_STARTED
                   for op in ops)

    def test_allocation_ticks_for_allocating_category(self):
        p = build_program(spec_by_name("System.Collections"), seed=1)
        ops = take_instructions(p, 60_000)
        assert any(op[0] == OP_EVENT and op[1] == EV_GC_ALLOCATION_TICK
                   for op in ops)

    def test_kernel_share_follows_syscall_rate(self):
        def kernel_share(name, n=40_000):
            p = build_program(spec_by_name(name), seed=1)
            kern = user = 0
            for op in take_instructions(p, n):
                if op[0] == OP_BLOCK:
                    if op[4]:
                        kern += op[2]
                    else:
                        user += op[2]
            return kern / max(1, kern + user)

        assert kernel_share("System.Net") > 0.10
        assert kernel_share("System.MathBenchmarks") < 0.02

    def test_premap_prevents_stack_faults(self):
        p = build_program(spec_by_name("System.Runtime"), seed=1)
        vm = VirtualMemory()
        p.premap(vm)
        from repro.trace import REGION_STACK_BASE
        assert vm.is_mapped(REGION_STACK_BASE)


class TestAspnetProgram:
    def test_request_loop_emits_request_done(self):
        p = build_program(spec_by_name("Json"), seed=1)
        ops = take_instructions(p, 50_000)
        assert any(op[0] == OP_EVENT and op[1] == EV_REQUEST_DONE
                   for op in ops)

    def test_substantial_kernel_share(self):
        p = build_program(spec_by_name("Plaintext"), seed=1)
        kern = total = 0
        for op in take_instructions(p, 50_000):
            if op[0] == OP_BLOCK:
                total += op[2]
                if op[4]:
                    kern += op[2]
        assert kern / total > 0.25

    def test_db_benchmark_has_more_syscall_traffic(self):
        def kernel_blocks(name):
            p = build_program(spec_by_name(name), seed=1)
            return sum(op[2] for op in take_instructions(p, 60_000)
                       if op[0] == OP_BLOCK and op[4])

        assert kernel_blocks("DbMultiQueryRaw") > 0

    def test_2mb_output_interleaves_user_and_kernel(self):
        p = build_program(spec_by_name("MvcJsonNetOutput2M"), seed=1)
        modes = []
        for op in take_instructions(p, 150_000):
            if op[0] == OP_BLOCK:
                modes.append(op[4])
        # Mode should flip repeatedly (serialize/send interleaving), not
        # run one giant user phase followed by one giant kernel phase.
        flips = sum(1 for a, b in zip(modes, modes[1:]) if a != b)
        assert flips > 6


class TestNativeProgram:
    def test_no_runtime_events(self):
        p = build_program(spec_by_name("gcc"), seed=1)
        ops = take_instructions(p, 30_000)
        assert not any(op[0] == OP_EVENT for op in ops)

    def test_no_kernel_instructions(self):
        p = build_program(spec_by_name("gcc"), seed=1)
        for op in take_instructions(p, 30_000):
            if op[0] == OP_BLOCK:
                assert not op[4]

    def test_premap_covers_working_set(self):
        p = build_program(spec_by_name("leela"), seed=1)
        vm = VirtualMemory()
        p.premap(vm)
        loads = [op[1] for op in take_instructions(p, 20_000)
                 if op[0] in (OP_LOAD, OP_STORE)]
        unmapped = [a for a in loads if not vm.is_mapped(a)]
        assert not unmapped


class TestDataModel:
    def make(self, **over):
        import random
        base = spec_by_name("System.Runtime")
        from dataclasses import replace
        spec = replace(base, **over)
        live = [0x9000_0000 + i * 64 for i in range(100)]
        return DataModel(spec, random.Random(0), live_addrs=live,
                         native_base=0xA000_0000, stream_base=0xB000_0000)

    def test_load_addr_positive(self):
        dm = self.make()
        for _ in range(500):
            assert dm.load_addr() > 0

    def test_stream_addresses_sequential(self):
        dm = self.make(stream_frac=1.0)
        addrs = [dm.load_addr() for _ in range(32)]
        deltas = {b - a for a, b in zip(addrs, addrs[1:])}
        assert deltas == {8}

    def test_temporal_reuse_repeats_addresses(self):
        dm = self.make(stream_frac=0.0, temporal_reuse=0.95, stack_frac=0.0)
        addrs = [dm.load_addr() for _ in range(2000)]
        assert len(set(addrs)) < len(addrs) * 0.5

    def test_zero_reuse_spreads(self):
        dm = self.make(stream_frac=0.0, temporal_reuse=0.0, stack_frac=0.0,
                       fresh_new_frac=1.0)
        addrs = [dm.load_addr() for _ in range(500)]
        assert len(set(addrs)) > 50

    def test_store_addr_valid(self):
        dm = self.make()
        for _ in range(200):
            assert dm.store_addr() > 0
