"""Tests for the synthetic code-region generator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import CodeRegion, MixProfile
from repro.trace import OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE

from tests.opstream import pull


def walk_ops(region, n=2000, seed=1):
    rng = random.Random(seed)
    counter = iter(range(10 ** 9))
    return pull(region.walk_into, rng, n,
                load_addr=lambda: 0x1000 + next(counter) % 64,
                store_addr=lambda: 0x2000)


class TestMixProfile:
    def test_rejects_overfull_mix(self):
        with pytest.raises(ValueError):
            MixProfile(branch_frac=0.3, load_frac=0.5, store_frac=0.3)

    def test_rejects_zero_branches(self):
        with pytest.raises(ValueError):
            MixProfile(branch_frac=0.0)

    def test_block_instructions(self):
        assert MixProfile(branch_frac=0.125).block_instructions == 8.0


class TestConstruction:
    def test_determinism(self):
        a = CodeRegion(0x1000, 64 * 1024, seed=42)
        b = CodeRegion(0x1000, 64 * 1024, seed=42)
        assert a._pc == b._pc
        assert a._p_taken == b._p_taken

    def test_different_seed_different_layout(self):
        a = CodeRegion(0x1000, 64 * 1024, seed=42)
        b = CodeRegion(0x1000, 64 * 1024, seed=43)
        assert a._p_taken != b._p_taken

    def test_rebased_same_structure_new_addresses(self):
        a = CodeRegion(0x1000, 64 * 1024, seed=42)
        b = a.rebased(0x9000_0000)
        assert b.base == 0x9000_0000
        assert b.n_blocks == a.n_blocks
        assert b._p_taken == a._p_taken
        assert all(pb - pa == 0x9000_0000 - 0x1000
                   for pa, pb in zip(a._pc, b._pc))

    def test_blocks_fit_region(self):
        r = CodeRegion(0x1000, 8192, seed=1)
        assert r.end <= 0x1000 + 8192 * 1.2

    def test_biases_in_bounds(self):
        r = CodeRegion(0x1000, 32 * 1024, seed=7)
        assert all(0.02 <= p <= 0.98 for p in r._p_taken)

    def test_huge_region_chunked(self):
        r = CodeRegion(0x1000, 8 * 1024 * 1024, seed=1)
        assert r.n_chunks == 8
        assert r.n_blocks <= 1024 * 1024 // 20

    def test_tiny_region_one_block(self):
        r = CodeRegion(0x1000, 16, seed=1)
        assert r.n_blocks >= 1


class TestWalk:
    def test_instruction_count_approximate(self):
        r = CodeRegion(0x1000, 64 * 1024, seed=5)
        ops = walk_ops(r, n=5000)
        n = sum(op[2] for op in ops if op[0] == OP_BLOCK)
        n += sum(1 for op in ops if op[0] in (OP_BRANCH, OP_LOAD, OP_STORE))
        assert 5000 <= n < 5000 * 1.4

    def test_mix_fractions_close_to_profile(self):
        mix = MixProfile(branch_frac=0.15, load_frac=0.3, store_frac=0.1,
                         loop_frac=0.0)
        r = CodeRegion(0x1000, 128 * 1024, seed=5, mix=mix)
        ops = walk_ops(r, n=30000)
        total = sum(op[2] for op in ops if op[0] == OP_BLOCK)
        loads = sum(1 for op in ops if op[0] == OP_LOAD)
        stores = sum(1 for op in ops if op[0] == OP_STORE)
        branches = sum(1 for op in ops if op[0] == OP_BRANCH)
        total += loads + stores + branches
        assert abs(loads / total - 0.3) < 0.06
        assert abs(stores / total - 0.1) < 0.05
        assert abs(branches / total - 0.15) < 0.05

    def test_pcs_within_region(self):
        r = CodeRegion(0x40_0000, 64 * 1024, seed=2)
        for op in walk_ops(r, n=3000):
            if op[0] in (OP_BLOCK, OP_BRANCH):
                assert 0x40_0000 <= op[1] < 0x40_0000 + 64 * 1024 * 2

    def test_branch_targets_within_region(self):
        r = CodeRegion(0x40_0000, 64 * 1024, seed=2)
        for op in walk_ops(r, n=3000):
            if op[0] == OP_BRANCH:
                assert 0x40_0000 <= op[2] < 0x40_0000 + 64 * 1024 * 2

    def test_kernel_flag_propagates(self):
        r = CodeRegion(0x1000, 8192, seed=1)
        rng = random.Random(0)
        ops = pull(r.walk_into, rng, 500, lambda: 0, lambda: 0,
                   is_kernel=True)
        assert all(op[4] for op in ops if op[0] == OP_BLOCK)

    def test_loop_blocks_repeat_backedge(self):
        mix = MixProfile(loop_frac=1.0, avg_loop_trips=5.0)
        r = CodeRegion(0x1000, 4096, seed=3, mix=mix)
        ops = walk_ops(r, n=1000)
        backedges = [op for op in ops if op[0] == OP_BRANCH
                     and op[2] <= op[1] and op[3]]
        assert backedges

    def test_entry_parameter_honored(self):
        r = CodeRegion(0x1000, 8192, seed=1)
        rng = random.Random(0)
        ops = pull(r.walk_into, rng, 50, lambda: 0, lambda: 0, entry=0)
        first_block = next(op for op in ops if op[0] == OP_BLOCK)
        assert first_block[1] == r._pc[0]

    def test_same_seed_same_stream(self):
        r = CodeRegion(0x1000, 32 * 1024, seed=9)
        assert walk_ops(r, n=2000, seed=4) == walk_ops(r, n=2000, seed=4)

    def test_chunk_excursions_reach_high_addresses(self):
        r = CodeRegion(0x100_0000, 16 * 1024 * 1024, seed=1)
        rng = random.Random(0)
        pcs = [op[1] for op in pull(r.walk_into, rng, 200_000,
                                    lambda: 0, lambda: 0)
               if op[0] == OP_BLOCK]
        assert max(pcs) >= 0x100_0000 + 1024 * 1024


@given(st.integers(min_value=256, max_value=256 * 1024),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_property_walk_yields_valid_ops(size, seed):
    r = CodeRegion(0x1000, size, seed=seed)
    rng = random.Random(seed)
    for op in pull(r.walk_into, rng, 400, lambda: 0x7000, lambda: 0x8000):
        assert op[0] in (OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE)
        if op[0] == OP_BLOCK:
            assert op[2] >= 0 and op[3] > 0
