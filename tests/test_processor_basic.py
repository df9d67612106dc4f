"""Directed tests of the timing model on hand-built traces."""

import pytest

from repro.api import resolve_config
from repro.harness.runner import SMOKE
from repro.pipeline import MachineConfig, Processor
from repro.pipeline.processor import SimulationError
from repro.traces import resolve_source
from repro.validate import run_diff
from tests.conftest import build_trace, comm_loop_specs


@pytest.fixture(scope="module")
def gzip_smoke():
    return resolve_source("gzip").trace(SMOKE, 17)


def nosq(**kwargs):
    return MachineConfig.nosq(**kwargs)


def conventional(**kwargs):
    return MachineConfig.conventional(**kwargs)


class TestBasics:
    def test_empty_trace(self):
        stats = Processor(nosq()).run([])
        assert stats.cycles == 0
        assert stats.instructions == 0

    def test_all_instructions_commit(self):
        trace = build_trace([("alu", 8)] * 100)
        stats = Processor(nosq()).run(trace)
        assert stats.instructions == 100
        assert stats.cycles > 0

    def test_width_bounds_ipc(self):
        trace = build_trace([("alu", 8)] * 400)
        stats = Processor(nosq()).run(trace)
        assert stats.ipc <= 4.0

    def test_dependent_chain_is_serial(self):
        chain = build_trace([("alu", 8, 8)] * 200)
        parallel = build_trace([("alu", 8)] * 200)
        chain_stats = Processor(nosq()).run(chain)
        parallel_stats = Processor(nosq()).run(parallel)
        assert chain_stats.cycles > 1.5 * parallel_stats.cycles

    def test_nops_commit(self):
        trace = build_trace([("nop",)] * 50)
        stats = Processor(nosq()).run(trace)
        assert stats.instructions == 50

    def test_processor_is_single_use(self):
        trace = build_trace([("alu", 8)])
        processor = Processor(nosq())
        processor.run(trace)
        with pytest.raises(SimulationError):
            processor.run(trace)

    def test_determinism(self):
        trace = build_trace(
            [("st", 0x100 + 8 * (i % 16), 8, 8) if i % 3 == 0
             else ("ld", 0x100 + 8 * (i % 16), 8)
             for i in range(300)]
        )
        first = Processor(nosq()).run(trace)
        second = Processor(nosq()).run(trace)
        assert first.cycles == second.cycles
        assert first.flushes == second.flushes


class TestWarmup:
    def test_warmup_excluded_from_counts(self):
        trace = build_trace([("alu", 8)] * 100)
        stats = Processor(nosq()).run(trace, warmup=40)
        assert stats.instructions == 60

    def test_measured_composition_matches_trace_tail(self):
        specs = []
        for i in range(50):
            specs += [("alu", 8), ("st", 0x100 + 8 * i, 8, 8),
                      ("ld", 0x100 + 8 * i, 8), ("br", True)]
        trace = build_trace(specs)
        warmup = 100
        stats = Processor(nosq()).run(trace, warmup=warmup)
        tail = trace[warmup:]
        assert stats.loads == sum(i.is_load for i in tail)
        assert stats.stores == sum(i.is_store for i in tail)
        assert stats.branches == sum(i.is_branch for i in tail)


class TestNoSQBypassing(object):
    def test_repeated_comm_site_trains_and_bypasses(self, tiny_comm_trace):
        stats = Processor(nosq()).run(tiny_comm_trace)
        # The first instance mispredicts (cold); later instances bypass.
        assert stats.bypassed_loads >= 50
        assert stats.bypass_identity >= 50

    def test_stores_skip_out_of_order_engine(self, tiny_comm_trace):
        """NoSQ never dispatches stores (or bypassed loads) into the issue
        queue -- one of the paper's secondary benefits."""
        nosq_stats = Processor(nosq()).run(tiny_comm_trace)
        conv_stats = Processor(conventional()).run(tiny_comm_trace)
        assert nosq_stats.iq_dispatches < conv_stats.iq_dispatches

    def test_partial_word_uses_injected_op(self):
        specs = comm_loop_specs(iterations=64, load_size=4, shift=4)
        stats = Processor(nosq()).run(build_trace(specs))
        assert stats.bypass_injected >= 50
        assert stats.bypass_identity == 0

    def test_bypassed_loads_skip_cache(self, tiny_comm_trace):
        stats = Processor(nosq()).run(tiny_comm_trace)
        # Exactly the non-bypassed (and delayed) loads read the cache in
        # the out-of-order core.
        if stats.flushes == 0:
            assert stats.ooo_dcache_reads == (
                stats.nonbypassed_loads + stats.delayed_loads
            )
        assert stats.bypassed_loads > 0

    def test_multi_source_engages_delay(self):
        specs = []
        for i in range(150):
            addr = 0x8000 + 8 * i
            specs += [
                ("alu", 8, {"pc": 0x2000}),
                ("st", addr, 1, 8, {"pc": 0x2004}),
                ("st", addr + 1, 1, 8, {"pc": 0x2008}),
                ("ld", addr, 2, {"pc": 0x200C}),
                ("alu", 9, 16, {"pc": 0x2010}),
            ]
        stats = Processor(nosq(delay=True)).run(build_trace(specs))
        assert stats.delayed_loads > 50
        # With delay, almost everything commits cleanly.
        assert stats.flushes < 10

    def test_multi_source_without_delay_flushes(self):
        specs = []
        for i in range(60):
            addr = 0x8000 + 8 * i
            specs += [
                ("alu", 8, {"pc": 0x2000}),
                ("st", addr, 1, 8, {"pc": 0x2004}),
                ("st", addr + 1, 1, 8, {"pc": 0x2008}),
                ("ld", addr, 2, {"pc": 0x200C}),
                ("alu", 9, 16, {"pc": 0x2010}),
            ]
        stats = Processor(nosq(delay=False)).run(build_trace(specs))
        assert stats.delayed_loads == 0
        assert stats.flushes > 20

    def test_flushes_still_commit_everything(self):
        specs = []
        for i in range(60):
            addr = 0x8000 + 8 * i
            specs += [("st", addr, 1, 8, {"pc": 0x2000}),
                      ("st", addr + 1, 1, 8, {"pc": 0x2004}),
                      ("ld", addr, 2, {"pc": 0x2008})]
        trace = build_trace(specs)
        stats = Processor(nosq(delay=False)).run(trace)
        assert stats.instructions == len(trace)

    def test_committed_store_read_from_cache(self):
        """A load whose source store committed long ago is non-bypassing
        and must not flush."""
        specs = [("st", 0x8000, 8, 8)]
        specs += [("alu", 8)] * 300   # store drains long before the load
        specs += [("ld", 0x8000, 8)]
        stats = Processor(nosq()).run(build_trace(specs))
        assert stats.flushes == 0
        assert stats.bypassed_loads == 0


class TestConventional:
    def test_forwarding_without_flushes(self, tiny_comm_trace):
        stats = Processor(conventional()).run(tiny_comm_trace)
        assert stats.flushes <= 1   # at most a cold StoreSets violation
        assert stats.bypassed_loads == 0

    def test_partial_overlap_stalls_not_flushes(self):
        specs = []
        for i in range(40):
            addr = 0x8000 + 8 * i
            specs += [("st", addr, 1, 8, {"pc": 0x2000}),
                      ("st", addr + 1, 1, 8, {"pc": 0x2004}),
                      ("ld", addr, 2, {"pc": 0x2008})]
        stats = Processor(conventional()).run(build_trace(specs))
        assert stats.flushes == 0

    def test_perfect_scheduling_never_flushes(self, tiny_comm_trace):
        stats = Processor(conventional(perfect_scheduling=True)).run(
            tiny_comm_trace
        )
        assert stats.flushes == 0

    def test_store_queue_capacity_stalls(self):
        """A burst of stores larger than the SQ must stall dispatch."""
        specs = [("st", 0x8000 + 8 * i, 8, 8) for i in range(80)]
        processor = Processor(conventional())
        stats = processor.run(build_trace(specs))
        assert stats.sq_full_stalls > 0


class TestBranches:
    def test_mispredicts_cost_cycles(self):
        import random
        rng = random.Random(7)
        random_branches = build_trace(
            [("br", rng.random() < 0.5, {"pc": 0x5000}) for _ in range(300)]
        )
        steady_branches = build_trace(
            [("br", True, {"pc": 0x5000}) for _ in range(300)]
        )
        random_stats = Processor(nosq()).run(random_branches)
        steady_stats = Processor(nosq()).run(steady_branches)
        assert random_stats.branch_mispredicts > steady_stats.branch_mispredicts
        assert random_stats.cycles > steady_stats.cycles

    def test_call_return_pairs_predict_well(self):
        specs = []
        for _ in range(50):
            specs += [
                ("call", {"pc": 0x5000, "target": 0x6000}),
                ("alu", 8, {"pc": 0x6000}),
                ("ret", 0x5004, {"pc": 0x6004}),
            ]
        trace = build_trace(specs)
        stats = Processor(nosq()).run(trace)
        # Returns predicted by the RAS: few mispredictions.
        assert stats.branch_mispredicts <= 4


class TestSSNWraparound:
    def test_tiny_ssn_space_drains_and_completes(self):
        config = nosq()
        config.ssn_bits = 6   # wrap every 64 stores
        specs = []
        for i in range(200):
            addr = 0x8000 + 8 * (i % 64)
            specs += [("alu", 8, {"pc": 0x2000}),
                      ("st", addr, 8, 8, {"pc": 0x2004}),
                      ("ld", addr, 8, {"pc": 0x2008})]
        trace = build_trace(specs)
        stats = Processor(config).run(trace)
        assert stats.ssn_wraps >= 2
        assert stats.instructions == len(trace)

    def test_wraparound_in_conventional_mode(self):
        config = conventional()
        config.ssn_bits = 6
        specs = [("st", 0x8000 + 8 * (i % 32), 8, 8) for i in range(200)]
        stats = Processor(config).run(build_trace(specs))
        assert stats.ssn_wraps >= 2


    @pytest.mark.parametrize(
        "spec", ("nosq", "conventional", "nosq-perfect")
    )
    def test_drains_hold_every_invariant(self, gzip_smoke, spec):
        # 4-bit SSNs wrap every 15 stores: gzip drains dozens of times,
        # and the oracle diff checks every load and store across them.
        config = resolve_config(f"{spec}?ssn_bits=4")
        report = run_diff(config, gzip_smoke)
        assert report.stats.ssn_wraps > 0
        assert report.ok, report.describe()


class TestLoadQueue:
    def test_nosq_runs_without_load_queue(self):
        config = nosq()
        assert config.lq_size is None
        trace = build_trace([("ld", 0x8000 + 8 * i, 8) for i in range(100)])
        stats = Processor(config).run(trace)
        assert stats.instructions == 100

    def test_conventional_lq_capacity_respected(self):
        config = conventional()
        config.lq_size = 4
        trace = build_trace([("ld", 0x8000 + 8 * i, 8) for i in range(100)])
        stats = Processor(config).run(trace)
        assert stats.instructions == 100
