"""Cross-configuration integration tests on generated workloads."""

import pytest

from repro.api import config_set
from repro.harness.runner import ExperimentScale
from repro.isa.instructions import NUM_ARCH_REGS
from repro.pipeline import MachineConfig, Processor
from repro.traces import resolve_source

TINY = ExperimentScale("tiny", num_instructions=5_000, warmup=2_000)


@pytest.fixture(scope="module")
def gzip_trace():
    return resolve_source("gzip").trace(TINY, 17)


class TestAllConfigurations:
    @pytest.mark.parametrize(
        "config", config_set("standard"), ids=lambda c: c.name
    )
    def test_runs_to_completion(self, gzip_trace, config):
        import dataclasses
        stats = Processor(dataclasses.replace(config)).run(
            gzip_trace, warmup=TINY.warmup
        )
        assert stats.instructions == len(gzip_trace) - TINY.warmup
        assert 0.1 < stats.ipc <= 4.0

    def test_perfect_configs_never_flush(self, gzip_trace):
        for config in (
            MachineConfig.conventional(perfect_scheduling=True),
            MachineConfig.nosq(perfect=True),
        ):
            stats = Processor(config).run(gzip_trace)
            assert stats.flushes == 0, config.name

    def test_perfect_smb_near_or_above_real_nosq(self, gzip_trace):
        """Oracle bypassing is never *substantially* worse than the real
        predictor.  (It is not a strict bound: the oracle's idealized delay
        of multi-source loads can cost more than the real machine's cheap
        flush-and-retry on short traces.)"""
        perfect = Processor(MachineConfig.nosq(perfect=True)).run(
            gzip_trace, warmup=TINY.warmup
        )
        real = Processor(MachineConfig.nosq()).run(gzip_trace, warmup=TINY.warmup)
        assert perfect.cycles <= real.cycles * 1.08

    def test_nosq_reduces_cache_reads(self, gzip_trace):
        baseline = Processor(MachineConfig.conventional()).run(
            gzip_trace, warmup=TINY.warmup
        )
        nosq = Processor(MachineConfig.nosq()).run(gzip_trace, warmup=TINY.warmup)
        assert nosq.total_dcache_reads < baseline.total_dcache_reads

    def test_256_window_configs_run(self, gzip_trace):
        for config in config_set("standard", window=256)[:2] + [
            MachineConfig.nosq(window=256)
        ]:
            stats = Processor(config).run(gzip_trace, warmup=TINY.warmup)
            assert stats.instructions == len(gzip_trace) - TINY.warmup

    def test_bigger_window_does_not_hurt_perfect_baseline(self, gzip_trace):
        small = Processor(
            MachineConfig.conventional(perfect_scheduling=True)
        ).run(gzip_trace, warmup=TINY.warmup)
        large = Processor(
            MachineConfig.conventional(window=256, perfect_scheduling=True)
        ).run(gzip_trace, warmup=TINY.warmup)
        assert large.cycles <= small.cycles * 1.05


class TestStructureAccounting:
    def test_physical_registers_never_leak(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        # Everything committed: all rename registers must be free again.
        assert processor.free_pregs == (
            processor.config.phys_regs - NUM_ARCH_REGS
        )
        assert processor.preg_refs == {}

    def test_issue_queue_drains(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        stats = processor.run(gzip_trace)
        assert processor.iq_unscheduled == 0
        assert all(issue <= stats.cycles for issue in processor.iq_heap)

    def test_store_queue_drains(self, gzip_trace):
        processor = Processor(MachineConfig.conventional())
        processor.run(gzip_trace)
        assert not processor.sq
        assert not processor.rob

    def test_load_queue_drains(self, gzip_trace):
        for config in (MachineConfig.nosq(), MachineConfig.conventional()):
            processor = Processor(config)
            processor.run(gzip_trace)
            assert processor.lq_occupancy == 0

    def test_srq_drains(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        assert len(processor.srq) == 0

    def test_ssn_counters_converge(self, gzip_trace):
        processor = Processor(MachineConfig.nosq())
        processor.run(gzip_trace)
        assert processor.ssn_rename == processor.ssn_commit
