"""End-to-end tests of the mini-ISA example programs.

These check (a) the programs compute what they claim architecturally, and
(b) the timing model runs their traces to completion in every configuration
-- which, via the processor's internal safety assertions, also proves no
wrong value ever committed.
"""

import pytest

from repro.isa import bits
from repro.isa.trace import communication_stats
from repro.pipeline import MachineConfig, Processor
from repro.workloads import programs


@pytest.fixture(scope="module")
def built():
    return {
        program.name: (program, programs.build_trace(program))
        for program in programs.all_programs()
    }


class TestFunctionalCorrectness:
    def test_memcpy_copies(self, built):
        _, result = built["memcpy"]
        expected = bytes((7 * i + 3) & 0xFF for i in range(256))
        assert result.memory.dump(programs.DST_BASE, 256) == expected

    def test_stack_spill_accumulates(self, built):
        _, result = built["stack_spill"]
        # The +5 "computation" is discarded by the reload (that is the
        # point of the spill/reload round trip); each call nets +1.
        assert result.reg(20) == 64

    def test_struct_pack_fields_roundtrip(self, built):
        _, result = built["struct_pack"]
        # After the final iteration the record holds the field values.
        value = 17 * 64
        record = result.memory.read(programs.DST_BASE + 8 * 63, 8)
        expected = (
            (value & 0xFF)
            | ((value & 0xFF) << 8)
            | ((value & 0xFFFF) << 16)
            | ((value & 0xFFFF_FFFF) << 32)
        )
        assert record == expected

    def test_fp_convert_roundtrip(self, built):
        _, result = built["fp_convert"]
        # The last lds reloads 2 * (double)2: the fcvt of the penultimate
        # iteration feeds the final doubling.
        assert bits.bits_to_double(result.reg(35)) == 4.0

    def test_histogram_counts(self, built):
        _, result = built["histogram"]
        samples = [(13 * i + 5) & 0xFF for i in range(128)]
        for bucket in range(8):
            expected = sum(1 for s in samples if s % 8 == bucket)
            measured = result.memory.read(programs.TABLE_BASE + 8 * bucket, 8)
            assert measured == expected

    def test_all_programs_halt(self, built):
        for name, (_, result) in built.items():
            assert result.halted, name


class TestCommunicationShapes:
    def test_memcpy_has_no_communication(self, built):
        _, result = built["memcpy"]
        stats = communication_stats(result.trace)
        assert stats.communicating_loads == 0

    def test_stack_spill_fully_communicates(self, built):
        _, result = built["stack_spill"]
        stats = communication_stats(result.trace)
        assert stats.pct_communicating == 100.0
        assert stats.multi_source_loads == 0

    def test_struct_pack_is_partial_and_multi_source(self, built):
        _, result = built["struct_pack"]
        stats = communication_stats(result.trace)
        assert stats.pct_partial_word == 100.0
        assert stats.multi_source_loads >= 60


class TestTimingModelOnPrograms:
    CONFIGS = [
        MachineConfig.conventional(perfect_scheduling=True),
        MachineConfig.conventional(),
        MachineConfig.nosq(delay=False),
        MachineConfig.nosq(delay=True),
        MachineConfig.nosq(perfect=True),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
    def test_every_config_completes(self, built, config):
        for name, (_, result) in built.items():
            import dataclasses
            stats = Processor(dataclasses.replace(config)).run(result.trace)
            assert stats.instructions == len(result.trace), name

    def test_stack_spill_bypasses_via_rename(self, built):
        _, result = built["stack_spill"]
        stats = Processor(MachineConfig.nosq()).run(result.trace)
        assert stats.bypass_identity > 50
        assert stats.bypass_injected == 0

    def test_fp_convert_uses_injected_ops(self, built):
        _, result = built["fp_convert"]
        stats = Processor(MachineConfig.nosq()).run(result.trace)
        assert stats.bypass_injected > 30

    def test_struct_pack_exercises_delay(self, built):
        _, result = built["struct_pack"]
        stats = Processor(MachineConfig.nosq(delay=True)).run(result.trace)
        assert stats.delayed_loads > 20

    def test_stack_spill_nosq_beats_baseline(self, built):
        """The SMB sweet spot: once warm, NoSQ clearly wins on
        spill/reload (cold-start cache misses excluded via warmup)."""
        _, result = built["stack_spill"]
        warmup = len(result.trace) // 2
        baseline = Processor(MachineConfig.conventional()).run(
            result.trace, warmup=warmup
        )
        nosq = Processor(MachineConfig.nosq()).run(result.trace, warmup=warmup)
        assert nosq.cycles < baseline.cycles
