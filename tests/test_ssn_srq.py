"""Tests for the SSN counters and the store register queue."""

from dataclasses import replace

import pytest

from repro.core import SRQEntry, StoreRegisterQueue
from repro.ooo import InFlightInst
from repro.pipeline import MachineConfig, Processor
from repro.pipeline.processor import SimulationError
from tests.conftest import build_trace, watched_run

STORES = [("st", 0x8000 + 8 * (i % 8), 8, 8) for i in range(40)]


def _store_ssns(processor):
    return [e.ssn for e in processor.committed if e.inst.is_store]


class TestSSNCounters:
    """SSNrename / SSNcommit: ``Processor.ssn_rename``/``ssn_commit``."""

    def test_monotonic_rename(self):
        processor, _ = watched_run(MachineConfig.nosq(), build_trace(STORES))
        assert _store_ssns(processor) == list(range(1, 41))

    def test_in_flight_occupancy(self):
        # SSNrename - SSNcommit counts the stores renamed but not yet
        # visible in the cache, after every stage.
        for config in (MachineConfig.nosq(), MachineConfig.conventional()):
            processor, _ = watched_run(config, build_trace(STORES))
            assert processor.inconsistent == []
            assert processor.ssn_rename == processor.ssn_commit == 40

    def test_commit_cannot_pass_rename(self):
        processor = Processor(MachineConfig.nosq())
        processor._pending_commits.append((0, 1, 0))
        with pytest.raises(SimulationError, match="SSNcommit would pass"):
            processor._advance_ssn_commit(0)

    def test_squash_rolls_back_rename(self):
        (victim,) = [InFlightInst(i, 0) for i in build_trace([("ld", 0, 8)])]
        processor = Processor(MachineConfig.nosq())
        processor.ssn_rename, processor.ssn_commit = 5, 1
        victim.ssn_rename_at_dispatch = 3
        processor.rob.append(victim)
        processor._flush_after(victim, 0)
        assert processor.ssn_rename == 3
        victim.ssn_rename_at_dispatch = 0      # below SSNcommit
        with pytest.raises(SimulationError, match="cannot roll"):
            processor._flush_after(victim, 0)

    def test_wraparound_signals_drain(self):
        config = replace(MachineConfig.nosq(), ssn_bits=4)   # wraps at 16
        processor, stats = watched_run(config, build_trace(STORES))
        # Renaming SSN 16 drains the pipeline; numbering restarts at 1.
        assert _store_ssns(processor) == [i % 15 + 1 for i in range(40)]
        assert stats.ssn_wraps == 2
        assert processor.inconsistent == []

    def test_minimum_bits(self):
        with pytest.raises(ValueError, match="ssn_bits"):
            Processor(replace(MachineConfig.nosq(), ssn_bits=2))


def _srq_entry(ssn, store_seq=0, size=8, fp=False):
    return SRQEntry(
        ssn=ssn, def_producer=None, store_seq=store_seq, size=size,
        fp_convert=fp,
    )


class TestStoreRegisterQueue:
    def test_insert_lookup_retire(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        assert srq.lookup(1).ssn == 1
        srq.retire(1)
        assert srq.lookup(1) is None

    def test_lookup_miss_for_absent_ssn(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        assert srq.lookup(9) is None   # same slot, different SSN

    def test_slot_collision_detected(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        with pytest.raises(RuntimeError):
            srq.insert(_srq_entry(9))   # 9 % 8 == 1 % 8

    def test_reinsert_same_ssn_allowed(self):
        """Flush replay re-renames the same store with the same SSN."""
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        srq.insert(_srq_entry(1, store_seq=0, size=4))
        assert srq.lookup(1).size == 4

    def test_squash_above(self):
        srq = StoreRegisterQueue(capacity=16)
        for ssn in (1, 2, 3, 4):
            srq.insert(_srq_entry(ssn, store_seq=ssn - 1))
        srq.squash_above(2)
        assert srq.lookup(2) is not None
        assert srq.lookup(3) is None
        assert srq.lookup(4) is None

    def test_clear(self):
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1))
        srq.clear()
        assert len(srq) == 0

    def test_carries_partial_word_metadata(self):
        """Section 3.5: store size and type live in the SRQ so the injected
        shift & mask op can be built non-speculatively."""
        srq = StoreRegisterQueue(capacity=8)
        srq.insert(_srq_entry(1, size=4, fp=True))
        entry = srq.lookup(1)
        assert entry.size == 4
        assert entry.fp_convert is True
