"""Tests for the out-of-order window: the plain state ``Processor`` owns
(ROB, rename map, physical registers, issue queue and ports, load/store
queues) and the reference associative store-queue search."""

from dataclasses import replace

import pytest

from repro.isa.instructions import NUM_ARCH_REGS
from repro.isa.opcodes import OpClass
from repro.ooo import InFlightInst, search_store_queue
from repro.pipeline import MachineConfig, Processor
from tests.conftest import build_trace, watched_run

#: A load that misses to memory, then independent ALU work: the young
#: instructions complete long before the head can commit, so the window
#: fills up behind it.
MISS_THEN_ALU = [("ld", 0x9000, 8)] + [("alu", 8 + i % 4) for i in range(40)]


def _entries(specs):
    return [InFlightInst(inst, 0) for inst in build_trace(specs)]


def _flushed(processor, entries, victim, cycle=0):
    """Put *entries* in the ROB and flush everything younger than
    *victim*, as a verification flush at *cycle* would."""
    processor.rob.extend(entries)
    processor._flush_after(victim, cycle)
    return processor


class TestReorderBuffer:
    """The ROB: ``Processor.rob``, bounded by ``rob_size``."""

    def test_fifo_order(self):
        trace = build_trace(MISS_THEN_ALU)
        processor, _ = watched_run(MachineConfig.nosq(), trace)
        committed = processor.committed
        assert [e.seq for e in committed] == list(range(len(trace)))
        # Younger instructions finished first but still waited their turn.
        assert committed[1].complete_cycle < committed[0].complete_cycle

    def test_capacity(self):
        config = replace(MachineConfig.nosq(), rob_size=4)
        processor, _ = watched_run(config, build_trace(MISS_THEN_ALU))
        assert processor.peak["rob"] == 4

    def test_squash_younger(self):
        entries = _entries([("alu", 8)] * 5)
        processor = _flushed(Processor(MachineConfig.nosq()), entries,
                             entries[2])
        assert list(processor.rob) == entries[:3]
        assert [e.seq for e in entries if e.squashed] == [3, 4]
        assert processor._pos == 3

    def test_squash_none_when_seq_is_tail(self):
        entries = _entries([("alu", 8)] * 2)
        processor = _flushed(Processor(MachineConfig.nosq()), entries,
                             entries[1])
        assert list(processor.rob) == entries
        assert not any(e.squashed for e in entries)


class TestRegisterMapper:
    """The rename map: ``Processor.rename_map`` writer stacks."""

    def test_undefined_is_committed(self):
        processor = Processor(MachineConfig.nosq())
        assert not any(processor.rename_map)
        assert processor._producers_for((7,)) == ()

    def test_define_and_lookup(self):
        trace = build_trace([("fp", 8, 1), ("alu", 9, 8)])
        processor, _ = watched_run(MachineConfig.nosq(), trace)
        producer, consumer = processor.committed
        assert consumer.issue_cycle == producer.complete_cycle

    def test_register_zero_never_mapped(self):
        trace = build_trace([("fp", 0, 1), ("alu", 9, 0)])
        processor, _ = watched_run(MachineConfig.nosq(), trace)
        writer, reader = processor.committed
        # Reading r0 waits for nothing, however slow its last "writer".
        assert reader.issue_cycle < writer.complete_cycle
        assert not processor.rename_map[0]

    def test_youngest_writer_wins(self):
        trace = build_trace([("fp", 8, 1), ("alu", 8, 2), ("alu", 9, 8)])
        processor, _ = watched_run(MachineConfig.nosq(), trace)
        old, new, consumer = processor.committed
        assert consumer.issue_cycle == new.complete_cycle
        assert consumer.issue_cycle < old.complete_cycle

    def test_squash_restores_older_writer(self):
        old, new = _entries([("alu", 8), ("alu", 8)])
        processor = Processor(MachineConfig.nosq())
        processor.rename_map[8] += [(0, old), (1, new)]
        _flushed(processor, [old, new], old)
        assert processor.rename_map[8] == [(0, old)]

    def test_retire_prunes_shadowed(self):
        writers = _entries([("alu", 8)] * 3)
        processor = Processor(MachineConfig.nosq())
        processor.rename_map[8] += [(e.seq, e) for e in writers]
        processor._prune_rename_map(1)
        # Writer 0 is shadowed by committed writer 1; 2 is in flight.
        assert processor.rename_map[8] == [(1, writers[1]), (2, writers[2])]

    def test_retire_sole_committed_writer(self):
        (writer,) = _entries([("alu", 8)])
        processor = Processor(MachineConfig.nosq())
        processor.rename_map[8].append((0, writer))
        processor._prune_rename_map(0)
        assert processor.rename_map[8] == []


class TestPhysicalRegisterFile:
    """Physical registers: ``free_pregs`` and ``preg_refs``."""

    def test_allocation_exhaustion(self):
        config = replace(MachineConfig.nosq(), phys_regs=NUM_ARCH_REGS + 2)
        processor, stats = watched_run(config, build_trace(MISS_THEN_ALU))
        assert processor.min_free_pregs == 0
        assert stats.dispatch_stall_cycles > 0

    def test_release_returns_register(self):
        processor = Processor(MachineConfig.nosq())
        processor.free_pregs = 0
        processor.preg_refs[0] = 1
        processor._release_preg(0)
        assert processor.free_pregs == 1
        assert processor.preg_refs == {}

    def test_smb_sharing_reference_counts(self):
        """The DEF and a bypassed load share one register: it frees only
        after both release (Section 3.4 footnote)."""
        processor = Processor(MachineConfig.nosq())
        processor.free_pregs = 0
        processor.preg_refs[0] = 2      # the DEF plus one bypassed load
        processor._release_preg(0)      # DEF commits
        assert processor.free_pregs == 0
        processor._release_preg(0)      # load commits
        assert processor.free_pregs == 1

    def test_release_unknown_is_noop(self):
        processor = Processor(MachineConfig.nosq())
        free = processor.free_pregs
        processor._release_preg(99)
        assert processor.free_pregs == free

    def test_needs_headroom(self):
        config = replace(MachineConfig.nosq(), phys_regs=NUM_ARCH_REGS)
        with pytest.raises(ValueError, match="phys_regs"):
            Processor(config)


class TestPortSchedule:
    """Issue ports: ``port_slots`` booked by ``_reserve_port``."""

    def test_class_limit(self):
        processor = Processor(MachineConfig.nosq())
        assert processor._reserve_port(OpClass.LOAD, 5) == 5
        assert processor._reserve_port(OpClass.LOAD, 5) == 6  # 1 load/cycle

    def test_total_width_limit(self):
        processor = Processor(MachineConfig.nosq())
        for _ in range(4):
            assert processor._reserve_port(OpClass.ALU, 1) == 1
        assert processor._reserve_port(OpClass.COMPLEX, 1) == 2  # width cap

    def test_classes_independent_within_width(self):
        processor = Processor(MachineConfig.nosq())
        for op in (OpClass.LOAD, OpClass.STORE, OpClass.BRANCH):
            assert processor._reserve_port(op, 3) == 3

    def test_alu_four_per_cycle(self):
        processor = Processor(MachineConfig.nosq())
        cycles = [processor._reserve_port(OpClass.ALU, 9) for _ in range(5)]
        assert cycles == [9, 9, 9, 9, 10]

    def test_used_introspection(self):
        processor = Processor(MachineConfig.nosq())
        processor._reserve_port(OpClass.COMPLEX, 2)
        used = processor.port_slots[2]
        assert used[OpClass.COMPLEX] == 1
        assert used[-1] == 1


class TestIssueQueueTracker:
    """The issue queue: ``iq_heap`` and ``iq_unscheduled``."""

    def test_occupancy_drains_at_issue(self):
        config = replace(MachineConfig.nosq(), iq_size=1)
        trace = build_trace([("alu", 8 + i) for i in range(6)])
        processor, _ = watched_run(config, trace)
        assert processor.peak["iq"] == 1
        committed = processor.committed
        # Each entry frees its slot exactly at its issue cycle.
        for older, younger in zip(committed, committed[1:]):
            assert younger.dispatch_cycle == older.issue_cycle

    def test_unscheduled_holds_space(self):
        # The load partially overlaps an in-flight store, so it waits in
        # the issue queue, unscheduled, until the store drains; the
        # one-entry queue admits nothing behind it meanwhile.
        config = replace(MachineConfig.conventional(), iq_size=1)
        trace = build_trace([("st", 0x100, 1, 8), ("ld", 0x100, 2),
                             ("alu", 9)])
        processor, _ = watched_run(config, trace)
        store, load, alu = processor.committed
        assert load.issue_cycle > store.complete_cycle
        assert alu.dispatch_cycle >= load.issue_cycle

    def test_remove_unscheduled(self):
        victim, waiting = _entries([("alu", 8), ("alu", 9)])
        waiting.in_iq = True
        processor = Processor(MachineConfig.nosq())
        processor.iq_unscheduled = 1
        _flushed(processor, [victim, waiting], victim)
        assert processor.iq_unscheduled == 0

    def test_remove_scheduled(self):
        victim, booked = _entries([("alu", 8), ("alu", 9)])
        booked.in_iq = True
        booked.issue_cycle = 50
        processor = Processor(MachineConfig.nosq())
        processor.iq_heap.append(50)
        _flushed(processor, [victim, booked], victim)
        assert processor.iq_heap == []


#: Stores and loads to a few words, so the store queue fills and forwards.
STORE_LOAD_MIX = [
    spec
    for i in range(30)
    for spec in (("st", 0x8000 + 8 * (i % 4), 8, 8), ("ld", 0x8000 + 8 * (i % 3), 8))
]


class TestStoreQueue:
    """The store queue: ``Processor.sq``, and the reference search."""

    def test_age_order_enforced(self):
        # After every stage, the store queue holds exactly the ROB's
        # stores, oldest first.
        processor, _ = watched_run(
            MachineConfig.conventional(), build_trace(STORE_LOAD_MIX)
        )
        assert processor.peak["sq"] > 1
        assert processor.inconsistent == []

    def test_capacity(self):
        config = replace(MachineConfig.conventional(), sq_size=2)
        processor, stats = watched_run(config, build_trace(STORE_LOAD_MIX))
        assert processor.peak["sq"] == 2
        assert stats.sq_full_stalls > 0

    def test_commit_head_is_oldest(self):
        processor, _ = watched_run(
            MachineConfig.conventional(), build_trace(STORE_LOAD_MIX)
        )
        assert len(processor.sq_heads) == 30
        assert all(head == seq for head, seq in processor.sq_heads)

    def test_search_full_containment(self):
        trace = build_trace([("st", 0x100, 8, 8), ("ld", 0x104, 4)])
        assert search_store_queue(trace[:1], trace[1]) == ("full", trace[0])

    def test_search_youngest_wins(self):
        trace = build_trace([("st", 0x100, 8, 8), ("st", 0x100, 8, 8),
                             ("ld", 0x100, 8)])
        assert search_store_queue(trace[:2], trace[2]) == ("full", trace[1])

    def test_search_partial_two_stores(self):
        trace = build_trace([("st", 0x100, 1, 8), ("st", 0x101, 1, 8),
                             ("ld", 0x100, 2)])
        assert search_store_queue(trace[:2], trace[2]) == (
            "partial", trace[1]
        )

    def test_search_partial_coverage_with_memory(self):
        trace = build_trace([("st", 0x100, 1, 8), ("ld", 0x100, 2)])
        assert search_store_queue(trace[:1], trace[1])[0] == "partial"

    def test_search_ignores_younger_stores(self):
        trace = build_trace([("ld", 0x100, 8), ("st", 0x100, 8, 8)])
        assert search_store_queue(trace[1:], trace[0]) == ("none", None)

    def test_search_none(self):
        trace = build_trace([("st", 0x200, 8, 8), ("ld", 0x100, 8)])
        assert search_store_queue(trace[:1], trace[1]) == ("none", None)

    def test_squash_younger(self):
        victim, younger = _entries([("alu", 8), ("alu", 9)])
        processor = Processor(MachineConfig.conventional())
        processor.sq.extend([0, 3])
        _flushed(processor, [victim, younger], victim)
        assert list(processor.sq) == [0]


#: Independent loads behind a miss: they pile up in the load queue.
MISS_THEN_LOADS = [("ld", 0x9000, 8)] + [
    ("ld", 0x8000 + 8 * (i % 8), 8) for i in range(40)
]


class TestLoadQueueTracker:
    """The load queue: ``lq_occupancy``, bounded by ``lq_size``."""

    def test_capacity(self):
        config = replace(MachineConfig.conventional(), lq_size=2)
        processor, _ = watched_run(config, build_trace(MISS_THEN_LOADS))
        assert processor.peak["lq"] == 2

    def test_unlimited_mode(self):
        config = MachineConfig.nosq()
        assert config.lq_size is None
        processor, _ = watched_run(config, build_trace(MISS_THEN_LOADS))
        assert processor.peak["lq"] > 2

    def test_remove(self):
        victim, load = _entries([("alu", 8), ("ld", 0x100, 8)])
        processor = Processor(MachineConfig.conventional())
        processor.lq_occupancy = 1
        _flushed(processor, [victim, load], victim)
        assert processor.lq_occupancy == 0
