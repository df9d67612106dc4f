"""Tests for the trace format and ground-truth annotation."""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.isa.opcodes import OpClass
from repro.isa.trace import (
    MEMORY_SOURCE,
    DynInst,
    communication_stats,
)
from tests.conftest import build_trace

#: Random store/load mixes over a few overlapping 8-byte slots.
MEMORY_OPS = st.lists(
    st.tuples(
        st.booleans(),                      # store or load
        st.integers(min_value=0, max_value=40),  # slot
        st.sampled_from([1, 2, 4, 8]),
    ),
    min_size=1, max_size=60,
)


def memory_trace(ops):
    specs = []
    for is_store, slot, size in ops:
        addr = 0x1000 + 8 * slot
        if is_store:
            specs.append(("st", addr, size, 8))
        else:
            specs.append(("ld", addr, size))
    return build_trace(specs)


class TestAnnotation:
    def test_load_from_untouched_memory(self):
        trace = build_trace([("ld", 0x100, 8)])
        load = trace[0]
        assert load.src_stores == (MEMORY_SOURCE,) * 8
        assert not load.communicates
        assert load.containing_store == MEMORY_SOURCE
        assert load.dist_insns == -1

    def test_single_containing_store(self):
        trace = build_trace([
            ("alu", 8),
            ("st", 0x100, 8, 8),
            ("ld", 0x100, 8),
        ])
        load = trace[2]
        assert load.containing_store == 0
        assert load.communicates
        assert not load.is_multi_source
        assert load.dist_insns == 1

    def test_partial_word_containment(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("ld", 0x104, 4),     # upper half of the store
        ])
        load = trace[1]
        assert load.containing_store == 0
        assert set(load.src_stores) == {0}

    def test_multi_source_detection(self):
        trace = build_trace([
            ("st", 0x100, 1, 8),
            ("st", 0x101, 1, 8),
            ("ld", 0x100, 2),
        ])
        load = trace[2]
        assert load.is_multi_source
        assert load.containing_store == MEMORY_SOURCE
        assert set(load.src_stores) == {0, 1}

    def test_partial_coverage_mixes_memory(self):
        trace = build_trace([
            ("st", 0x100, 1, 8),
            ("ld", 0x100, 2),     # byte 1 never written
        ])
        load = trace[1]
        assert set(load.src_stores) == {0, MEMORY_SOURCE}
        assert load.communicates
        assert load.containing_store == MEMORY_SOURCE

    def test_younger_store_shadows_older(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("st", 0x100, 8, 9),
            ("ld", 0x100, 8),
        ])
        assert trace[2].containing_store == 1

    def test_partial_overwrite_creates_multi_source(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("st", 0x100, 2, 9),   # overwrite low halfword
            ("ld", 0x100, 8),
        ])
        load = trace[2]
        assert load.is_multi_source
        assert set(load.src_stores) == {0, 1}

    def test_store_seq_dense(self):
        trace = build_trace([
            ("st", 0x100, 8, 8),
            ("alu", 8),
            ("st", 0x108, 8, 8),
        ])
        assert trace[0].store_seq == 0
        assert trace[2].store_seq == 1

    @given(MEMORY_OPS)
    @settings(max_examples=60)
    def test_against_naive_byte_reference(self, ops):
        """annotate_trace must agree with a direct per-byte replay."""
        trace = memory_trace(ops)

        last_writer: dict[int, int] = {}
        store_count = 0
        for inst in trace:
            if inst.is_store:
                for byte in range(inst.addr, inst.addr + inst.size):
                    last_writer[byte] = store_count
                store_count += 1
            elif inst.is_load:
                expected = tuple(
                    last_writer.get(b, MEMORY_SOURCE)
                    for b in range(inst.addr, inst.addr + inst.size)
                )
                assert inst.src_stores == expected


class TestCommunicationStats:
    def test_window_cutoff(self):
        specs = [("st", 0x100, 8, 8)]
        specs += [("alu", 8)] * 200
        specs += [("ld", 0x100, 8)]
        stats = communication_stats(build_trace(specs), window=128)
        assert stats.communicating_loads == 0
        stats = communication_stats(build_trace(specs), window=256)
        assert stats.communicating_loads == 1

    def test_partial_word_counting(self):
        trace = build_trace([
            ("st", 0x100, 8, 8), ("ld", 0x100, 4),   # narrow load: partial
            ("st", 0x200, 8, 8), ("ld", 0x200, 8),   # full word
            ("st", 0x300, 2, 8), ("ld", 0x300, 2),   # narrow store: partial
        ])
        stats = communication_stats(trace)
        assert stats.loads == 3
        assert stats.communicating_loads == 3
        assert stats.partial_word_loads == 2

    def test_percentages(self):
        trace = build_trace([
            ("st", 0x100, 8, 8), ("ld", 0x100, 8), ("ld", 0x900, 8),
        ])
        stats = communication_stats(trace)
        assert stats.pct_communicating == 50.0

    def test_multi_source_counted(self):
        trace = build_trace([
            ("st", 0x100, 1, 8), ("st", 0x101, 1, 8), ("ld", 0x100, 2),
        ])
        stats = communication_stats(trace)
        assert stats.multi_source_loads == 1
        assert stats.partial_word_loads == 1


    @given(MEMORY_OPS, st.integers(min_value=0, max_value=80))
    @settings(max_examples=60)
    def test_matches_per_load_definition(self, ops, window):
        """The one-pass walk counts what the per-load properties say."""
        trace = memory_trace(ops)
        sizes = {i.store_seq: i.size for i in trace if i.is_store}
        window_loads = [
            i for i in trace
            if i.communicates and 0 <= i.dist_insns <= window
        ]
        stats = communication_stats(iter(trace), window=window)
        assert stats.loads == sum(i.is_load for i in trace)
        assert stats.stores == len(sizes)
        assert stats.communicating_loads == len(window_loads)
        assert stats.multi_source_loads == sum(
            i.is_multi_source for i in window_loads
        )
        assert stats.partial_word_loads == sum(
            i.size < 8 or any(
                sizes[s] < 8 for s in i.src_stores if s != MEMORY_SOURCE
            )
            for i in window_loads
        )


class TestDynInstProperties:
    def test_kind_properties(self):
        trace = build_trace([("alu", 8), ("st", 0x0, 8, 8), ("ld", 0x0, 8), ("br", True)])
        assert not trace[0].is_load and not trace[0].is_store
        assert trace[1].is_store
        assert trace[2].is_load
        assert trace[3].is_branch

    def test_kind_flags_follow_op(self):
        for op in OpClass:
            inst = DynInst(seq=0, pc=0, op=op)
            assert inst.is_load == (op is OpClass.LOAD)
            assert inst.is_store == (op is OpClass.STORE)
            assert inst.is_branch == (op is OpClass.BRANCH)
            assert inst.port == int(op)

    def test_replace_recomputes_kind_flags(self):
        load = build_trace([("ld", 0x40, 8)])[0]
        store = dataclasses.replace(load, op=OpClass.STORE, seq=7)
        assert store.is_store and not store.is_load and store.port == 4
        assert store.seq == 7 and store.addr == load.addr
        assert dataclasses.replace(load) == load

    def test_field_order(self):
        """perfbench fingerprints traces by this field order."""
        assert [f.name for f in dataclasses.fields(DynInst)] == [
            "seq", "pc", "op", "srcs", "dst", "lat", "addr", "size",
            "signed", "fp_convert", "taken", "target", "is_call",
            "is_return", "store_seq", "src_stores", "containing_store",
            "dist_insns", "unique_stores", "path_hist", "is_load",
            "is_store", "is_branch", "port",
        ]
