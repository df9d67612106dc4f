"""Tests for the trace-ingestion subsystem (repro.traces).

The contracts under test:

* the v2 binary format round-trips annotated traces bit-identically
  (every field, derived annotations included), and its reader rejects
  every corruption it can see instead of loading a different trace;
* a simulation of a reloaded binary trace produces RunStats identical to
  the generated original (the cache-equals-recompute guarantee extended
  to trace files);
* the SynchroTrace-style importer matches its committed golden fixture
  and reports malformed or unreadable input as one TraceFormatError;
* trace sources resolve benchmark ids uniformly and contribute content
  hashes to campaign cache keys, so swapped file bytes can never be
  served stale results.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import hashlib
import json
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.experiments import CampaignSpec, Job, ResultCache, job_key, run_campaign
from repro.harness.runner import ExperimentScale
from repro.isa.instructions import NUM_ARCH_REGS
from repro.isa.trace import MEMORY_SOURCE, DynInst
from repro.pipeline import MachineConfig, Processor
from repro.traces import (
    GeneratorSource,
    TraceFormatError,
    binformat,
    import_synchrotrace,
    is_binary_trace,
    load_trace,
    read_trace,
    resolve_source,
    source_identity,
    trace_info,
    write_trace,
)
from repro.workloads import generate_trace
from repro.workloads.zoo import FAMILIES, ZOO_BENCHMARKS, generate_zoo_trace
from tests.conftest import build_trace

DATA = Path(__file__).parent / "data"
#: SHA-256 of write_trace for 8,000 gzip instructions (seed 17): the
#: on-disk bytes of the v2 format are pinned.
GZIP_8000_SHA256 = (
    "91f504aa75becafe7326bacea3d54d5d9eade3d152576bb4dcb915427beaafd7"
)
SAMPLE = DATA / "sample_synchrotrace.txt"

#: Every DynInst field that must survive serialization, derived
#: annotations included.
FIELDS = (
    "seq", "pc", "op", "srcs", "dst", "lat", "addr", "size", "signed",
    "fp_convert", "taken", "target", "is_call", "is_return", "store_seq",
    "src_stores", "containing_store", "dist_insns", "unique_stores",
    "path_hist",
)


def assert_traces_identical(expected, actual):
    assert len(expected) == len(actual)
    for original, reloaded in zip(expected, actual):
        for name in FIELDS:
            assert getattr(original, name) == getattr(reloaded, name), (
                f"{name} diverged at seq {original.seq}"
            )


class TestBinaryRoundTrip:
    def test_all_fields_survive(self, tmp_path):
        trace = build_trace([
            ("alu", 8),
            ("st", 0x100, 2, 8),
            ("st", 0x102, 1, 8),
            ("ld", 0x100, 2, {"signed": True}),
            ("ld", 0x100, 4),
            ("fp", 34, 34, {"fp_convert": True}),
            ("br", True),
            ("call",),
            ("ret", 0x1010),
            ("nop",),
        ])
        path = tmp_path / "t.bt"
        write_trace(trace, path)
        assert_traces_identical(trace, load_trace(path))

    def test_generated_workload_bit_identical(self, tmp_path):
        trace = generate_trace("g721.e", num_instructions=3_000)
        path = tmp_path / "g.bt"
        write_trace(trace, path)
        assert is_binary_trace(path)
        assert_traces_identical(trace, load_trace(path))

    def test_multiblock_and_streaming_reader(self, tmp_path):
        trace = generate_trace("gzip", num_instructions=2_000)
        path = tmp_path / "g.bt"
        write_trace(trace, path, block_records=128)
        info = trace_info(path)
        assert info["instructions"] == len(trace)
        assert info["blocks"] == -(-len(trace) // 128)
        # The streaming reader restores every field, path_hist included
        # (its walk is carried across blocks).
        assert_traces_identical(trace, list(read_trace(path)))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.bt"
        write_trace([], path)
        assert load_trace(path) == []
        assert trace_info(path)["instructions"] == 0

    def test_v2_at_least_3x_smaller_than_v1(self, tmp_path):
        """The size bar: 8,000 gzip instructions (seed 17) fit in a third
        of the 91,980 bytes the retired gzip-JSONL encoding took."""
        trace = generate_trace("gzip", num_instructions=8_000, seed=17)
        path = tmp_path / "t.bt"
        write_trace(trace, path)
        size = path.stat().st_size
        assert size <= 30_660, f"v2 file is {size} bytes"


class TestRunStatsIdentity:
    def test_reloaded_binary_simulates_identically(self, tmp_path):
        """RunStats of a generated trace and its reloaded v2 form match
        counter for counter."""
        trace = generate_trace("g721.e", num_instructions=3_000)
        path = tmp_path / "g.bt"
        write_trace(trace, path)
        reloaded = load_trace(path)
        for config in (MachineConfig.nosq(), MachineConfig.conventional()):
            original = Processor(config).run(trace, warmup=1_000)
            again = Processor(config).run(reloaded, warmup=1_000)
            assert vars(original) == vars(again), config.name


class TestBinaryErrors:
    def _write_sample(self, path, block_records=64):
        trace = generate_trace("gzip", num_instructions=500)
        write_trace(trace, path, block_records=block_records)
        return trace

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(path)

    def test_corrupt_block_detected_by_checksum(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = bytearray(path.read_bytes())
        data[100] ^= 0xFF  # inside the first block's payload
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="checksum|corrupt"):
            load_trace(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.bt"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # version u16 lives right after the magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="unsupported version"):
            load_trace(path)

    def test_missing_trailer(self, tmp_path):
        path = tmp_path / "t.bt"
        self._write_sample(path)
        data = path.read_bytes()
        path.write_bytes(data[:-4] + b"XXXX")
        with pytest.raises(TraceFormatError, match="index trailer"):
            trace_info(path)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_frame_record_count_must_match_payload(self, tmp_path, delta):
        # The frame's record count (bytes 36..39 of the first frame) is
        # outside the crc; a count one off must not load one instruction
        # more or less.
        path = tmp_path / "t.bt"
        trace = generate_zoo_trace("overlap", 600, seed=17)
        write_trace(trace, path, block_records=128)
        data = bytearray(path.read_bytes())
        count = int.from_bytes(data[36:40], "little")
        assert count == 128
        data[36:40] = (count + delta).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="declares"):
            load_trace(path)

    def test_header_count_must_match_blocks(self, tmp_path):
        path = tmp_path / "t.bt"
        trace = self._write_sample(path, block_records=128)
        data = bytearray(path.read_bytes())
        # The u64 instruction count follows magic, version and flags.
        data[8:16] = (len(trace) - 10).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="header says"):
            load_trace(path)

    def test_unannotated_store_reference_rejected(self, tmp_path):
        trace = build_trace([("st", 0x40, 8, 8), ("ld", 0x40, 8)])
        trace[1].src_stores = (5,)  # references a store that never ran
        with pytest.raises(TraceFormatError, match="future store|precede"):
            write_trace(trace, tmp_path / "bad.bt")
        # A failed write must not leave a loadable truncated file behind.
        assert not (tmp_path / "bad.bt").exists()

    def test_failed_writer_body_unlinks_partial_file(self, tmp_path):
        from repro.traces.binformat import BinaryTraceWriter

        trace = build_trace([("alu", 8)] * 600)
        path = tmp_path / "partial.bt"
        with pytest.raises(RuntimeError, match="boom"):
            with BinaryTraceWriter(path, block_records=64) as writer:
                for inst in trace[:200]:
                    writer.write(inst)
                raise RuntimeError("boom")
        assert not path.exists()


def _read_blocks(data: bytes) -> list[tuple[int, bytes]]:
    """(record count, decompressed payload) of every block of a v2 file."""
    index_offset, entries, _ = binformat._TRAILER.unpack(
        data[-binformat._TRAILER.size:]
    )
    blocks = []
    for entry in range(entries):
        offset, records, comp_len = binformat._INDEX_ENTRY.unpack_from(
            data, index_offset + entry * binformat._INDEX_ENTRY.size
        )
        start = offset + binformat._FRAME.size
        blocks.append((records, zlib.decompress(data[start:start + comp_len])))
    return blocks


def _v2_file(blocks: list[tuple[int, bytes]], block_records: int) -> bytes:
    """A v2 file framing *blocks* with valid crcs, index and trailer."""
    count = sum(records for records, _ in blocks)
    out = bytearray(binformat._HEADER.pack(
        binformat.MAGIC, binformat.BINARY_VERSION, 0, count, block_records
    ))
    index = []
    for records, raw in blocks:
        packed = zlib.compress(raw, 9)
        index.append((len(out), records, len(packed)))
        out += binformat._FRAME.pack(len(packed), records, zlib.crc32(packed))
        out += packed
    index_offset = len(out)
    for entry in index:
        out += binformat._INDEX_ENTRY.pack(*entry)
    out += binformat._TRAILER.pack(
        index_offset, len(index), binformat.TRAILER_MAGIC
    )
    return bytes(out)


@functools.lru_cache(maxsize=None)
def _flip_sample() -> list[tuple[int, bytes]]:
    """The blocks of a 300-instruction zoo.overlap trace (seed 3)."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "sample.bt"
        write_trace(generate_zoo_trace("overlap", 300, seed=3), path,
                    block_records=128)
        data = path.read_bytes()
    assert _v2_file(_read_blocks(data), 128) == data
    return _read_blocks(data)


def _assert_well_formed(trace, count):
    """The invariants the timing model relies on and the reader checks."""
    assert len(trace) == count
    stores = 0
    for inst in trace:
        registers = inst.srcs if inst.dst is None else (inst.dst, *inst.srcs)
        assert all(0 <= reg < NUM_ARCH_REGS for reg in registers)
        if inst.is_load or inst.is_store:
            assert inst.addr is not None
        assert (inst.store_seq >= 0) == inst.is_store
        assert all(MEMORY_SOURCE <= s < stores for s in inst.src_stores)
        stores += inst.is_store


def _bad_dst(trace):
    trace[0].dst = NUM_ARCH_REGS


def _bad_src(trace):
    trace[4].srcs = (8, 200)


def _load_without_addr(trace):
    trace[2].addr = None


def _store_without_addr(trace):
    trace[1].addr = None


def _store_seq_on_alu(trace):
    trace[4].store_seq = 2


def _store_without_store_seq(trace):
    trace[3].store_seq = -1


def _uniform_distance_too_far(trace):
    trace[2].src_stores = (-5,) * 8


def _byte_distance_too_far(trace):
    trace[2].src_stores = (0,) * 7 + (-5,)


class TestDecoderChecks:
    """A record that decodes but breaks an invariant the timing model
    relies on is a TraceFormatError at load, not a crash mid-simulation."""

    @pytest.mark.parametrize("corrupt,message", [
        (_bad_dst, "instruction 0: register 64"),
        (_bad_src, "instruction 4: register 200"),
        (_load_without_addr, "instruction 2: load or store without"),
        (_store_without_addr, "instruction 1: load or store without"),
        (_store_seq_on_alu, "instruction 4: store_seq on a non-store"),
        (_store_without_store_seq, "instruction 3: store without a"),
        (_uniform_distance_too_far, "instruction 2: source store distance 6"),
        (_byte_distance_too_far, "instruction 2: source store distance 6"),
    ], ids=["dst", "src", "load-addr", "store-addr", "store-seq-extra",
            "store-seq-missing", "distance-uniform", "distance-per-byte"])
    def test_invalid_record_rejected(self, tmp_path, corrupt, message):
        trace = build_trace([
            ("alu", 8), ("st", 0x40, 8, 8), ("ld", 0x40, 8),
            ("st", 0x80, 8, 8), ("alu", 9, 8),
        ])
        corrupt(trace)
        path = tmp_path / "bad.bt"
        write_trace(trace, path)
        with pytest.raises(TraceFormatError) as excinfo:
            load_trace(path)
        assert str(excinfo.value).startswith(f"{path}: {message}")

    @settings(max_examples=300)
    @given(st.data())
    def test_one_bit_flip_rejected_or_well_formed(self, data):
        blocks = _flip_sample()
        which = data.draw(st.integers(0, len(blocks) - 1), label="block")
        records, raw = blocks[which]
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        mutated = list(blocks)
        mutated[which] = (records, bytes(flipped))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "flipped.bt"
            path.write_bytes(_v2_file(mutated, 128))
            try:
                trace = load_trace(path)
            except TraceFormatError:
                return
        _assert_well_formed(trace, sum(records for records, _ in blocks))


class TestByteIdentity:
    """The file bytes and the loaded instructions are pinned."""

    def test_write_trace_digest_pinned(self, tmp_path):
        path = tmp_path / "gzip.bt"
        write_trace(generate_trace("gzip", num_instructions=8_000, seed=17),
                    path)
        data = path.read_bytes()
        assert len(data) == 23_111
        assert hashlib.sha256(data).hexdigest() == GZIP_8000_SHA256

    @pytest.mark.parametrize("bench_id", ["gzip", "zoo.overlap", "zoo.fsm"])
    def test_load_equals_generated_on_every_field(self, tmp_path, bench_id):
        trace = resolve_source(bench_id).trace(
            ExperimentScale("pin", 3_000, 0), 17
        )
        path = tmp_path / "t.bt"
        write_trace(trace, path, block_records=512)
        names = [f.name for f in dataclasses.fields(DynInst)]

        def rows(insts):
            return [tuple(getattr(i, name) for name in names) for i in insts]

        assert rows(load_trace(path)) == rows(trace)

    @pytest.mark.parametrize("fixture", sorted(DATA.glob("*.bt")),
                             ids=lambda p: p.stem)
    def test_committed_fixture_reencodes_byte_for_byte(self, tmp_path,
                                                       fixture):
        copy = tmp_path / fixture.name
        write_trace(load_trace(fixture), copy,
                    block_records=trace_info(fixture)["block_records"])
        assert copy.read_bytes() == fixture.read_bytes()


class TestV1Errors:
    """Input that is not a v2 trace file at all."""

    def test_not_a_trace_at_all(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("plain text\n")
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)


class TestImporter:
    def test_sample_matches_golden(self):
        golden = json.loads(
            (DATA / "sample_synchrotrace.golden.json").read_text()
        )
        trace = import_synchrotrace(SAMPLE)
        assert len(trace) == golden["instructions"]
        assert sum(i.is_load for i in trace) == golden["loads"]
        assert sum(i.is_store for i in trace) == golden["stores"]
        assert sum(i.is_branch for i in trace) == golden["branches"]
        assert sum(
            1 for i in trace if i.is_load and i.communicates
        ) == golden["communicating_loads"]
        digest = hashlib.sha256()
        for i in trace:
            digest.update(repr((
                i.seq, i.pc, int(i.op), i.srcs, i.dst, i.lat, i.addr,
                i.size, i.signed, i.fp_convert, i.taken, i.target,
                i.is_call, i.is_return, i.store_seq, i.src_stores,
                i.containing_store, i.dist_insns, i.path_hist,
            )).encode())
        assert digest.hexdigest() == golden["digest"]

    def test_imported_trace_simulates(self):
        trace = import_synchrotrace(SAMPLE)
        stats = Processor(MachineConfig.nosq()).run(trace, warmup=1_000)
        assert stats.cycles > 0
        assert stats.bypassed_loads > 0  # comm events became bypasses

    def test_wide_accesses_split(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1,0,write,0x100,32\n2,0,read,0x100,32\n")
        trace = import_synchrotrace(path)
        stores = [i for i in trace if i.is_store]
        loads = [i for i in trace if i.is_load]
        assert [s.size for s in stores] == [8, 8, 8, 8]
        assert len(loads) == 4
        assert all(ld.communicates for ld in loads)

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "events.txt.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(SAMPLE.read_text())
        assert_traces_identical(
            import_synchrotrace(SAMPLE), import_synchrotrace(path)
        )

    def test_gzip_detected_by_magic_not_suffix(self, tmp_path):
        packed = tmp_path / "events.gzdata"
        packed.write_bytes(gzip.compress(SAMPLE.read_bytes()))
        plain = tmp_path / "events.gz"
        plain.write_bytes(SAMPLE.read_bytes())
        expected = import_synchrotrace(SAMPLE)
        assert_traces_identical(expected, import_synchrotrace(packed))
        assert_traces_identical(expected, import_synchrotrace(plain))

    @pytest.mark.parametrize("line,message", [
        ("1,0", "expected '<eid>,<tid>,<event>"),
        ("1,0,frobnicate,3", "unknown event kind"),
        ("1,0,comp,4", "expected 5 fields"),
        ("1,0,comp,x,0", "not an integer"),
        ("1,0,read,0x10,0", "byte count must be >= 1"),
        ("one,0,comp,1,0", "not an integer"),
    ])
    def test_malformed_lines_name_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text("1,0,comp,2,0\n" + line + "\n")
        with pytest.raises(TraceFormatError, match="line 2") as excinfo:
            import_synchrotrace(path)
        assert message.split("|")[0] in str(excinfo.value)

    @pytest.mark.parametrize("name,content", [
        ("latin1.txt", "1,0,comp,2,0\n# caf\xe9\n".encode("latin-1")),
        ("cut.txt.gz", gzip.compress(SAMPLE.read_bytes())[:200]),
        ("plain.txt", b"\x1f\x8b" + SAMPLE.read_bytes()),
    ], ids=["not-utf8", "truncated-gzip", "not-gzip"])
    def test_unreadable_file_names_the_path(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(TraceFormatError, match="cannot read") as excinfo:
            import_synchrotrace(path)
        assert str(path) in str(excinfo.value)


class TestSources:
    def test_synthetic_resolution_matches_generator(self):
        scale = ExperimentScale("tiny", 2_000, 500)
        source = resolve_source("gzip")
        assert_traces_identical(
            source.trace(scale, seed=17),
            generate_trace("gzip", scale.num_instructions, seed=17),
        )
        assert source.content_id() is None

    def test_zoo_families_resolve_and_generate(self):
        scale = ExperimentScale("tiny", 1_200, 0)
        for benchmark in ZOO_BENCHMARKS:
            source = resolve_source(benchmark)
            trace = source.trace(scale, seed=3)
            assert len(trace) >= 1_200, benchmark
            assert source.content_id().startswith("generator:"), benchmark

    def test_zoo_deterministic_per_seed(self):
        for family in FAMILIES:
            a = generate_zoo_trace(family, 800, seed=5)
            b = generate_zoo_trace(f"zoo.{family}", 800, seed=5)
            assert_traces_identical(a, b)
        assert len(FAMILIES) == 8

    def test_zoo_seeds_differ(self):
        a = generate_zoo_trace("hashjoin", 800, seed=1)
        b = generate_zoo_trace("hashjoin", 800, seed=2)
        assert [i.addr for i in a] != [i.addr for i in b]

    def test_trace_file_source(self, tmp_path):
        trace = generate_trace("applu", num_instructions=1_500)
        path = tmp_path / "a.bt"
        write_trace(trace, path)
        source = resolve_source(f"trace:{path}")
        scale = ExperimentScale("ignored", 10, 5)
        assert_traces_identical(trace, source.trace(scale, seed=99))
        assert source.content_id().startswith("sha256:")

    def test_extern_source(self):
        source = resolve_source(f"extern:{SAMPLE}")
        scale = ExperimentScale("ignored", 10, 5)
        assert len(source.trace(scale, 17)) > 0
        assert source.content_id().startswith("sha256-extern:")

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            resolve_source("no-such-benchmark")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            resolve_source("trace:/no/such/file.bt")

    def test_generator_source_version_in_content_id(self):
        source = GeneratorSource("x", lambda n, s: [], version=7)
        assert source.content_id() == "generator:x:v7"


class TestCacheKeys:
    SCALE = ExperimentScale("tiny", 1_000, 200)

    def _job(self, benchmark):
        return Job(
            benchmark=benchmark, config=MachineConfig.nosq(),
            scale=self.SCALE, seed=17,
        )

    def test_synthetic_key_has_no_source_field(self):
        assert source_identity("gzip") is None

    def test_trace_file_key_tracks_content(self, tmp_path):
        path = tmp_path / "t.bt"
        write_trace(generate_trace("gzip", num_instructions=600), path)
        key_before = job_key(self._job(f"trace:{path}"))
        assert key_before == job_key(self._job(f"trace:{path}"))
        # Swap the bytes behind the same path: the key must change.
        write_trace(generate_trace("mcf", num_instructions=600), path)
        assert job_key(self._job(f"trace:{path}")) != key_before

    def test_zoo_key_differs_from_synthetic(self):
        assert job_key(self._job("zoo.pchase")) != job_key(self._job("gzip"))


class TestCampaignIntegration:
    SCALE = ExperimentScale("tiny", 1_500, 500)

    def test_mixed_source_campaign_with_cache_hits(self, tmp_path):
        trace_file = tmp_path / "gzip.bt"
        write_trace(resolve_source("gzip").trace(self.SCALE, 17), trace_file)
        spec = CampaignSpec(
            benchmarks=[
                "gzip", "zoo.overlap", f"trace:{trace_file}",
                f"extern:{SAMPLE}",
            ],
            configs=[MachineConfig.nosq(), MachineConfig.conventional()],
            scale=self.SCALE,
            seeds=(17,),
        )
        cache = ResultCache(tmp_path / "cache")
        first = run_campaign(spec, cache=cache)
        assert first.executed == spec.num_jobs
        again = run_campaign(spec, cache=cache)
        assert again.executed == 0
        assert again.hits == spec.num_jobs
        for a, b in zip(first.records, again.records):
            assert a["run_stats"] == b["run_stats"]
        # A generated gzip trace and its v2 file produce identical stats.
        by_bench = {}
        for record in first.records:
            by_bench.setdefault(record["benchmark"], {})[
                record["config_name"]] = record["run_stats"]
        assert by_bench["gzip"] == by_bench[f"trace:{trace_file}"]

    def test_job_groups_ship_picklable_sources(self, tmp_path):
        """Workers use the group's resolved source, not registry state —
        it must survive pickling (the spawn-start worker transport)."""
        import pickle

        from repro.experiments import plan_campaign

        trace_file = tmp_path / "t.bt"
        write_trace(resolve_source("gzip").trace(self.SCALE, 17), trace_file)
        spec = CampaignSpec(
            benchmarks=["gzip", "zoo.overlap", f"trace:{trace_file}"],
            configs=[MachineConfig.nosq()],
            scale=self.SCALE,
        )
        _hits, groups = plan_campaign(spec, cache=None)
        assert all(group.source is not None for group in groups)
        for group in groups:
            revived = pickle.loads(pickle.dumps(group))
            trace = revived.source.trace(self.SCALE, 17)
            assert len(trace) > 0, group.benchmark

    def test_spec_rejects_missing_trace_file(self):
        with pytest.raises(ValueError, match="no such trace file"):
            CampaignSpec(
                benchmarks=["trace:/missing.bt"],
                configs=[MachineConfig.nosq()],
                scale=self.SCALE,
            )


class TestTraceCLI:
    def test_record_info_validate_convert(self, tmp_path, capsys):
        out = tmp_path / "z.bt"
        assert main([
            "trace", "record", "zoo.prodcons", "-n", "1000",
            "-o", str(out),
        ]) == 0
        assert is_binary_trace(out)
        assert main(["trace", "info", str(out)]) == 0
        assert "v2 binary" in capsys.readouterr().out
        assert main(["trace", "validate", str(out)]) == 0
        assert "OK" in capsys.readouterr().out
        copy = tmp_path / "copy.bt"
        assert main(["trace", "convert", str(out), str(copy)]) == 0
        assert copy.read_bytes() == out.read_bytes()

    def test_record_rejects_unknown_benchmark(self, tmp_path, capsys):
        assert main([
            "trace", "record", "nope", "-o", str(tmp_path / "x.bt"),
        ]) == 2
        err = capsys.readouterr().err
        # The message itself on one line, not the KeyError's repr.
        assert err.startswith("unknown benchmark 'nope'")
        assert len(err.strip().splitlines()) == 1

    def test_convert_imports_external(self, tmp_path):
        out = tmp_path / "sample.bt"
        assert main(["trace", "convert", str(SAMPLE), str(out)]) == 0
        assert_traces_identical(
            import_synchrotrace(SAMPLE), load_trace(out)
        )

    def test_convert_imports_gzipped_external(self, tmp_path):
        """The gzip magic alone must not shadow the importer fallback."""
        packed = tmp_path / "events.txt.gz"
        with gzip.open(packed, "wt") as stream:
            stream.write(SAMPLE.read_text())
        out = tmp_path / "sample.bt"
        assert main(["trace", "convert", str(packed), str(out)]) == 0
        assert_traces_identical(
            import_synchrotrace(SAMPLE), load_trace(out)
        )

    def test_validate_flags_stale_annotations(self, tmp_path, capsys):
        trace = build_trace([("st", 0x80, 8, 8), ("ld", 0x80, 8)])
        trace[1].dist_insns = 55  # stale on purpose
        path = tmp_path / "stale.bt"
        write_trace(trace, path)
        assert main(["trace", "validate", str(path)]) == 1
        assert "stale annotation" in capsys.readouterr().err

    def test_record_into_directory_exits_2(self, tmp_path, capsys):
        assert main([
            "trace", "record", "gzip", "-n", "500", "-o", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert "Is a directory" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args,status", [
        (["trace", "info", "{events}"], 2),
        (["trace", "validate", "{events}"], 1),
        (["trace", "convert", "{events}", "{tmp}/out.bt"], 2),
        (["run", "nosq", "extern:{events}", "-n", "500"], 2),
    ], ids=["info", "validate", "convert", "run"])
    def test_non_utf8_external_trace_is_one_line(self, tmp_path, capsys,
                                                 args, status):
        events = tmp_path / "events.txt"
        events.write_bytes(b"1,0,comp,2,0\n\xff\xfe\n")
        args = [a.format(events=events, tmp=tmp_path) for a in args]
        assert main(args) == status
        err = capsys.readouterr().err
        assert f"{events}: cannot read" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_validate_corrupt_file(self, tmp_path, capsys):
        path = tmp_path / "junk.bt"
        path.write_bytes(b"RTRC" + b"\x00" * 10)
        assert main(["trace", "validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_campaign_benchmark_filter_and_source(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(SAMPLE, "events.txt")
        assert main([
            "campaign", "run", "--benchmarks", "zoo.overl*",
            "--source", "extern:events.txt",
            "-n", "1200", "-w", "400", "--configs", "table5",
            "--cache-dir", str(tmp_path / "cache"), "-q",
        ]) == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out  # 2 benchmarks x 2 configs

    @pytest.mark.parametrize("prefix", ["trace", "extern"])
    def test_campaign_unloadable_file_exits_2(self, tmp_path, capsys,
                                              prefix):
        if prefix == "trace":
            path = tmp_path / "cut.bt"
            write_trace(generate_trace("gzip", 600), path)
            path.write_bytes(path.read_bytes()[:300])
        else:
            path = tmp_path / "cut.txt.gz"
            path.write_bytes(gzip.compress(SAMPLE.read_bytes())[:200])
        assert main([
            "campaign", "run", f"{prefix}:{path}", "-n", "1000",
            "--configs", "nosq", "--no-cache",
            "--store", str(tmp_path / "store.jsonl"), "-q",
        ]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_campaign_filter_matching_nothing(self, capsys):
        assert main([
            "campaign", "run", "--benchmarks", "zzz*", "-q",
        ]) == 2
        assert "matches no" in capsys.readouterr().err


def test_binformat_varint_roundtrip():
    out = bytearray()
    values = [0, 1, 127, 128, 300, 2 ** 20, 2 ** 40]
    for value in values:
        binformat._write_uvarint(out, value)
    offset = 0
    for value in values:
        got, offset = binformat._read_uvarint(bytes(out), offset)
        assert got == value
    # The column decoders: the one-byte fast path and the general loop.
    assert binformat._uvarints(bytes(out)) == values
    assert binformat._uvarints(bytes(range(128))) == list(range(128))
    with pytest.raises(ValueError, match="unterminated"):
        binformat._uvarints(bytes(out) + b"\x80")
    out = bytearray()
    signed = [0, -1, 1, -64, 64, -(2 ** 33), 2 ** 33]
    for value in signed:
        binformat._write_svarint(out, value)
    assert binformat._svarints(bytes(out)) == signed
