"""Tests for trace serialization."""

import gzip
import json

import pytest

from repro.isa.tracefile import (
    TraceFormatError,
    load_trace,
    save_trace,
)
from repro.pipeline import MachineConfig, Processor
from repro.workloads import generate_trace
from tests.conftest import build_trace


class TestRoundTrip:
    def test_fields_survive(self, tmp_path):
        trace = build_trace([
            ("alu", 8),
            ("st", 0x100, 2, 8),
            ("ld", 0x100, 2, {"signed": True}),
            ("br", True),
            ("call",),
            ("ret", 0x1010),
        ])
        path = tmp_path / "t.trace.gz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for original, reloaded in zip(trace, loaded):
            for name in ("seq", "pc", "op", "srcs", "dst", "addr", "size",
                         "signed", "taken", "target", "is_call", "is_return",
                         "store_seq", "src_stores", "containing_store",
                         "dist_insns"):
                assert getattr(original, name) == getattr(reloaded, name), name

    def test_generated_workload_roundtrip(self, tmp_path):
        trace = generate_trace("applu", num_instructions=2_000)
        path = tmp_path / "applu.trace.gz"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)

    def test_simulation_identical_on_reload(self, tmp_path):
        """A reloaded trace must simulate to the exact same cycle count."""
        trace = generate_trace("g721.e", num_instructions=3_000)
        path = tmp_path / "g.trace.gz"
        save_trace(trace, path)
        loaded = load_trace(path)
        original = Processor(MachineConfig.nosq()).run(trace)
        reloaded = Processor(MachineConfig.nosq()).run(loaded)
        assert original.cycles == reloaded.cycles
        assert original.flushes == reloaded.flushes

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trace.gz"
        save_trace([], path)
        assert load_trace(path) == []


class TestErrors:
    def test_not_a_trace_file(self, tmp_path):
        path = tmp_path / "bad.trace.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(TraceFormatError, match="not a repro trace"):
            load_trace(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v99.trace.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(
                json.dumps({"format": "repro-trace", "version": 99}) + "\n"
            )
        with pytest.raises(TraceFormatError, match="unsupported version"):
            load_trace(path)

    def test_truncated_file(self, tmp_path):
        trace = build_trace([("alu", 8)] * 4)
        path = tmp_path / "t.trace.gz"
        save_trace(trace, path)
        # Rewrite with a lying header.
        content = gzip.open(path, "rt").read().splitlines()
        header = json.loads(content[0])
        header["instructions"] = 99
        with gzip.open(path, "wt") as stream:
            stream.write(json.dumps(header) + "\n")
            stream.write("\n".join(content[1:]) + "\n")
        with pytest.raises(TraceFormatError, match="header says 99"):
            load_trace(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "m.trace.gz"
        with gzip.open(path, "wt") as stream:
            stream.write(
                json.dumps({"format": "repro-trace", "version": 1}) + "\n"
            )
            stream.write('{"seq": 0}\n')
        with pytest.raises(TraceFormatError, match="malformed record"):
            load_trace(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "g.trace.gz"
        with gzip.open(path, "wt") as stream:
            stream.write("not json\n")
        with pytest.raises(TraceFormatError, match="bad header"):
            load_trace(path)
