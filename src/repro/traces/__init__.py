"""Trace ingestion: where traces come from, and the one file format.

Decouples where traces come from (synthetic profiles, the workload zoo,
saved trace files, external capture tools) from the timing model that
consumes them — the trace-capture/replay split standard in architecture
simulators (gem5's SynchroTrace tester is the pattern's reference):

* :mod:`repro.traces.source` — the :class:`TraceSource` abstraction;
  campaign benchmark ids (``gzip``, ``zoo.pchase``, ``trace:<path>``,
  ``extern:<path>``) all resolve through :func:`resolve_source`, and
  :func:`source_identity` is what the campaign cache folds into job keys;
* :mod:`repro.traces.binformat` — the native v2 binary packed trace
  format (struct-packed records, zlib-framed blocks, index footer) with a
  streaming reader/writer;
* :mod:`repro.traces.importers` — converters from external event-trace
  formats (SynchroTrace-style compute/read/write/dependency events) into
  annotated :class:`~repro.isa.trace.DynInst` streams;
* :mod:`repro.traces.reprocase` — minimal-repro serialization for
  differential-validation failures (a v2 trace plus a JSON sidecar
  recording the config, violated invariants and fuzz coordinates).

Malformed input of every kind raises :class:`TraceFormatError`.
``repro trace record|convert|info|validate`` exposes the subsystem on the
command line; see ``docs/traces.md`` for the format specification and the
importer field mapping.
"""

from repro.traces.binformat import (
    BINARY_VERSION,
    BinaryTraceWriter,
    TraceFormatError,
    is_binary_trace,
    load_trace,
    read_trace,
    trace_info,
    write_trace,
)
from repro.traces.importers import import_synchrotrace
from repro.traces.reprocase import (
    ReproCase,
    load_repro_case,
    save_repro_case,
)
from repro.traces.source import (
    ExternalTraceSource,
    FileTraceSource,
    GeneratorSource,
    SyntheticSource,
    TraceSource,
    known_benchmark_ids,
    resolve_source,
    source_identity,
)
from repro.workloads.zoo import ZOO_BENCHMARKS

__all__ = [
    "BINARY_VERSION",
    "BinaryTraceWriter",
    "ExternalTraceSource",
    "FileTraceSource",
    "GeneratorSource",
    "ReproCase",
    "SyntheticSource",
    "TraceFormatError",
    "TraceSource",
    "ZOO_BENCHMARKS",
    "import_synchrotrace",
    "is_binary_trace",
    "known_benchmark_ids",
    "load_repro_case",
    "load_trace",
    "read_trace",
    "save_repro_case",
    "resolve_source",
    "source_identity",
    "trace_info",
    "write_trace",
]
