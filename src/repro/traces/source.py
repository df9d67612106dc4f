"""Named trace sources: one abstraction over every way to get a trace.

A :class:`TraceSource` produces annotated dynamic-instruction traces for
the simulator.  Every *benchmark id* used by campaigns, the CLI and the
harness resolves through :func:`resolve_source`, from a fixed table:

===============  ======================================================
benchmark id     resolves to
===============  ======================================================
``gzip``         :class:`SyntheticSource` (a Table 5 profile; the
                 historical namespace, unchanged)
``zoo.pchase``   a :class:`GeneratorSource` over a workload-zoo family
                 (:data:`repro.workloads.zoo.FAMILIES`)
``trace:PATH``   :class:`FileTraceSource` — a saved v2 trace file
``extern:PATH``  :class:`ExternalTraceSource` — an external event trace
                 run through the SynchroTrace-style importer
===============  ======================================================

There is no runtime registration: the table is the same in every
process, and ``trace:``/``extern:`` ids embed the path, so campaign
worker processes resolve ids exactly as the parent does.

Every source also reports a :meth:`TraceSource.content_id`: the part of
its identity that the benchmark id, scale and seed do not capture.  File
sources hash their bytes, generator families version their code; the
campaign cache folds this into job keys so a swapped trace file can never
be served a stale result.  Synthetic profiles return ``None`` (their id +
scale + seed is their full identity), keeping historical cache keys
byte-stable.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.isa.trace import DynInst

if TYPE_CHECKING:  # circular at runtime: harness.runner uses this module
    from repro.harness.runner import ExperimentScale

class TraceSource:
    """One named producer of annotated traces."""

    #: Benchmark id this source answers to.
    name: str

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        """Produce the annotated trace for *scale*/*seed*."""
        raise NotImplementedError

    def content_id(self) -> str | None:
        """Identity beyond (name, scale, seed); ``None`` if fully covered."""
        return None

    def describe(self) -> str:
        return self.name


class SyntheticSource(TraceSource):
    """A calibrated Table 5 profile driving the synthetic generator."""

    def __init__(self, name: str) -> None:
        from repro.workloads.profiles import profile

        self.name = name
        self._profile = profile(name)

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        from repro.workloads.generator import SyntheticWorkload

        workload = SyntheticWorkload(self._profile, seed=seed)
        return workload.generate(scale.num_instructions)

    def describe(self) -> str:
        return f"synthetic profile {self.name} ({self._profile.suite})"


class GeneratorSource(TraceSource):
    """A deterministic generator function ``fn(num_instructions, seed)``."""

    def __init__(
        self,
        name: str,
        generate: Callable[[int, int], list[DynInst]],
        description: str = "",
        *,
        version: int,
    ) -> None:
        self.name = name
        self._generate = generate
        self.description = description
        self.version = version

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        return self._generate(scale.num_instructions, seed)

    def content_id(self) -> str:
        return f"generator:{self.name}:v{self.version}"

    def describe(self) -> str:
        return self.description or f"generator {self.name}"


#: (resolved path, mtime_ns, size) -> sha256 hexdigest.  job_key hashes
#: a file source once per job per process; memoizing on the stat
#: signature makes repeats free while an overwritten file (new mtime or
#: size) still re-hashes, so cache keys track content.
_FILE_HASHES: dict[tuple[str, int, int], str] = {}


def _hash_file(path: Path) -> str:
    try:
        stat = path.stat()
    except OSError as exc:
        raise FileNotFoundError(f"trace source file {path}: {exc}") from exc
    key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    cached = _FILE_HASHES.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as stream:
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise FileNotFoundError(f"trace source file {path}: {exc}") from exc
    _FILE_HASHES[key] = digest.hexdigest()
    return _FILE_HASHES[key]


class FileTraceSource(TraceSource):
    """A saved native trace file (the v2 binary format).

    The trace's length is intrinsic to the file; the scale's
    ``num_instructions`` is ignored (``warmup`` still applies at
    simulation time), and so is the seed.
    """

    def __init__(self, path: str | Path, name: str | None = None) -> None:
        self.path = Path(path)
        self.name = name if name is not None else f"trace:{self.path}"

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        from repro.traces.binformat import load_trace

        return load_trace(self.path)

    def content_id(self) -> str:
        return f"sha256:{_hash_file(self.path)}"

    def describe(self) -> str:
        return f"saved trace file {self.path}"


class ExternalTraceSource(TraceSource):
    """An external (SynchroTrace-style) event trace, converted on load."""

    def __init__(self, path: str | Path, name: str | None = None) -> None:
        self.path = Path(path)
        self.name = name if name is not None else f"extern:{self.path}"

    def trace(self, scale: "ExperimentScale", seed: int) -> list[DynInst]:
        from repro.traces.importers import import_synchrotrace

        return import_synchrotrace(self.path)

    def content_id(self) -> str:
        return f"sha256-extern:{_hash_file(self.path)}"

    def describe(self) -> str:
        return f"imported external trace {self.path}"


_SYNTHETIC_CACHE: dict[str, SyntheticSource] = {}
_ZOO_CACHE: dict[str, GeneratorSource] = {}


def _zoo_source(benchmark_id: str) -> GeneratorSource:
    from repro.workloads.zoo import FAMILIES, ZOO_VERSION

    source = _ZOO_CACHE.get(benchmark_id)
    if source is None:
        generate, description = FAMILIES[benchmark_id[len("zoo."):]]
        source = _ZOO_CACHE.setdefault(benchmark_id, GeneratorSource(
            benchmark_id, generate,
            description=description, version=ZOO_VERSION,
        ))
    return source


def resolve_source(benchmark_id: str) -> TraceSource:
    """Resolve a campaign benchmark id to its trace source.

    Raises :class:`KeyError` for unknown ids and
    :class:`FileNotFoundError` for ``trace:``/``extern:`` paths that do
    not exist.
    """
    from repro.workloads.profiles import PROFILES
    from repro.workloads.zoo import ZOO_BENCHMARKS

    if benchmark_id in PROFILES:
        source = _SYNTHETIC_CACHE.get(benchmark_id)
        if source is None:
            source = _SYNTHETIC_CACHE.setdefault(
                benchmark_id, SyntheticSource(benchmark_id)
            )
        return source
    if benchmark_id in ZOO_BENCHMARKS:
        return _zoo_source(benchmark_id)
    for prefix, cls in (("trace:", FileTraceSource),
                        ("extern:", ExternalTraceSource)):
        if benchmark_id.startswith(prefix):
            path = Path(benchmark_id[len(prefix):])
            if not path.is_file():
                raise FileNotFoundError(
                    f"{benchmark_id}: no such trace file: {path}"
                )
            return cls(path, name=benchmark_id)
    raise KeyError(
        f"unknown benchmark {benchmark_id!r}: not a synthetic profile, "
        "zoo.* family, 'trace:<path>' or 'extern:<path>'"
    )


def source_identity(benchmark_id: str) -> str | None:
    """The cache-key contribution of *benchmark_id*'s source, if any."""
    return resolve_source(benchmark_id).content_id()


def known_benchmark_ids() -> Iterator[str]:
    """Every non-path benchmark id: the profiles, then the zoo."""
    from repro.workloads.profiles import PROFILES
    from repro.workloads.zoo import ZOO_BENCHMARKS

    yield from PROFILES
    yield from ZOO_BENCHMARKS
