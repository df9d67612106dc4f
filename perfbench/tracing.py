"""Outside-in span tracing for the traced benchmark run.

The traced run wraps the public functions and methods of each layer of
the simulator at class or module level, records one span per call, and
restores every original afterwards.  Nothing under ``src/`` changes: the
wrappers live only in the traced run's process, for the duration of
:meth:`Tracer.installed`.

A span's *self* time is its duration minus the part covered by the spans
it encloses, so the self times of all spans in a phase plus the time no
span covers add up to the phase's wall time.  A layer's *total* time
counts only its outermost spans, so a component calling another
component of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: (module, class or None, attribute names, span name).  A span name is
#: ``<layer>.<component>``; the layer is the ``repro`` subpackage whose
#: public entry points the span times.
TARGETS: tuple[tuple[str, str | None, tuple[str, ...], str], ...] = (
    ("repro.workloads.generator", "SyntheticWorkload", ("generate",),
     "workloads.generate"),
    # Zoo families register their generator functions as GeneratorSource
    # callbacks, so the source's trace() is the call into the generator.
    ("repro.traces.source", "GeneratorSource", ("trace",),
     "workloads.generate"),
    ("repro.traces.source", "FileTraceSource", ("trace",), "traces.load"),
    ("repro.traces.source", None, ("resolve_source",), "traces.resolve"),
    ("repro.traces.binformat", None, ("write_trace",), "traces.write"),
    ("repro.isa.trace", None, ("communication_stats",), "isa.comm_stats"),
    ("repro.api.configs", None, ("resolve_config", "resolve_configs"),
     "api.resolve"),
    ("repro.api.facade", None, ("sweep",), "api.sweep"),
    ("repro.api.facade", None, ("simulate",), "api.simulate"),
    ("repro.pipeline.processor", "Processor", ("__init__",),
     "pipeline.construct"),
    ("repro.pipeline.processor", "Processor", ("run",), "pipeline.run"),
    ("repro.core.bypass_predictor", "BypassingPredictor",
     ("predict", "train"), "core.bypass_predictor"),
    ("repro.core.ssbf", "TaggedSSBF",
     ("update", "lookup", "youngest_store_ssn", "clear"), "core.ssbf"),
    ("repro.core.svw", "SVWFilter",
     ("store_commit", "test_nonbypassing", "test_bypassing"), "core.svw"),
    ("repro.core.srq", "StoreRegisterQueue",
     ("insert", "lookup", "retire", "squash_above", "clear"), "core.srq"),
    ("repro.core.commit_pipeline", "CommitPipeline",
     ("store_commit", "load_reexec", "flush_detect_cycle"),
     "core.commit_pipeline"),
    ("repro.predictors.store_sets", "StoreSets",
     ("store_renamed", "load_dependence", "store_retired",
      "train_violation", "clear"), "predictors.store_sets"),
    ("repro.memory.hierarchy", "MemoryHierarchy",
     ("read", "write", "probe", "drain"), "memory.hierarchy"),
    ("repro.memory.tlb", "TLB", ("access",), "memory.tlb"),
    ("repro.frontend.branch_predictor", "HybridBranchPredictor",
     ("predict_and_train",), "frontend.branch_predictor"),
    ("repro.frontend.branch_predictor", "BTB", ("lookup_and_update",),
     "frontend.btb"),
    ("repro.frontend.branch_predictor", "ReturnAddressStack",
     ("push", "pop", "predict_return"), "frontend.ras"),
    ("repro.experiments.scheduler", None, ("run_campaign",),
     "experiments.run_campaign"),
    ("repro.experiments.scheduler", None, ("plan_campaign",),
     "experiments.plan"),
    ("repro.experiments.cache", "ResultCache", ("get",),
     "experiments.cache_get"),
    ("repro.experiments.cache", "ResultCache", ("put",),
     "experiments.cache_put"),
    ("repro.experiments.store", "ResultStore", ("append",),
     "experiments.store_append"),
    ("repro.experiments.store", "ResultStore", ("load",),
     "experiments.store_load"),
    ("repro.experiments.store", None, ("collect_results",),
     "experiments.collect"),
    ("repro.validate.fuzz", None, ("run_fuzz",), "validate.run_fuzz"),
    ("repro.validate.fuzz", None, ("generate_ops", "ops_to_trace"),
     "validate.generate"),
    ("repro.validate.oracle", None, ("replay_oracle",), "validate.oracle"),
    ("repro.validate.diff", None, ("run_diff",), "validate.diff"),
    ("repro.validate.diff", None, ("run_validation",),
     "validate.validation"),
)

#: Layers in report order; every span name starts with one of them.
LAYERS = (
    "workloads", "traces", "isa", "api", "pipeline", "core", "predictors",
    "memory", "frontend", "experiments", "harness", "validate",
)

#: Span names whose calls return a trace; their instruction counts feed
#: the ``*_inst_per_s`` rates.
COUNTS_INSTRUCTIONS = ("workloads.generate", "traces.load")
#: Span names whose per-call durations are kept (for percentiles).
KEEPS_DURATIONS = ("pipeline.run",)


@dataclass
class SpanStats:
    """Accumulated spans of one name in one phase."""

    calls: int = 0
    total_s: float = 0.0      # outermost spans of this name only
    self_s: float = 0.0
    instructions: int = 0
    durations: list[float] = field(default_factory=list)


@dataclass
class Phase:
    """Everything recorded while one phase (set-up or pass) was active."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    layer_calls: dict[str, int] = field(default_factory=dict)
    layer_total_s: dict[str, float] = field(default_factory=dict)
    sim: dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0

    def span(self, name: str) -> SpanStats:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        return stats

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stats in self.spans.items():
            out[name.split(".", 1)[0]] += stats.self_s
        return out

    def unattributed_s(self) -> float:
        return self.wall_s - sum(s.self_s for s in self.spans.values())


#: Simulated counters summed over every Processor.run of a phase, read
#: from the returned RunStats (collected after each run's warmup).
SIM_COUNTERS = (
    "cycles", "instructions", "loads", "dispatch_stall_cycles", "flushes",
    "bypassed_loads", "delayed_loads", "reexecuted_loads",
    "flush_conv_violation", "ooo_dcache_reads", "backend_dcache_reads",
    "branch_mispredicts", "bypass_mispredictions",
)


class Tracer:
    """Span recorder plus the layer wrappers that feed it.

    Wrappers record into :attr:`phase` while it is set; with no phase
    they call straight through.  Outside :meth:`installed` no wrapper
    exists at all.
    """

    def __init__(self) -> None:
        self.phase: Phase | None = None
        # Child-time accumulators of the open spans, innermost last.
        self._stack: list[float] = []
        self._depth: dict[str, int] = {}      # open spans per name/layer
        # Processor whose run() is open, for the warmup-boundary snapshot.
        self._processor = None
        self._l1_at_warmup: tuple[int, int] = (0, 0)
        self._saved: list[tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------ #

    def _enter(self, name: str, layer: str) -> float:
        depth = self._depth
        depth[name] = depth.get(name, 0) + 1
        depth[layer] = depth.get(layer, 0) + 1
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, layer: str, started: float, result) -> None:
        elapsed = time.perf_counter() - started
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        depth = self._depth
        depth[name] -= 1
        depth[layer] -= 1
        phase = self.phase
        stats = phase.span(name)
        stats.calls += 1
        stats.self_s += elapsed - child
        if depth[name] == 0:
            stats.total_s += elapsed
        phase.layer_calls[layer] = phase.layer_calls.get(layer, 0) + 1
        if depth[layer] == 0:
            phase.layer_total_s[layer] = (
                phase.layer_total_s.get(layer, 0.0) + elapsed
            )
        if name in COUNTS_INSTRUCTIONS and isinstance(result, list):
            stats.instructions += len(result)
        if name in KEEPS_DURATIONS:
            stats.durations.append(elapsed)

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        if self.phase is None:
            yield
            return
        layer = name.split(".", 1)[0]
        started = self._enter(name, layer)
        try:
            yield
        finally:
            self._exit(name, layer, started, None)

    def _wrap(self, fn, name: str):
        tracer = self
        layer = name.split(".", 1)[0]

        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return fn(*args, **kwargs)
            started = tracer._enter(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(name, layer, started, result)

        return _mark(wrapper, fn)

    def _wrap_run(self, fn):
        """Processor.run: a span plus the simulated counters it returns."""
        tracer = self
        span_run = self._wrap(fn, "pipeline.run")

        def run(processor, *args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(processor, *args, **kwargs)
            tracer._processor = processor
            tracer._l1_at_warmup = (0, 0)
            try:
                stats = span_run(processor, *args, **kwargs)
            finally:
                tracer._processor = None
            sim = phase.sim
            for counter in SIM_COUNTERS:
                sim[counter] = sim.get(counter, 0) + getattr(stats, counter)
            # The L1 keeps counting through warmup; subtract the snapshot
            # taken when the run's statistics restarted.
            misses, accesses = _l1_counts(processor.hierarchy.l1.stats)
            warm_misses, warm_accesses = tracer._l1_at_warmup
            sim["l1_misses"] = sim.get("l1_misses", 0) + misses - warm_misses
            sim["l1_accesses"] = (
                sim.get("l1_accesses", 0) + accesses - warm_accesses
            )
            return stats

        return _mark(run, fn)

    def _wrap_stats_init(self, fn):
        """RunStats.__init__: the processor restarts its statistics at the
        end of warmup; snapshot the L1 counters at that moment."""
        tracer = self

        def __init__(stats, *args, **kwargs):
            fn(stats, *args, **kwargs)
            processor = tracer._processor
            if processor is not None:
                tracer._l1_at_warmup = _l1_counts(processor.hierarchy.l1.stats)

        return _mark(__init__, fn)

    # -- installation ----------------------------------------------------- #

    def _set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; module-level functions are replaced in every
        ``repro`` module that imported them by name."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        # Import every target module before wrapping anything: a module
        # imported mid-way would bind an already-wrapped function by name.
        targets = list(_targets())
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                if name == "pipeline.run":
                    wrapped = self._wrap_run(original)
                else:
                    wrapped = self._wrap(original, name)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                for module in _repro_modules():
                    if vars(module).get(attr) is original:
                        self._set(module, attr, wrapped)
            from repro.pipeline.stats import RunStats

            self._set(RunStats, "__init__",
                      self._wrap_stats_init(vars(RunStats)["__init__"]))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest first.

        A ``repro`` module first imported while the wrappers were in
        place bound some of them by name; those are unwrapped too."""
        while self._saved:
            owner, attr, original, had = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                if getattr(value, "perfbench_wrapper", False):
                    setattr(module, attr, value.__wrapped__)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    @contextmanager
    def recording(self, phase: Phase):
        """Record spans into *phase*; its wall time is the block's."""
        self.phase = phase
        started = time.perf_counter()
        try:
            yield phase
        finally:
            phase.wall_s += time.perf_counter() - started
            self.phase = None

    @contextmanager
    def paused(self):
        """Run checks inside a phase without recording or timing them."""
        phase, self.phase = self.phase, None
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase = phase
            if phase is not None:
                phase.wall_s -= time.perf_counter() - started


def _l1_counts(l1) -> tuple[int, int]:
    """(misses, accesses) of a cache's counters."""
    return l1.read_misses + l1.write_misses, l1.accesses


def _mark(wrapper, fn):
    functools.update_wrapper(wrapper, fn)
    wrapper.perfbench_wrapper = True
    return wrapper


def _targets():
    """(owner, attribute, span name) for every wrapped callable."""
    for module_name, class_name, attrs, name in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        for attr in attrs:
            yield owner, attr, name


def _repro_modules():
    return [
        module for module in list(sys.modules.values())
        if getattr(module, "__name__", "").split(".", 1)[0] == "repro"
    ]


def wrapped_attributes() -> list[str]:
    """Every ``owner.attribute`` that still holds a tracer wrapper.

    Empty after :meth:`Tracer.restore`; the untraced timing relies on it.
    """
    from repro.pipeline.stats import RunStats

    owners = [owner for owner, _attr, _name in _targets()]
    owners += _repro_modules() + [RunStats]
    found = []
    for owner in dict.fromkeys(owners):
        for attr, value in list(vars(owner).items()):
            if getattr(value, "perfbench_wrapper", False):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
