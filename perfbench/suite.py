"""The benchmark workloads: set-up, one pass, and the output checks.

Every workload is batch and closed-loop: one job at a time per worker,
the next starting only when a worker is free.  Inputs are a pure
function of the seed; the simulator only ever sees the generated inputs,
through its public entry points (``repro.api.sweep``/``simulate``,
``repro.traces.resolve_source``, ``Processor`` and
``repro.validate.run_fuzz``).

A pass runs inside :meth:`tracing.Tracer.recording`, which times it;
its output checks run inside :meth:`tracing.Tracer.paused` and count
neither towards the pass wall time nor towards any span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import operator
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Phase, Tracer

#: Traces replayed by ``replay-*``: bypassing and flushing (vortex,
#: zoo.overlap), memory-bound (mcf), branchy and flushing (zoo.fsm).
REPLAY_TRACES = ("vortex", "mcf", "zoo.overlap", "zoo.fsm")
#: Fuzz traces per ``validate-fuzz`` pass, at run_fuzz's default length.
#: A pass takes about 7 s on a 2-core Xeon, whose timing noise comes in
#: phases of several seconds that a median of shorter passes locks onto.
FUZZ_TRACES = 600
FUZZ_LENGTH = 120
#: Campaign worker processes: two, never more than the host's CPUs.
CAMPAIGN_JOBS = max(1, min(2, os.cpu_count() or 1))


@dataclass
class Op:
    """One simulation: a (trace, config) run or one fuzz trace x config."""

    op_id: str
    stats: object | None          # RunStats; None if it raised
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    instructions: int             # simulated, warmup included
    cycles: int                   # simulated, after warmup
    ops: list[Op]
    problems: list[str] = field(default_factory=list)
    #: Digests of outputs other than RunStats (the rendered report).
    outputs: dict[str, str] = field(default_factory=dict)


def trace_fingerprint(trace) -> int:
    """Equality fingerprint of a trace, valid within one process."""
    from repro.isa.trace import DynInst

    fields = operator.attrgetter(*(f.name for f in dataclasses.fields(DynInst)))
    return hash(tuple(map(fields, trace)))


def window_counts(trace, warmup: int) -> tuple[int, int, int]:
    """(loads, stores, branches) committed after *warmup*."""
    window = trace[warmup:]
    return (
        sum(1 for inst in window if inst.is_load),
        sum(1 for inst in window if inst.is_store),
        sum(1 for inst in window if inst.is_branch),
    )


def check_window(op: Op, expected: tuple[int, int, int], measured: int):
    """Counters any correct run of a trace must report."""
    stats = op.stats
    if stats.instructions != measured:
        op.problems.append(
            f"{op.op_id}: {stats.instructions} instructions, "
            f"expected {measured}"
        )
    got = (stats.loads, stats.stores, stats.branches)
    if got != expected:
        op.problems.append(
            f"{op.op_id}: loads/stores/branches {got}, expected {expected}"
        )
    if stats.cycles <= 0:
        op.problems.append(f"{op.op_id}: {stats.cycles} cycles")


class Workload:
    name = ""
    why = ""
    #: Passes every untraced run makes, however long they take.
    min_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.untimed_s = 0.0

    def setup(self) -> None:
        """Everything before the first pass (timed as ``setup_s``, less
        what it runs inside :meth:`untimed`)."""

    @contextlib.contextmanager
    def untimed(self):
        """Set-up work that only the output checks need."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - started

    def prepare_checks(self) -> None:
        """Untimed work the output checks need, after set-up."""

    def run_pass(self, tracer: Tracer, inline: bool = False) -> PassResult:
        """One pass, inside ``tracer.recording``.  *inline* runs every
        job in this process (the traced run's pool workers would not
        report their spans)."""
        raise NotImplementedError

    def verify_once(self) -> list[Op]:
        """Extra checked ops computed once per run, outside any pass."""
        return []

    def traced_extra(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer numbers the workload counts itself."""
        return {}

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class CampaignSmoke(Workload):
    name = "campaign-smoke"
    why = (
        "cold 235-job standard sweep at smoke scale on 2 workers plus the "
        "campaign report: the headline user wait, per-job fixed costs"
    )

    passes = 0

    def setup(self) -> None:
        from repro import api
        from repro.workloads.profiles import PROFILES

        self.api = api
        self.benchmarks = list(PROFILES)
        self.configs = api.resolve_configs("standard")
        self.scale = api.resolve_scale("smoke")

    def _sweep(self, cache: Path, store: Path, jobs: int):
        return self.api.sweep(
            "standard", self.benchmarks, self.scale, seeds=(self.seed,),
            jobs=jobs, cache=str(cache), store=str(store),
        )

    def run_pass(self, tracer: Tracer, inline: bool = False) -> PassResult:
        from repro import cli

        self.passes += 1
        cache = self.workdir / f"cache-{self.passes}"
        store = self.workdir / f"store-{self.passes}.jsonl"
        swept = self._sweep(cache, store, 1 if inline else CAMPAIGN_JOBS)
        text = io.StringIO()
        with tracer.span("harness.report"), contextlib.redirect_stdout(text):
            status = cli.main(["campaign", "report", "--store", str(store)])
        with tracer.paused():
            result = self._check(swept, status, text.getvalue())
            # Keep only this pass's cache, for the traced cached re-run.
            shutil.rmtree(self.workdir / f"cache-{self.passes - 1}",
                          ignore_errors=True)
            store.unlink()
            self.last_cache = cache
            self.last_executed = swept.executed
        return result

    def _check(self, swept, status, report: str) -> PassResult:
        from repro.pipeline.stats import RunStats

        problems = []
        total = len(self.benchmarks) * len(self.configs)
        if (swept.executed, swept.hits) != (total, 0):
            problems.append(
                f"cold sweep executed {swept.executed} and hit "
                f"{swept.hits}, expected {total} and 0"
            )
        if status != 0 or "Table 5" not in report:
            problems.append(f"campaign report failed (exit {status})")
        ops = []
        instructions = cycles = 0
        by_benchmark: dict[str, set] = {}
        for record in swept.campaign.records:
            stats = RunStats(**record["run_stats"])
            op = Op(f"{record['benchmark']}/{record['config_name']}", stats)
            window = (
                stats.instructions, stats.loads, stats.stores, stats.branches
            )
            whole = record["trace_stats"]
            # Generated traces end on a whole event, a few instructions
            # past the scale's length.
            if (
                stats.instructions < self.scale.measured
                or stats.cycles <= 0
                or stats.loads > whole["loads"]
                or stats.stores > whole["stores"]
                or stats.branches > whole["branches"]
            ):
                op.problems.append(
                    f"{op.op_id}: instructions/loads/stores/branches "
                    f"{window} in {stats.cycles} cycles do not fit the "
                    f"trace ({self.scale.measured}+ measured instructions)"
                )
            by_benchmark.setdefault(record["benchmark"], set()).add(window)
            ops.append(op)
            instructions += stats.instructions + record["scale"]["warmup"]
            cycles += stats.cycles
        for benchmark, windows in by_benchmark.items():
            if len(windows) != 1:
                problems.append(
                    f"{benchmark}: configs disagree on committed "
                    f"instructions/loads/stores/branches {sorted(windows)}"
                )
        if len(ops) != total:
            problems.append(f"{len(ops)} records, expected {total}")
        # Report rows follow the store's order, which is the order pool
        # workers finished in; the digest ignores line order.
        lines = "\n".join(sorted(report.splitlines()))
        report_digest = hashlib.sha256(lines.encode()).hexdigest()[:16]
        return PassResult(
            instructions, cycles, ops, problems, {"report": report_digest}
        )

    def traced_extra(self, tracer: Tracer) -> dict[str, float]:
        """Re-run the sweep over the last pass's filled cache."""
        store = self.workdir / "rerun.jsonl"
        phase = Phase()
        with tracer.recording(phase):
            swept = self._sweep(self.last_cache, store, 1)
        return {
            "experiments.jobs_executed": self.last_executed,
            "experiments.cache_hits": swept.hits,
            "experiments.cached_rerun_s": phase.wall_s,
        }


class Replay(Workload):
    """Record four full-scale traces in set-up; each pass loads them back
    and simulates every config on each, as ``repro run`` does."""

    configs_spec = ""

    def setup(self) -> None:
        from repro import api, traces

        self.api = api
        self.traces = traces
        self.configs = api.resolve_configs(self.configs_spec)
        self.scale = api.resolve_scale("full")
        self.paths = {}
        self.expected = {}
        for benchmark in REPLAY_TRACES:
            trace = traces.resolve_source(benchmark).trace(
                self.scale, self.seed
            )
            path = self.workdir / f"{benchmark}.bt"
            traces.write_trace(trace, path)
            self.paths[benchmark] = path
            with self.untimed():
                warmup = api.effective_warmup(self.scale, len(trace))
                self.expected[benchmark] = (
                    trace_fingerprint(trace), len(trace), warmup,
                    window_counts(trace, warmup),
                )
            del trace

    def run_pass(self, tracer: Tracer, inline: bool = False) -> PassResult:
        ops, problems = [], []
        instructions = cycles = 0
        for benchmark, path in self.paths.items():
            fingerprint, length, warmup, counts = self.expected[benchmark]
            trace = self.traces.resolve_source(f"trace:{path}").trace(
                self.scale, self.seed
            )
            runs = []
            run_warmup = self.api.effective_warmup(self.scale, len(trace))
            for config in self.configs:
                try:
                    stats = self.api.simulate(
                        config, trace, self.scale, seed=self.seed,
                        warmup=run_warmup,
                    ).stats
                except Exception as exc:  # a failed op, not a failed run
                    op_id = f"{benchmark}/{config.name}"
                    runs.append(Op(op_id, None, [f"{op_id}: raised {exc!r}"]))
                else:
                    runs.append(Op(f"{benchmark}/{config.name}", stats))
            with tracer.paused():
                if trace_fingerprint(trace) != fingerprint:
                    problems.append(
                        f"{benchmark}: loaded trace differs from the "
                        "generated one"
                    )
                for op in runs:
                    if op.stats is not None:
                        check_window(op, counts, length - warmup)
                        cycles += op.stats.cycles
                    instructions += len(trace)
                ops += runs
                del trace
        return PassResult(instructions, cycles, ops, problems)


class ReplayNoSQ(Replay):
    name = "replay-nosq"
    why = (
        "long steady-state cycle loop on NoSQ (nosq*): bypass predictor, "
        "SVW, T-SSBF, SRQ and v2 trace decode do most of their work"
    )
    configs_spec = "nosq*"


class ReplaySQ(Replay):
    name = "replay-sq"
    why = (
        "same traces on the store-queue baselines: SQ search and store "
        "sets instead of NoSQ core, so a NoSQ-only speed-up shows no change"
    )
    configs_spec = "conventional,conventional-perfect"


class ValidateFuzz(Workload):
    name = "validate-fuzz"
    why = (
        "run_fuzz on nosq,conventional over 120-instruction traces: the "
        "oracle and diff layers, and per-run Processor construction"
    )
    # A run is short next to the others; three passes give a median that
    # one pass caught in a slow phase of the host does not move.
    min_passes = 3
    violations = 0
    cycles = 0

    def setup(self) -> None:
        from repro import api, validate

        self.validate = validate
        self.configs = api.resolve_configs("nosq,conventional")
        # Disjoint trace ranges per seed: trace i uses fuzz seed start + i.
        self.start = self.seed * FUZZ_TRACES

    def run_pass(self, tracer: Tracer, inline: bool = False) -> PassResult:
        # run_fuzz stops at the first violating trace (after shrinking
        # it); resume after it, so every trace of the pass runs.
        failures = {}
        index = 0
        while index < FUZZ_TRACES:
            failure = self.validate.run_fuzz(
                self.configs, budget=FUZZ_TRACES - index,
                seed=self.start + index, length=FUZZ_LENGTH,
            ).failure
            if failure is None:
                break
            index += failure.index
            failures[f"{index}/{failure.config_name}"] = failure
            index += 1
        with tracer.paused():
            self.violations = sum(len(f.violations) for f in failures.values())
            ops = []
            for index in range(FUZZ_TRACES):
                for config in self.configs:
                    op = Op(f"{index}/{config.name}", None)
                    failure = failures.get(op.op_id)
                    if failure is not None:
                        op.problems.append(failure.describe().splitlines()[0])
                    ops.append(op)
        instructions = FUZZ_TRACES * FUZZ_LENGTH * len(self.configs)
        return PassResult(instructions, self.cycles, ops)

    def prepare_checks(self) -> None:
        """Recompute every op's RunStats once, for the digest check and
        the simulated cycle count (run_fuzz keeps neither)."""
        from repro.pipeline.processor import Processor
        from repro.validate.fuzz import generate_ops, ops_to_trace

        self.verified = []
        cycles = 0
        for index in range(FUZZ_TRACES):
            trace = ops_to_trace(
                generate_ops(self.start + index, FUZZ_LENGTH)
            )
            for config in self.configs:
                op = Op(f"{index}/{config.name}", None)
                try:
                    op.stats = Processor(config).run(trace, warmup=0)
                except Exception as exc:  # a failed op, not a failed run
                    op.problems.append(f"{op.op_id}: raised {exc!r}")
                else:
                    if op.stats.instructions != len(trace):
                        op.problems.append(
                            f"{op.op_id}: {op.stats.instructions} "
                            f"instructions, expected {len(trace)}"
                        )
                    cycles += op.stats.cycles
                self.verified.append(op)
        self.cycles = cycles

    def verify_once(self) -> list[Op]:
        return self.verified

    def traced_extra(self, tracer: Tracer) -> dict[str, float]:
        return {"validate.violations": self.violations}


#: The workloads ``BENCHMARK.json`` lists.
WORKLOADS = {
    cls.name: cls for cls in (CampaignSmoke, ReplayNoSQ, ReplaySQ)
}
#: Every workload ``run.py`` accepts.  ``validate-fuzz`` is left off
#: ``BENCHMARK.json`` while the simulator fails some of its ops (the
#: known defect in README.md): a listed workload must have no failing op.
ALL_WORKLOADS = {**WORKLOADS, ValidateFuzz.name: ValidateFuzz}
