"""Experiment scales and per-benchmark results.

An :class:`ExperimentScale` sets how much work each simulated benchmark
does.  A :class:`BenchmarkResult` bundles the trace-level ground truth
with the :class:`~repro.pipeline.stats.RunStats` of each simulated
configuration; the per-table/figure modules turn collections of results
(from :func:`repro.api.sweep`) into the paper's rows and series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.isa.trace import TraceStats
from repro.pipeline.stats import RunStats


@dataclass(frozen=True)
class ExperimentScale:
    """How much work each simulated benchmark does.

    The paper simulates millions of instructions per benchmark; these scales
    trade fidelity for tractable Python runtimes.  Warmup instructions run
    with all microarchitectural state live but are excluded from statistics
    (the paper's warmed sampling).
    """

    name: str
    num_instructions: int
    warmup: int

    def __post_init__(self) -> None:
        if not 0 <= self.warmup < self.num_instructions:
            raise ValueError(
                f"warmup ({self.warmup}) must be in "
                f"[0, {self.num_instructions}) — nothing would be measured"
            )

    @property
    def measured(self) -> int:
        return self.num_instructions - self.warmup


def effective_warmup(scale: ExperimentScale, trace_length: int) -> int:
    """*scale*'s warmup, clamped for short (intrinsic-length) traces.

    File-backed trace sources keep their own length regardless of the
    scale's ``num_instructions``; when the scale's warmup would swallow
    the whole trace, fall back to warming up half of it so statistics
    stay meaningful.  Every default-warmup execution path (``simulate``,
    ``repro run``, the campaign engine) applies this; synthetic and
    generator sources always produce ``num_instructions``-length traces,
    so their statistics are unaffected."""
    if scale.warmup >= trace_length:
        return trace_length // 2
    return scale.warmup


#: Seconds-per-benchmark scale for tests and pytest-benchmark runs.
SMOKE = ExperimentScale("smoke", num_instructions=8_000, warmup=3_000)
#: Default scale for the examples.
DEFAULT = ExperimentScale("default", num_instructions=30_000, warmup=12_000)
#: The scale used for EXPERIMENTS.md.
FULL = ExperimentScale("full", num_instructions=60_000, warmup=30_000)


@dataclass
class BenchmarkResult:
    """Everything measured for one benchmark at one scale."""

    name: str
    scale: ExperimentScale
    trace_stats: TraceStats
    runs: dict[str, RunStats] = field(default_factory=dict)

    def relative_time(self, config_name: str, baseline_name: str) -> float:
        """Execution time of one configuration relative to another."""
        baseline = self.runs[baseline_name]
        run = self.runs[config_name]
        if baseline.cycles == 0:
            raise ValueError(f"baseline {baseline_name!r} ran zero cycles")
        return run.cycles / baseline.cycles


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's suite summary statistic)."""
    values = list(values)
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def amean(values: Iterable[float]) -> float:
    """Arithmetic mean (used by Figure 4 and Table 5 averages)."""
    values = list(values)
    if not values:
        return float("nan")
    return sum(values) / len(values)
