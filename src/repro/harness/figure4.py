"""Figure 4: data-cache read bandwidth consumption.

Number of data-cache reads for NoSQ (with delay) relative to the
associative-store-queue baseline, split between out-of-order-core reads and
in-order back-end re-execution reads.  Because the T-SSBF filters nearly all
re-executions (the paper measures only 0.7% of loads re-executing), NoSQ
reduces total reads roughly in proportion to its bypass rate -- about 9% on
average, up to 40% for mesa.o.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.harness.runner import (
    DEFAULT,
    BenchmarkResult,
    ExperimentScale,
    amean,
)
from repro.harness.report import render_table
from repro.workloads.profiles import PROFILES, SELECTED_BENCHMARKS


@dataclass
class Figure4Point:
    """One benchmark's stacked bar."""

    name: str
    suite: str
    ooo_relative: float        # out-of-order core reads / baseline reads
    backend_relative: float    # back-end re-execution reads / baseline reads
    reexec_rate: float         # fraction of loads re-executed (NoSQ)

    @property
    def total_relative(self) -> float:
        return self.ooo_relative + self.backend_relative


def figure4_series(
    benchmarks: Sequence[str] | None = None,
    scale: ExperimentScale = DEFAULT,
    seed: int = 17,
    results: dict[str, BenchmarkResult] | None = None,
    jobs: int = 1,
    cache=None,
) -> list[Figure4Point]:
    names = list(benchmarks) if benchmarks is not None else SELECTED_BENCHMARKS
    if results is None:
        # Imported lazily: repro.api builds on the harness.
        from repro.api import sweep

        results = sweep("figure4", names, scale, seeds=(seed,), jobs=jobs,
                        cache=cache).results()
    points = []
    for name in names:
        result = results[name]
        baseline = result.runs["sq-storesets"]
        nosq = result.runs["nosq-delay"]
        base_reads = max(1, baseline.total_dcache_reads)
        points.append(
            Figure4Point(
                name=name,
                suite=PROFILES[name].suite,
                ooo_relative=nosq.ooo_dcache_reads / base_reads,
                backend_relative=nosq.backend_dcache_reads / base_reads,
                reexec_rate=nosq.reexec_rate,
            )
        )
    return points


def suite_ameans(points: Sequence[Figure4Point]) -> list[Figure4Point]:
    """Per-suite arithmetic means (M.amean / I.amean / F.amean)."""
    means = []
    for suite, label in (("media", "M.amean"), ("int", "I.amean"), ("fp", "F.amean")):
        suite_points = [p for p in points if p.suite == suite]
        if not suite_points:
            continue
        means.append(
            Figure4Point(
                name=label,
                suite=suite,
                ooo_relative=amean(p.ooo_relative for p in suite_points),
                backend_relative=amean(p.backend_relative for p in suite_points),
                reexec_rate=amean(p.reexec_rate for p in suite_points),
            )
        )
    return means


def render_figure4(points: Sequence[Figure4Point]) -> str:
    all_points = list(points) + suite_ameans(points)
    headers = [
        "benchmark", "ooo reads (rel)", "back-end reads (rel)",
        "total (rel)", "reexec rate",
    ]
    rows = [
        [
            p.name,
            f"{p.ooo_relative:.3f}",
            f"{p.backend_relative:.4f}",
            f"{p.total_relative:.3f}",
            f"{100 * p.reexec_rate:.2f}%",
        ]
        for p in all_points
    ]
    return render_table(
        headers, rows,
        title="Figure 4: data-cache reads, NoSQ relative to associative-SQ baseline",
    )
