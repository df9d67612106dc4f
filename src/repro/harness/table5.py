"""Table 5: communication behaviour and prediction accuracy.

Left half: % of committed loads with in-window (128-instruction) store-load
communication, total and partial-word -- computed directly from the trace's
ground-truth annotations.

Right half: bypassing mispredictions per 10k loads for NoSQ without and
with delay, plus the % of loads delayed -- measured by simulating both NoSQ
configurations.

Every row carries the paper's published values next to the measured ones so
the reproduction can be judged at a glance.
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
from repro.workloads.profiles import PROFILES, BenchmarkProfile


@dataclass
class Table5Row:
    """One benchmark's Table 5 entries: paper value next to measured."""

    name: str
    suite: str
    paper_comm: float
    meas_comm: float
    paper_partial: float
    meas_partial: float
    paper_nodelay: float
    meas_nodelay: float
    paper_delay: float
    meas_delay: float
    paper_delayed_pct: float
    meas_delayed_pct: float


def table5_row(name: str, result: BenchmarkResult) -> Table5Row:
    """One benchmark's Table 5 row from its simulated *result* (which must
    hold the ``table5`` config set's runs)."""
    profile: BenchmarkProfile = PROFILES[name]
    nodelay = result.runs["nosq-nodelay"]
    delay = result.runs["nosq-delay"]
    return Table5Row(
        name=name,
        suite=profile.suite,
        paper_comm=profile.comm_pct,
        meas_comm=result.trace_stats.pct_communicating,
        paper_partial=profile.partial_pct,
        meas_partial=result.trace_stats.pct_partial_word,
        paper_nodelay=profile.nodelay_mispred,
        meas_nodelay=nodelay.mispredicts_per_10k_loads,
        paper_delay=profile.delay_mispred,
        meas_delay=delay.mispredicts_per_10k_loads,
        paper_delayed_pct=profile.delayed_pct,
        meas_delayed_pct=delay.pct_loads_delayed,
    )


def table5_rows(
    benchmarks: Sequence[str] | None = None,
    scale: ExperimentScale = DEFAULT,
    seed: int = 17,
    jobs: int = 1,
    cache=None,
) -> list[Table5Row]:
    """Compute Table 5 for *benchmarks* (default: all 47)."""
    # Imported lazily: repro.api builds on the harness.
    from repro.api import sweep

    names = list(benchmarks) if benchmarks is not None else list(PROFILES)
    results = sweep("table5", names, scale, seeds=(seed,), jobs=jobs,
                    cache=cache).results()
    return [table5_row(name, result=results[name]) for name in names]


def suite_averages(rows: Sequence[Table5Row]) -> list[Table5Row]:
    """Per-suite arithmetic means, as the paper reports."""
    averages = []
    for suite in ("media", "int", "fp"):
        suite_rows = [r for r in rows if r.suite == suite]
        if not suite_rows:
            continue
        averages.append(
            Table5Row(
                name=f"{suite}.avg",
                suite=suite,
                paper_comm=amean(r.paper_comm for r in suite_rows),
                meas_comm=amean(r.meas_comm for r in suite_rows),
                paper_partial=amean(r.paper_partial for r in suite_rows),
                meas_partial=amean(r.meas_partial for r in suite_rows),
                paper_nodelay=amean(r.paper_nodelay for r in suite_rows),
                meas_nodelay=amean(r.meas_nodelay for r in suite_rows),
                paper_delay=amean(r.paper_delay for r in suite_rows),
                meas_delay=amean(r.meas_delay for r in suite_rows),
                paper_delayed_pct=amean(r.paper_delayed_pct for r in suite_rows),
                meas_delayed_pct=amean(r.meas_delayed_pct for r in suite_rows),
            )
        )
    return averages


def render_table5(rows: Sequence[Table5Row], include_averages: bool = True) -> str:
    """Render Table 5 with paper-vs-measured columns."""
    all_rows = list(rows)
    if include_averages:
        all_rows += suite_averages(rows)
    headers = [
        "benchmark",
        "comm% (paper/meas)",
        "partial% (paper/meas)",
        "mispred/10k no-delay (p/m)",
        "mispred/10k delay (p/m)",
        "% delayed (p/m)",
    ]
    body = [
        [
            row.name,
            f"{row.paper_comm:.1f}/{row.meas_comm:.1f}",
            f"{row.paper_partial:.1f}/{row.meas_partial:.1f}",
            f"{row.paper_nodelay:.1f}/{row.meas_nodelay:.1f}",
            f"{row.paper_delay:.1f}/{row.meas_delay:.1f}",
            f"{row.paper_delayed_pct:.1f}/{row.meas_delayed_pct:.1f}",
        ]
        for row in all_rows
    ]
    return render_table(
        headers, body,
        title="Table 5: store-load communication and bypassing prediction accuracy",
    )
