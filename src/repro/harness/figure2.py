"""Figure 2: NoSQ performance on the 128-instruction-window machine.

Execution times of four configurations relative to a conventional processor
with an associative store queue and *perfect* load scheduling:

1. associative store queue + StoreSets scheduling (the realistic baseline),
2. NoSQ without delay,
3. NoSQ with delay,
4. idealized NoSQ (perfect bypassing prediction and partial-word support).

Per-benchmark bars plus per-suite geometric means, exactly as the figure
reports them.  Lower is better; the paper's headline is that bar 3 sits at
~0.98 of bar 1 on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.harness.runner import (
    DEFAULT,
    BenchmarkResult,
    ExperimentScale,
    geomean,
)
from repro.harness.report import render_table
from repro.workloads.profiles import PROFILES

#: Normalization baseline and the four plotted configurations.
BASELINE = "sq-perfect"
BARS = ("sq-storesets", "nosq-nodelay", "nosq-delay", "nosq-perfect")


@dataclass
class Figure2Point:
    """One benchmark's bar group."""

    name: str
    suite: str
    baseline_ipc: float
    relative: dict[str, float] = field(default_factory=dict)


def figure2_series(
    benchmarks: Sequence[str] | None = None,
    scale: ExperimentScale = DEFAULT,
    seed: int = 17,
    window: int = 128,
    results: dict[str, BenchmarkResult] | None = None,
    jobs: int = 1,
    cache=None,
) -> list[Figure2Point]:
    """Compute the Figure 2 series (or Figure 3's, with ``window=256``)."""
    names = list(benchmarks) if benchmarks is not None else list(PROFILES)
    if results is None:
        # Imported lazily: repro.api builds on the harness.
        from repro.api import sweep

        results = sweep("standard", names, scale, seeds=(seed,), jobs=jobs,
                        cache=cache, window=window).results()
    suffix = "" if window == 128 else "-w256"
    points = []
    for name in names:
        result = results[name]
        baseline = result.runs[BASELINE + suffix]
        point = Figure2Point(
            name=name,
            suite=PROFILES[name].suite,
            baseline_ipc=baseline.ipc,
        )
        for bar in BARS:
            point.relative[bar] = result.relative_time(bar + suffix, BASELINE + suffix)
        points.append(point)
    return points


def suite_geomeans(points: Sequence[Figure2Point]) -> list[Figure2Point]:
    """Per-suite geometric-mean bar groups (M.gmean / I.gmean / F.gmean)."""
    means = []
    for suite, label in (("media", "M.gmean"), ("int", "I.gmean"), ("fp", "F.gmean")):
        suite_points = [p for p in points if p.suite == suite]
        if not suite_points:
            continue
        mean = Figure2Point(
            name=label, suite=suite,
            baseline_ipc=geomean(p.baseline_ipc for p in suite_points),
        )
        for bar in BARS:
            mean.relative[bar] = geomean(p.relative[bar] for p in suite_points)
        means.append(mean)
    return means


def render_figure2(
    points: Sequence[Figure2Point],
    title: str = "Figure 2: relative execution time, 128-entry window",
) -> str:
    all_points = list(points) + suite_geomeans(points)
    headers = ["benchmark", "base IPC"] + [f"{bar} (rel)" for bar in BARS]
    rows = [
        [p.name, f"{p.baseline_ipc:.2f}"] + [f"{p.relative[b]:.3f}" for b in BARS]
        for p in all_points
    ]
    return render_table(headers, rows, title=title)
