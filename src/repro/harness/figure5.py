"""Figure 5: bypassing-predictor sensitivity analysis.

Top: predictor capacity (512 / 1K / 2K / 4K / unbounded total entries, all
with 8 history bits).  The paper finds the 2K default within noise of
unbounded, while 512 entries costs SPECint ~4%.

Bottom: path-history length (4 / 6 / 8 / 10 / 12 bits) at 2K entries, with
an unbounded-capacity overlay.  Most benchmarks saturate by 6-8 bits; a few
(eon.k, sixtrack) keep improving past 8, and longer histories hurt the
bounded predictor through capacity pressure.

All numbers are execution times relative to the same baseline as Figure 2
(associative SQ + perfect scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.bypass_predictor import BypassPredictorConfig
from repro.harness.figure2 import BASELINE
from repro.harness.runner import (
    DEFAULT,
    ExperimentScale,
    geomean,
)
from repro.harness.report import render_table
from repro.pipeline.config import MachineConfig
from repro.workloads.profiles import PROFILES, SELECTED_BENCHMARKS

#: Total predictor entries swept in the top graph (None = unbounded).
CAPACITY_SWEEP: tuple[int | None, ...] = (512, 1024, 2048, 4096, None)
#: History lengths swept in the bottom graph.
HISTORY_SWEEP: tuple[int, ...] = (4, 6, 8, 10, 12)


def _nosq_with_predictor(total_entries: int | None, history_bits: int) -> MachineConfig:
    predictor = BypassPredictorConfig(
        entries_per_table=(total_entries // 2) if total_entries else 1024,
        history_bits=history_bits,
        unbounded=total_entries is None,
    )
    label = "inf" if total_entries is None else f"{total_entries}e"
    config = MachineConfig.nosq(delay=True, predictor=predictor)
    return replace(config, name=f"nosq-{label}-{history_bits}h")


@dataclass
class SweepPoint:
    """Relative execution time of one benchmark at each sweep setting."""

    name: str
    suite: str
    relative: dict[str, float] = field(default_factory=dict)


def _sweep(
    benchmarks: Sequence[str],
    variants: Sequence[MachineConfig],
    scale: ExperimentScale,
    seed: int,
    jobs: int = 1,
    cache=None,
) -> list[SweepPoint]:
    # Imported lazily: repro.api builds on the harness.
    from repro.api import sweep

    results = sweep(["conventional-perfect", *variants], benchmarks, scale,
                    seeds=(seed,), jobs=jobs, cache=cache).results()
    points = []
    for name in benchmarks:
        result = results[name]
        point = SweepPoint(name=name, suite=PROFILES[name].suite)
        for variant in variants:
            point.relative[variant.name] = result.relative_time(
                variant.name, BASELINE
            )
        points.append(point)
    return points


def figure5_capacity_series(
    benchmarks: Sequence[str] | None = None,
    scale: ExperimentScale = DEFAULT,
    seed: int = 17,
    history_bits: int = 8,
    jobs: int = 1,
    cache=None,
) -> list[SweepPoint]:
    """Top graph: capacity sweep at the default history length."""
    names = list(benchmarks) if benchmarks is not None else SELECTED_BENCHMARKS
    variants = [
        _nosq_with_predictor(capacity, history_bits)
        for capacity in CAPACITY_SWEEP
    ]
    return _sweep(names, variants, scale, seed, jobs=jobs, cache=cache)


def figure5_history_series(
    benchmarks: Sequence[str] | None = None,
    scale: ExperimentScale = DEFAULT,
    seed: int = 17,
    total_entries: int | None = 2048,
    include_unbounded: bool = True,
    jobs: int = 1,
    cache=None,
) -> list[SweepPoint]:
    """Bottom graph: history sweep at fixed (or unbounded) capacity."""
    names = list(benchmarks) if benchmarks is not None else SELECTED_BENCHMARKS
    variants = [
        _nosq_with_predictor(total_entries, bits) for bits in HISTORY_SWEEP
    ]
    if include_unbounded:
        variants += [
            _nosq_with_predictor(None, bits) for bits in HISTORY_SWEEP
        ]
    return _sweep(names, variants, scale, seed, jobs=jobs, cache=cache)


def suite_geomeans(points: Sequence[SweepPoint]) -> list[SweepPoint]:
    means = []
    for suite, label in (("media", "M.gmean"), ("int", "I.gmean"), ("fp", "F.gmean")):
        suite_points = [p for p in points if p.suite == suite]
        if not suite_points:
            continue
        mean = SweepPoint(name=label, suite=suite)
        for key in suite_points[0].relative:
            mean.relative[key] = geomean(p.relative[key] for p in suite_points)
        means.append(mean)
    return means


def render_figure5(points: Sequence[SweepPoint], title: str) -> str:
    all_points = list(points) + suite_geomeans(points)
    keys = list(all_points[0].relative) if all_points else []
    headers = ["benchmark"] + keys
    rows = [
        [p.name] + [f"{p.relative[k]:.3f}" for k in keys] for p in all_points
    ]
    return render_table(headers, rows, title=title)
