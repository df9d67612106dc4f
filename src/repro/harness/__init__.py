"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.harness.runner` -- experiment scales and per-benchmark results
* :mod:`repro.harness.table5` -- Table 5 (communication & prediction accuracy)
* :mod:`repro.harness.figure2` -- Figure 2 (performance, 128-entry window)
* :mod:`repro.harness.figure3` -- Figure 3 (performance, 256-entry window)
* :mod:`repro.harness.figure4` -- Figure 4 (data-cache read bandwidth)
* :mod:`repro.harness.figure5` -- Figure 5 (predictor sensitivity)
* :mod:`repro.harness.report` -- fixed-width text rendering

Every experiment accepts an :class:`ExperimentScale`; the default
``SMOKE`` scale finishes in seconds per benchmark, while ``FULL`` matches
what EXPERIMENTS.md records.

All sweeps execute through :func:`repro.api.sweep` (the campaign
engine, :mod:`repro.experiments`): pass ``jobs=N`` to shard a sweep over
N worker processes and ``cache=`` (a directory path or
:class:`~repro.experiments.ResultCache`) to memoize results on disk —
identical numbers either way.
"""

from repro.harness.runner import (
    ExperimentScale,
    SMOKE,
    DEFAULT,
    FULL,
    BenchmarkResult,
    geomean,
)
from repro.harness.table5 import table5_rows, render_table5
from repro.harness.figure2 import figure2_series, render_figure2
from repro.harness.figure3 import figure3_series, render_figure3
from repro.harness.figure4 import figure4_series, render_figure4
from repro.harness.figure5 import (
    figure5_capacity_series,
    figure5_history_series,
    render_figure5,
)

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "DEFAULT",
    "FULL",
    "BenchmarkResult",
    "geomean",
    "table5_rows",
    "render_table5",
    "figure2_series",
    "render_figure2",
    "figure3_series",
    "render_figure3",
    "figure4_series",
    "render_figure4",
    "figure5_capacity_series",
    "figure5_history_series",
    "render_figure5",
]
