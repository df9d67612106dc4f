"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's published sensitivity analysis (Figure 5) and
probe the claims made in its prose:

* **Load-queue elimination** (Section 3.4): "the performance of NoSQ with
  and without a load queue is identical."
* **T-SSBF sizing** (Sections 2.2/3.4): the tagged filter keeps
  re-execution rates near zero with only 1KB; shrinking it raises the
  re-execution (and with it data-cache port) pressure.
* **Confidence policy** (Section 3.3): the delay decision trades residual
  mispredictions against delayed loads.
* **Hybrid organization** (Section 3.3): the path-sensitive table is what
  captures path-dependent bypassing; removing it (history_bits=0 collapses
  both tables onto the load PC) leaves those loads to the delay mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.harness.report import render_table
from repro.harness.runner import DEFAULT, ExperimentScale
from repro.pipeline.config import MachineConfig


def _nosq(overrides: str | None = None) -> MachineConfig:
    """A NoSQ variant through the registry's override grammar, so every
    ablation is expressible as a config string (see :mod:`repro.api`)."""
    # Imported lazily: repro.api builds on the harness.
    from repro.api.configs import resolve_config

    return resolve_config("nosq" if overrides is None else f"nosq?{overrides}")


@dataclass
class AblationPoint:
    """One benchmark's measurements across ablation variants."""

    name: str
    cycles: dict[str, int] = field(default_factory=dict)
    mispredicts: dict[str, float] = field(default_factory=dict)
    delayed_pct: dict[str, float] = field(default_factory=dict)
    reexec_rate: dict[str, float] = field(default_factory=dict)

    def relative(self, variant: str, baseline: str) -> float:
        return self.cycles[variant] / self.cycles[baseline]


def _run(
    benchmarks: Sequence[str],
    variants: Sequence[MachineConfig],
    scale: ExperimentScale,
    seed: int = 17,
    jobs: int = 1,
    cache=None,
) -> list[AblationPoint]:
    # Imported lazily: repro.api builds on the harness.
    from repro.api import sweep

    results = sweep(variants, benchmarks, scale, seeds=(seed,), jobs=jobs,
                    cache=cache).results()
    points = []
    for name in benchmarks:
        point = AblationPoint(name=name)
        for variant in variants:
            stats = results[name].runs[variant.name]
            point.cycles[variant.name] = stats.cycles
            point.mispredicts[variant.name] = stats.mispredicts_per_10k_loads
            point.delayed_pct[variant.name] = stats.pct_loads_delayed
            point.reexec_rate[variant.name] = stats.reexec_rate
        points.append(point)
    return points


# --------------------------------------------------------------------- #
# Load-queue elimination
# --------------------------------------------------------------------- #

def load_queue_ablation(
    benchmarks: Sequence[str], scale: ExperimentScale = DEFAULT
) -> list[AblationPoint]:
    """NoSQ with the paper's 48-entry load queue vs without one."""
    with_lq = replace(_nosq("lq_size=48"), name="nosq-lq48")
    without_lq = replace(_nosq(), name="nosq-nolq")
    return _run(benchmarks, [with_lq, without_lq], scale)


def render_load_queue(points: Sequence[AblationPoint]) -> str:
    rows = [
        [p.name, p.cycles["nosq-lq48"], p.cycles["nosq-nolq"],
         f"{p.relative('nosq-nolq', 'nosq-lq48'):.4f}"]
        for p in points
    ]
    return render_table(
        ["benchmark", "cycles (48-entry LQ)", "cycles (no LQ)", "no-LQ rel."],
        rows,
        title="Ablation: load-queue elimination (paper: identical performance)",
    )


# --------------------------------------------------------------------- #
# T-SSBF sizing
# --------------------------------------------------------------------- #

TSSBF_SWEEP = (32, 64, 128, 256)


def tssbf_ablation(
    benchmarks: Sequence[str], scale: ExperimentScale = DEFAULT
) -> list[AblationPoint]:
    """Sweep the T-SSBF entry count around the paper's 128-entry default."""
    variants = [
        replace(_nosq(f"tssbf_entries={entries}"), name=f"tssbf-{entries}")
        for entries in TSSBF_SWEEP
    ]
    return _run(benchmarks, variants, scale)


def render_tssbf(points: Sequence[AblationPoint]) -> str:
    headers = ["benchmark"] + [
        f"{entries}e reexec%" for entries in TSSBF_SWEEP
    ] + [f"{entries}e rel.time" for entries in TSSBF_SWEEP]
    rows = []
    for p in points:
        base = p.cycles[f"tssbf-{TSSBF_SWEEP[-1]}"]
        rows.append(
            [p.name]
            + [f"{100 * p.reexec_rate[f'tssbf-{e}']:.2f}" for e in TSSBF_SWEEP]
            + [f"{p.cycles[f'tssbf-{e}'] / base:.3f}" for e in TSSBF_SWEEP]
        )
    return render_table(
        headers, rows,
        title="Ablation: T-SSBF capacity vs re-execution rate",
    )


# --------------------------------------------------------------------- #
# Confidence / delay policy
# --------------------------------------------------------------------- #

CONF_SWEEP = (
    ("eager", 16),    # small decrement: delay engages reluctantly
    ("default", 64),
    ("sticky", 127),  # full reset: delay engages after one repeat offence
)


def confidence_ablation(
    benchmarks: Sequence[str], scale: ExperimentScale = DEFAULT
) -> list[AblationPoint]:
    variants = [
        replace(_nosq(f"bypass.conf_dec={dec}"), name=f"conf-{label}")
        for label, dec in CONF_SWEEP
    ]
    return _run(benchmarks, variants, scale)


def render_confidence(points: Sequence[AblationPoint]) -> str:
    headers = ["benchmark"]
    for label, _ in CONF_SWEEP:
        headers += [f"{label} m10k", f"{label} del%"]
    rows = []
    for p in points:
        row = [p.name]
        for label, _ in CONF_SWEEP:
            row += [
                f"{p.mispredicts[f'conf-{label}']:.1f}",
                f"{p.delayed_pct[f'conf-{label}']:.1f}",
            ]
        rows.append(row)
    return render_table(
        headers, rows,
        title="Ablation: confidence decrement vs mispredictions/delay",
    )


# --------------------------------------------------------------------- #
# SVW filtering value
# --------------------------------------------------------------------- #

def svw_ablation(
    benchmarks: Sequence[str], scale: ExperimentScale = DEFAULT
) -> list[AblationPoint]:
    """SVW-filtered re-execution vs re-executing every speculative load.

    Section 2.2: without filtering, aggressive load speculation "would
    seemingly require re-executing all loads ... or would otherwise induce
    overheads that overwhelm the benefit of the speculation itself."
    """
    filtered = replace(_nosq(), name="svw-on")
    unfiltered = replace(_nosq("svw_enabled=false"), name="svw-off")
    return _run(benchmarks, [filtered, unfiltered], scale)


def render_svw(points: Sequence[AblationPoint]) -> str:
    rows = [
        [
            p.name,
            f"{100 * p.reexec_rate['svw-on']:.2f}",
            f"{100 * p.reexec_rate['svw-off']:.2f}",
            f"{p.relative('svw-off', 'svw-on'):.3f}",
        ]
        for p in points
    ]
    return render_table(
        ["benchmark", "reexec% (SVW)", "reexec% (unfiltered)",
         "unfiltered rel.time"],
        rows,
        title="Ablation: SVW re-execution filtering vs unfiltered re-execution",
    )


# --------------------------------------------------------------------- #
# Hybrid predictor organization
# --------------------------------------------------------------------- #

def hybrid_ablation(
    benchmarks: Sequence[str], scale: ExperimentScale = DEFAULT
) -> list[AblationPoint]:
    """Hybrid (default) vs path-insensitive-only prediction."""
    hybrid = replace(_nosq(), name="pred-hybrid")
    plain_only = replace(_nosq("bypass.history_bits=1"), name="pred-plain")
    return _run(benchmarks, [hybrid, plain_only], scale)


def render_hybrid(points: Sequence[AblationPoint]) -> str:
    rows = [
        [
            p.name,
            f"{p.mispredicts['pred-hybrid']:.1f}",
            f"{p.mispredicts['pred-plain']:.1f}",
            f"{p.delayed_pct['pred-hybrid']:.1f}",
            f"{p.delayed_pct['pred-plain']:.1f}",
            f"{p.relative('pred-plain', 'pred-hybrid'):.3f}",
        ]
        for p in points
    ]
    return render_table(
        ["benchmark", "hybrid m10k", "plain m10k",
         "hybrid del%", "plain del%", "plain rel.time"],
        rows,
        title="Ablation: hybrid path-sensitive predictor vs PC-only",
    )
