"""Metric definitions, and the per-layer metrics of a traced run.

``END_TO_END`` and ``PER_LAYER`` are the names, units and directions that
``BENCHMARK.json`` lists; ``LAYER_MAP`` records, before any measurement,
which end-to-end metric each layer's numbers should move and on which
workload.  Simulated statistics are marked ``(sim)``; every other number
is host time.
"""

from __future__ import annotations

import statistics

from tracing import LAYERS, Phase

#: (name, unit, better) printed by an untraced run.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("sim_inst_per_s", "inst/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_cycles", "cycles", "lower"),
)

#: Spans with their own ``<span>_s`` (inclusive host seconds) and
#: ``<span>_calls`` metrics.
_COMPONENTS = (
    "core.bypass_predictor", "core.ssbf", "core.svw", "core.srq",
    "core.commit_pipeline", "predictors.store_sets", "memory.hierarchy",
    "frontend.branch_predictor",
)

_RATE = "inst/s"

#: (name, unit, better) printed by a traced run.
PER_LAYER = (
    ("workloads.generate_s", "s", "lower"),
    ("workloads.generate_inst_per_s", _RATE, "higher"),
    ("traces.load_s", "s", "lower"),
    ("traces.load_inst_per_s", _RATE, "higher"),
    ("traces.write_s", "s", "lower"),
    ("isa.comm_stats_s", "s", "lower"),
    ("api.resolve_s", "s", "lower"),
    ("pipeline.construct_s", "s", "lower"),
    ("pipeline.run_self_s", "s", "lower"),
    ("pipeline.run_p50_ms", "ms", "lower"),
    ("pipeline.run_p95_ms", "ms", "lower"),
    ("pipeline.host_ns_per_cycle", "ns/cycle", "lower"),
    ("pipeline.cycles", "cycles", "lower"),
    ("pipeline.ipc", "inst/cycle", "higher"),
    ("pipeline.dispatch_stall_cycles", "cycles", "lower"),
    ("pipeline.flushes", "count", "lower"),
    *(
        entry
        for prefix in _COMPONENTS
        for entry in (
            (f"{prefix}_s", "s", "lower"),
            (f"{prefix}_calls", "count", "lower"),
        )
    ),
    ("core.bypassed_loads", "count", "higher"),
    ("core.delayed_loads", "count", "lower"),
    ("core.reexecuted_loads", "count", "lower"),
    ("core.bypass_mispredictions", "count", "lower"),
    ("core.reexec_rate", "ratio", "lower"),
    ("predictors.conv_violations", "count", "lower"),
    ("memory.dcache_reads", "count", "lower"),
    ("memory.l1_miss_rate", "ratio", "lower"),
    ("frontend.branch_mispredicts", "count", "lower"),
    ("experiments.plan_s", "s", "lower"),
    ("experiments.cache_put_s", "s", "lower"),
    ("experiments.store_append_s", "s", "lower"),
    ("experiments.jobs_executed", "count", "higher"),
    ("experiments.cache_hits", "count", "higher"),
    ("experiments.cached_rerun_s", "s", "lower"),
    ("harness.report_s", "s", "lower"),
    ("validate.generate_s", "s", "lower"),
    ("validate.oracle_s", "s", "lower"),
    ("validate.diff_self_s", "s", "lower"),
    ("validate.violations", "count", "lower"),
    *(
        entry
        for layer in LAYERS
        for entry in (
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.total_s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        )
    ),
    ("traced_pass_s", "s", "lower"),
    ("untraced_pass_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
    ("unattributed_s", "s", "lower"),
)

#: Layer -> (its metrics, the end-to-end metric they should move, the
#: workloads they move on).  Written down before measuring.
LAYER_MAP = {
    "workloads": (
        "generate_s, generate_inst_per_s", "wall_s; setup_s",
        "campaign-smoke; replay-*",
    ),
    "traces": (
        "load_s, load_inst_per_s, write_s", "sim_inst_per_s; setup_s",
        "replay-* (0 on the others)",
    ),
    "isa": ("comm_stats_s", "wall_s", "campaign-smoke, replay-*"),
    "api": ("resolve_s", "setup_s", "all (expected ~0)"),
    "pipeline": (
        "construct_s, run_self_s, run_p50_ms, run_p95_ms, "
        "host_ns_per_cycle; (sim) cycles, ipc, dispatch_stall_cycles, "
        "flushes",
        "sim_inst_per_s; construct_s -> wall_s",
        "all; construct_s mainly validate-fuzz (not listed yet)",
    ),
    "core": (
        "bypass_predictor, ssbf, svw, srq, commit_pipeline (_s, _calls); "
        "(sim) bypassed_loads, delayed_loads, reexecuted_loads, "
        "bypass_mispredictions, reexec_rate",
        "sim_inst_per_s",
        "replay-nosq (bypass predictor/SVW calls are 0 on replay-sq)",
    ),
    "predictors": (
        "store_sets_s, store_sets_calls; (sim) conv_violations",
        "sim_inst_per_s", "replay-sq (0 calls on replay-nosq)",
    ),
    "memory": (
        "hierarchy_s, hierarchy_calls; (sim) dcache_reads, l1_miss_rate",
        "sim_inst_per_s", "replay-* (largest on mcf)",
    ),
    "frontend": (
        "branch_predictor_s, branch_predictor_calls; (sim) "
        "branch_mispredicts",
        "sim_inst_per_s", "replay-* (zoo.fsm)",
    ),
    "experiments": (
        "plan_s, cache_put_s, store_append_s, jobs_executed, cache_hits, "
        "cached_rerun_s",
        "wall_s, while parent-side work is on the critical path",
        "campaign-smoke",
    ),
    "harness": ("report_s", "wall_s", "campaign-smoke"),
    "validate": (
        "generate_s, oracle_s, diff_self_s, violations", "wall_s",
        "validate-fuzz, which BENCHMARK.json does not list yet (0 on the "
        "listed workloads)",
    ),
    "(run)": ("trace_overhead, unattributed_s", "-", "all"),
}


#: Per-layer metrics the workload counts itself (0 where it has none).
WORKLOAD_COUNTED = (
    "experiments.jobs_executed", "experiments.cache_hits",
    "experiments.cached_rerun_s", "validate.violations",
)


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    setup: Phase, traced: Phase, untraced_pass_s: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from a traced run's two phases.

    Component metrics (``<layer>.<component>_s``/``_calls`` and the
    named ones) count calls in set-up and in the traced pass, so set-up
    work such as recording traces shows.  The ``<layer>.calls``,
    ``.total_s`` and ``.self_s`` metrics cover the traced pass only: the
    self times plus ``unattributed_s`` add up to ``traced_pass_s``.
    *extra* supplies the numbers the workload itself counts.
    """

    def span(name: str, field: str) -> float:
        return sum(
            getattr(phase.spans[name], field)
            for phase in (setup, traced) if name in phase.spans
        )

    sim = traced.sim
    out = {
        "workloads.generate_s": span("workloads.generate", "total_s"),
        "workloads.generate_inst_per_s": _ratio(
            span("workloads.generate", "instructions"),
            span("workloads.generate", "total_s"),
        ),
        "traces.load_s": span("traces.load", "total_s"),
        "traces.load_inst_per_s": _ratio(
            span("traces.load", "instructions"),
            span("traces.load", "total_s"),
        ),
        "traces.write_s": span("traces.write", "total_s"),
        "isa.comm_stats_s": span("isa.comm_stats", "total_s"),
        "api.resolve_s": span("api.resolve", "total_s"),
        "pipeline.construct_s": span("pipeline.construct", "total_s"),
        "pipeline.run_self_s": span("pipeline.run", "self_s"),
        "pipeline.host_ns_per_cycle": _ratio(
            1e9 * span("pipeline.run", "total_s"), sim.get("cycles", 0)
        ),
        "pipeline.cycles": sim.get("cycles", 0),
        "pipeline.ipc": _ratio(
            sim.get("instructions", 0), sim.get("cycles", 0)
        ),
        "pipeline.dispatch_stall_cycles": sim.get("dispatch_stall_cycles", 0),
        "pipeline.flushes": sim.get("flushes", 0),
        "core.bypassed_loads": sim.get("bypassed_loads", 0),
        "core.delayed_loads": sim.get("delayed_loads", 0),
        "core.reexecuted_loads": sim.get("reexecuted_loads", 0),
        "core.bypass_mispredictions": sim.get("bypass_mispredictions", 0),
        "core.reexec_rate": _ratio(
            sim.get("reexecuted_loads", 0), sim.get("loads", 0)
        ),
        "predictors.conv_violations": sim.get("flush_conv_violation", 0),
        "memory.dcache_reads": (
            sim.get("ooo_dcache_reads", 0)
            + sim.get("backend_dcache_reads", 0)
        ),
        "memory.l1_miss_rate": _ratio(
            sim.get("l1_misses", 0), sim.get("l1_accesses", 0)
        ),
        "frontend.branch_mispredicts": sim.get("branch_mispredicts", 0),
        "experiments.plan_s": span("experiments.plan", "total_s"),
        "experiments.cache_put_s": span("experiments.cache_put", "total_s"),
        "experiments.store_append_s": span(
            "experiments.store_append", "total_s"
        ),
        "harness.report_s": span("harness.report", "total_s"),
        "validate.generate_s": span("validate.generate", "total_s"),
        "validate.oracle_s": span("validate.oracle", "total_s"),
        "validate.diff_self_s": span("validate.diff", "self_s"),
    }
    durations = []
    for phase in (setup, traced):
        if "pipeline.run" in phase.spans:
            durations += phase.spans["pipeline.run"].durations
    out["pipeline.run_p50_ms"] = 1e3 * _percentile(durations, 50)
    out["pipeline.run_p95_ms"] = 1e3 * _percentile(durations, 95)
    for name in _COMPONENTS:
        out[f"{name}_s"] = span(name, "total_s")
        out[f"{name}_calls"] = span(name, "calls")
    layer_self = traced.layer_self_s()
    for layer in LAYERS:
        out[f"{layer}.calls"] = traced.layer_calls.get(layer, 0)
        out[f"{layer}.total_s"] = traced.layer_total_s.get(layer, 0.0)
        out[f"{layer}.self_s"] = layer_self[layer]
    out["traced_pass_s"] = traced.wall_s
    out["untraced_pass_s"] = untraced_pass_s
    out["trace_overhead"] = _ratio(traced.wall_s, untraced_pass_s) - 1.0
    out["unattributed_s"] = traced.unattributed_s()
    out.update(dict.fromkeys(WORKLOAD_COUNTED, 0))
    out.update(extra)
    return {name: out[name] for name, _unit, _better in PER_LAYER}
