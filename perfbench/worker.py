"""One workload in one fresh process: set-up, passes, checks, metrics.

Started by ``run.py`` (never imported by it) with the repository's
``src`` on ``PYTHONPATH``; prints one JSON object as its last line.

* ``--setup-only`` stops after set-up, for the extra ``setup_s`` samples.
* Untraced (``--trace 0``): passes repeat while the next one is expected
  to finish within ``--seconds``, and at least the workload's
  ``min_passes`` run.
* Traced (``--trace 1``): set-up runs with the layer wrappers installed,
  then one untraced pass and one traced pass run in the same mode (the
  campaign runs its jobs inline, since pool workers' spans would not
  come back), and the wrappers are removed again.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import Checker, load_reference
from metrics import layer_metrics
from suite import ALL_WORKLOADS
from tracing import Phase, Tracer, wrapped_attributes


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _untraced(workload, tracer, checker, seconds: float) -> dict:
    walls, rates, cycles = [], [], []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        phase = Phase()
        with tracer.recording(phase):
            result = workload.run_pass(tracer)
        checker.check(result.ops, result.problems, result.outputs)
        walls.append(phase.wall_s)
        rates.append(result.instructions / phase.wall_s)
        cycles.append(result.cycles)
        now = time.perf_counter()
        # Stop when one more pass would end further past the budget than
        # stopping now leaves it short: the run measures the whole number
        # of passes nearest to *seconds*.
        if (
            len(walls) >= workload.min_passes
            and (now - started) + (now - pass_started) / 2 > seconds
        ):
            break
    return {
        "wall_s": statistics.median(walls),
        "sim_inst_per_s": statistics.median(rates),
        "sim_cycles": statistics.median(cycles),
        "pass_walls_s": walls,
    }


def _traced(workload, tracer, checker, setup_phase: Phase) -> dict:
    untraced = Phase()
    with tracer.recording(untraced):
        result = workload.run_pass(tracer, inline=True)
    checker.check(result.ops, result.problems, result.outputs)
    traced = Phase()
    with tracer.installed(), tracer.recording(traced):
        result = workload.run_pass(tracer, inline=True)
    checker.check(result.ops, result.problems, result.outputs)
    leftover = wrapped_attributes()
    if leftover:
        checker.check([], [f"tracer wrappers left installed: {leftover}"])
    extra = workload.traced_extra(tracer)
    return layer_metrics(setup_phase, traced, untraced.wall_s, extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = ALL_WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer()
    setup_phase = Phase()
    try:
        if args.trace:
            with tracer.installed(), tracer.recording(setup_phase):
                workload.setup()
        else:
            workload.setup()
        setup_s = time.time() - args.spawned_at - workload.untimed_s
        out = {"setup_s": setup_s}
        if not args.setup_only:
            workload.prepare_checks()
            checker = Checker(load_reference(workload.name, args.seed))
            if args.trace:
                out["metrics"] = _traced(workload, tracer, checker,
                                         setup_phase)
            else:
                out.update(_untraced(workload, tracer, checker, args.seconds))
            checker.check(workload.verify_once())
            out.update(
                peak_rss_mb=_peak_rss_mb(),
                attempted=checker.attempted,
                failed=checker.failed,
                clean=checker.clean,
                problems=checker.problems,
                coverage=checker.coverage,
            )
    finally:
        workload.cleanup()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
