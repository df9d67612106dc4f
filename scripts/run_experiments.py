#!/usr/bin/env python3
"""Regenerate every table and figure of the paper and write the rendered
text into ``results/``.

One shared sweep of the five standard configurations over all 47 benchmarks
feeds Table 5, Figure 2, and Figure 4; Figure 3 (256-entry window) and the
two Figure 5 sweeps run separately on the paper's selected benchmarks.

All sweeps run through the campaign engine (:mod:`repro.experiments`):
``--jobs N`` shards the benchmarks across N worker processes, and every
finished job lands in a content-addressed cache (default
``results/cache/``), so an interrupted run resumes where it stopped and an
unchanged re-run completes from cache in seconds.  Results are identical
for every ``--jobs``/cache combination.

Usage::

    python scripts/run_experiments.py [smoke|default|full]
                                      [--jobs N] [--seed N]
                                      [--cache-dir DIR] [--no-cache]

``--jobs 1`` (the default) runs everything in-process; pass roughly your
core count for the ``full`` scale.  Delete the cache directory (or pass a
fresh ``--cache-dir``) to force a from-scratch rerun.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.api import sweep
from repro.experiments import ResultCache
from repro.harness import (
    DEFAULT,
    FULL,
    SMOKE,
    figure2_series,
    figure3_series,
    figure4_series,
    figure5_capacity_series,
    figure5_history_series,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_table5,
)
from repro.harness.table5 import table5_row
from repro.workloads.profiles import PROFILES, SELECTED_BENCHMARKS

RESULTS = Path(__file__).resolve().parent.parent / "results"
SCALES = {"smoke": SMOKE, "default": DEFAULT, "full": FULL}


def log(message: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {message}", flush=True)


def write(name: str, text: str) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / name).write_text(text + "\n")
    log(f"wrote results/{name}")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "scale", nargs="?", choices=sorted(SCALES), default="full",
        help="experiment scale (default full)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for each sweep (default 1)",
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--cache-dir", default=str(RESULTS / "cache"),
        help="content-addressed result cache (default results/cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; do not read or write the cache",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    scale = SCALES[args.scale]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    log(f"scale={scale.name}: {scale.num_instructions} instructions, "
        f"{scale.warmup} warmup; jobs={args.jobs}, seed={args.seed}, "
        f"cache={'off' if cache is None else args.cache_dir}")
    start = time.time()
    options = dict(scale=scale, seed=args.seed, jobs=args.jobs, cache=cache)

    # One sweep of the five standard configs over all 47 benchmarks.
    all_benchmarks = list(PROFILES)

    def progress(event) -> None:
        if event.kind == "start":
            log(f"  {event.benchmark}")

    results = sweep(
        "standard", all_benchmarks, scale, seeds=(args.seed,),
        jobs=args.jobs, cache=cache, progress=progress,
    ).results()

    rows = [table5_row(name, result=results[name]) for name in all_benchmarks]
    write("table5.txt", render_table5(rows))

    points = figure2_series(all_benchmarks, scale=scale, results=results)
    write("figure2.txt", render_figure2(points))

    fig4 = figure4_series(all_benchmarks, scale=scale, results=results)
    write("figure4.txt", render_figure4(fig4))

    log("figure 3 (256-entry window)")
    fig3 = figure3_series(SELECTED_BENCHMARKS, **options)
    write("figure3.txt", render_figure3(fig3))

    log("figure 5 (capacity sweep)")
    cap = figure5_capacity_series(SELECTED_BENCHMARKS, **options)
    write(
        "figure5_capacity.txt",
        render_figure5(cap, "Figure 5 (top): predictor capacity sweep"),
    )

    log("figure 5 (history sweep)")
    hist = figure5_history_series(SELECTED_BENCHMARKS, **options)
    write(
        "figure5_history.txt",
        render_figure5(hist, "Figure 5 (bottom): path-history length sweep"),
    )

    if cache is not None:
        log(f"cache: {cache.hits} hits, {cache.misses} misses")
    log(f"done in {time.time() - start:.0f}s")


if __name__ == "__main__":
    main()
