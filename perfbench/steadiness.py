"""Run the benchmark repeatedly and report the spread of every metric.

Usage, from the repository root::

    python3 perfbench/steadiness.py --seeds 1-10 --seconds 25
    python3 perfbench/steadiness.py --workloads replay-nosq --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --record   # baseline point

Each (workload, seed) is one ``run.py`` invocation, untraced.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  ``--record`` appends the result, with
the host it ran on, to ``baseline.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from make_references import seed_list  # noqa: E402
from metrics import END_TO_END, LAYER_MAP  # noqa: E402
from suite import WORKLOADS  # noqa: E402

BASELINE = HERE / "baseline.json"


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        problems = [line.strip() for line in proc.stdout.splitlines()
                    if line.strip().startswith("problem:")]
        print(f"  {workload} seed {seed}: INCORRECT, {result['failed']} of "
              f"{result['attempted']} ops failed; {problems[:3]}", flush=True)
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def _host() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "rev": rev, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        "date": datetime.date.today().isoformat(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--record", action="store_true",
                        help=f"append the result to {BASELINE.name}")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    point = {**_host(), "seconds": seconds, "seeds": args.seeds,
             "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [_run(workload, seed, seconds) for seed in args.seeds]
        summary = {}
        correct = sum(r["correct"] for r in runs)
        print(f"{workload} ({len(runs)} runs, seeds {args.seeds}, "
              f"{correct} correct):")
        for name, unit, _better in END_TO_END:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[name] = stats
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if stats["spread"] <= bound / 3
                           else "WIDE" if stats["spread"] <= bound
                           else "OVER BOUND")
            print(f"  {name:<16} median {stats['median']:>12.6g} {unit:<7}"
                  f" q1 {stats['q1']:>12.6g} q3 {stats['q3']:>12.6g}"
                  f"  spread {stats['spread']:7.2%}"
                  + (f"  bound {bound:.0%} {verdict}" if bound else ""),
                  flush=True)
            print("    values: " + ", ".join(
                f"{v:.6g}" for v in stats["values"]))
        point["workloads"][workload] = {
            "correct_runs": correct, "metrics": summary,
        }
    if args.record:
        stored = {"layer_map": {}, "points": []}
        if BASELINE.is_file():
            stored = json.loads(BASELINE.read_text())
        stored["layer_map"] = {
            layer: dict(zip(("metrics", "moves", "on"), entry))
            for layer, entry in LAYER_MAP.items()
        }
        stored["points"].append(point)
        BASELINE.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
