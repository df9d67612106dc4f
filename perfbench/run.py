"""Run one benchmark workload for one seed and print every metric by name.

Usage, from the repository root::

    python3 perfbench/run.py --workload replay-nosq --seed 17 \\
        --seconds 25 --trace 0

Runs the workload in a fresh worker process (``worker.py``) and prints
a human-readable summary followed, as the last line, by one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
separate traced run reporting the per-layer metrics.  Untraced runs
start two extra set-up-only processes, so ``setup_s`` is the median of
three set-ups.  Exits non-zero, printing no result, when the repository
sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from suite import ALL_WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A run must end within 180 s; workers are stopped before that.
DEADLINE_S = 170.0


def _worker(args, workdir: Path, remaining: float,
            setup_only: bool = False) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command += ["--spawned-at", repr(time.time())]
    # In a process group of its own, so a stuck worker stops with its pool.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded {remaining:.0f}s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _summary(args, report: dict, metrics: dict, units: dict) -> list[str]:
    rate = report["failed"] / report["attempted"]
    lines = [
        f"workload {args.workload}, seed {args.seed}, "
        f"{'traced' if args.trace else 'untraced'}: "
        f"{report['coverage']}",
    ]
    if not args.trace:
        walls = ", ".join(f"{w:.3f}" for w in report["pass_walls_s"])
        lines.append(f"  passes: {len(report['pass_walls_s'])} "
                     f"(wall s: {walls}); metrics are medians")
    else:
        lines.append(
            "  both passes ran every job inline in this process (pool "
            "workers' spans would not come back to it); component metrics "
            "include set-up, layer metrics cover the traced pass"
        )
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g} {units[name]}")
    lines.append(
        f"  {'error_rate':<34} {rate:>16.6g} "
        f"({report['failed']} failed / {report['attempted']} attempted ops)"
    )
    lines += [f"  problem: {text}" for text in report["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                sample = _worker(args, workdir / "setup",
                                 DEADLINE_S - (time.monotonic() - started),
                                 setup_only=True)
                setups.append(sample["setup_s"])
        report = _worker(args, workdir / "run",
                         DEADLINE_S - (time.monotonic() - started))
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    if args.trace:
        metrics = report["metrics"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        setups.append(report["setup_s"])
        report["setup_s"] = statistics.median(setups)
        metrics = {name: report[name] for name, _unit, _ in END_TO_END}
        units = {name: unit for name, unit, _ in END_TO_END}
    print("\n".join(_summary(args, report, metrics, units)))
    print(json.dumps({
        "correct": report["clean"] and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
