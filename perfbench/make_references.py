"""Write ``references.json``: the RunStats digests every run checks against.

Usage, from the repository root (takes about 40 s per seed for all four
workloads on a 2-core host)::

    python3 perfbench/make_references.py --seeds 0-31

Per-op digests are stored for the default and the held-out seed, one
combined digest for each other seed.  Entries for other workloads and
seeds already in the file are kept.  Regenerate only for a deliberate
change of simulated behaviour: the references exist to catch accidental
ones.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, REFERENCES, combined_digest, output_digests,
)
from suite import ALL_WORKLOADS  # noqa: E402
from tracing import Phase, Tracer  # noqa: E402


def reference_digests(name: str, seed: int, scratch: Path) -> dict[str, str]:
    """Every output digest of one pass of workload *name* at *seed*."""
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    workload = ALL_WORKLOADS[name](seed, workdir)
    try:
        workload.setup()
        workload.prepare_checks()
        tracer = Tracer()
        with tracer.recording(Phase()):
            result = workload.run_pass(tracer)
        ops = result.ops + workload.verify_once()
        if result.problems:
            raise SystemExit(f"{name} seed {seed}: {result.problems[:5]}")
        # An op that fails (a simulator defect) has no statistics and no
        # digest; its runs fail on its own problem, not on the reference.
        for op in ops:
            for text in op.problems:
                print(f"{name} seed {seed}: failed op: {text}", flush=True)
        return output_digests(ops, result.outputs)
    finally:
        workload.cleanup()


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=[],
                        help="seeds for combined digests, e.g. 0-31")
    parser.add_argument("--workloads", default=",".join(ALL_WORKLOADS))
    args = parser.parse_args(argv)
    stored = {"workloads": {}}
    if REFERENCES.is_file():
        stored = json.loads(REFERENCES.read_text())
    stored["per_op_seeds"] = [DEFAULT_SEED, HELD_OUT_SEED]
    scratch = ROOT / ".perfbench_work"
    try:
        for name in args.workloads.split(","):
            entries = stored["workloads"].setdefault(name, {})
            seeds = [DEFAULT_SEED, HELD_OUT_SEED]
            seeds += [s for s in args.seeds if s not in seeds]
            for seed in seeds:
                digests = reference_digests(name, seed, scratch)
                if seed in (DEFAULT_SEED, HELD_OUT_SEED):
                    entries[str(seed)] = {"ops": digests}
                else:
                    entries[str(seed)] = {"combined": combined_digest(digests)}
                print(f"{name} seed {seed}: {len(digests)} digests",
                      flush=True)
                REFERENCES.write_text(
                    json.dumps(stored, indent=0, sort_keys=True) + "\n"
                )
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # missing, or in use by a benchmark run
    return 0


if __name__ == "__main__":
    sys.exit(main())
