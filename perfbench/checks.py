"""Output checks: every op against stored reference RunStats digests.

``references.json`` (written by ``make_references.py``) holds, per
workload and seed, either a digest of every counter of every op (the
default seed and a held-out seed) or one digest over all of them (a
range of further seeds).  An op fails if it raised, if a structural
check in :mod:`suite` flagged it, or if its digest differs from the
reference; a differing combined digest fails every op it covers.  For a
seed with no stored reference only the structural checks apply, and the
run says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

#: The seed the benchmark is developed against, and one kept out of
#: development for confirming results.
DEFAULT_SEED = 17
HELD_OUT_SEED = 2006


def stats_digest(stats) -> str:
    """Digest of every RunStats counter."""
    payload = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def combined_digest(digests: dict[str, str]) -> str:
    """One digest over every output's digest, in id order."""
    lines = "".join(f"{key}={digests[key]}\n" for key in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def output_digests(ops, outputs: dict[str, str]) -> dict[str, str]:
    """id -> digest for every op with statistics, plus other outputs."""
    digests = {
        op.op_id: stats_digest(op.stats) for op in ops if op.stats is not None
    }
    digests.update({f"output:{k}": v for k, v in outputs.items()})
    return digests


def load_reference(workload: str, seed: int):
    """The stored reference for (*workload*, *seed*), or None."""
    try:
        stored = json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return None
    return stored["workloads"].get(workload, {}).get(str(seed))


class Checker:
    """Counts attempted and failed ops over a run."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []     # the first 20
        self.clean = True

    @property
    def coverage(self) -> str:
        if self.reference is None:
            return "structural checks only (no stored reference)"
        if "ops" in self.reference:
            return "per-op reference digests"
        return "combined reference digest"

    def check(self, ops, problems=(), outputs=None) -> None:
        """Check one batch of ops: a pass, or a workload's extra ops.

        A problem that is not one op's (a wrong trace load, a report or
        output that differs) fails every op of the batch."""
        ids = {op.op_id for op in ops}
        self.attempted += len(ops)
        failed = {op.op_id for op in ops if op.problems}
        op_problems = [text for op in ops for text in op.problems]
        batch_problems = list(problems)
        digests = output_digests(ops, outputs or {})
        if self.reference is not None and digests:
            expected = self.reference.get("ops")
            if expected is None:
                if combined_digest(digests) != self.reference["combined"]:
                    batch_problems.append(
                        "outputs differ from the combined reference digest"
                    )
            else:
                for key in sorted(set(digests) | set(expected)):
                    if digests.get(key) == expected.get(key):
                        continue
                    text = f"{key}: differs from the reference"
                    if key in ids:
                        op_problems.append(text)
                        failed.add(key)
                    else:  # an output, or an op the batch lacks
                        batch_problems.append(text)
        if batch_problems:
            failed = ids
        self.failed += len(failed)
        new = op_problems + batch_problems
        self.problems += new[: max(0, 20 - len(self.problems))]
        self.clean = self.clean and not new
