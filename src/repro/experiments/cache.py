"""Content-addressed on-disk result cache.

A job's cache key is the SHA-256 of the canonical JSON of everything that
determines its result: every :class:`~repro.pipeline.config.MachineConfig`
field (nested dataclasses included), the benchmark profile name, the
behavioural scale fields (``num_instructions``/``warmup`` — the scale's
*label* is cosmetic), the seed, the package version and a cache schema
version.  Changing any of these yields a different key, so stale entries
are never served; re-running an identical job is a pure disk read.

Entries live under ``<root>/<key[:2]>/<key>.json`` and hold the full job
record (config name, scale, seed, run and trace statistics).  Writes are
atomic (tempfile + rename) so an interrupted campaign never leaves a
partial entry, which is what makes campaigns resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import repro
from repro.experiments.codec import canonical_json, config_to_dict
from repro.experiments.spec import Job

#: Bump when the record layout or simulator semantics change incompatibly.
#: 2: campaign execution clamps the warmup for traces shorter than the
#:    scale's warmup (effective_warmup), changing recorded statistics for
#:    short trace:/extern: jobs whose keys would otherwise collide with
#:    schema-1 entries.
CACHE_SCHEMA = 2

#: Default cache location (relative to the current working directory).
DEFAULT_CACHE_DIR = Path("results") / "cache"


def job_key(job: Job) -> str:
    """Content hash addressing *job*'s result on disk.

    For trace-source benchmarks (``zoo.*``, ``trace:``/``extern:`` files,
    registered sources) the source's content id — a file hash or a
    generator version — joins the payload, so swapping the bytes behind a
    path can never be served a stale result.  Synthetic profiles
    contribute nothing extra, keeping their historical keys byte-stable.
    """
    from repro.traces import source_identity

    payload = {
        "schema": CACHE_SCHEMA,
        "version": repro.__version__,
        "benchmark": job.benchmark,
        "config": config_to_dict(job.config),
        "num_instructions": job.scale.num_instructions,
        "warmup": job.scale.warmup,
        "seed": job.seed,
    }
    source = source_identity(job.benchmark)
    if source is not None:
        payload["source"] = source
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8"))
    return digest.hexdigest()


class ResultCache:
    """Directory of content-addressed job records."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the cached record for *key*, or ``None`` on a miss.

        Corrupt or foreign files under the cache root count as misses.
        """
        path = self.path(key)
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if not isinstance(record, dict) or "run_stats" not in record:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict[str, Any]) -> None:
        """Atomically persist *record* under *key*."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))
