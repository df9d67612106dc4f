"""Cycle-level timing model tying the substrates together.

:class:`~repro.pipeline.config.MachineConfig` describes one machine
configuration (the conventional associative-store-queue baseline, NoSQ with
or without delay, and the idealized variants); :class:`Processor` runs an
annotated trace through it and returns :class:`RunStats`.
"""

from repro.pipeline.config import (
    BypassKind,
    MachineConfig,
    Mode,
    SchedulerKind,
)
from repro.pipeline.stats import RunStats
from repro.pipeline.processor import Processor

__all__ = [
    "BypassKind",
    "MachineConfig",
    "Mode",
    "SchedulerKind",
    "RunStats",
    "Processor",
]
