"""Out-of-order window records.

The window itself -- ROB, rename map, physical registers, issue queue and
ports, load/store queue occupancy, SSN counters -- is plain state owned by
:class:`repro.pipeline.processor.Processor` (DESIGN.md, "Window state").
This package holds the per-instruction record those structures contain,
and the associative store-queue search the conventional baseline's
classification is checked against.
"""

from repro.ooo.rob import InFlightInst
from repro.ooo.sq_search import search_store_queue

__all__ = ["InFlightInst", "search_store_queue"]
