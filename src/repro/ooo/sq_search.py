"""The associative store-queue search of the conventional baseline.

An executing load searches the older in-flight stores for writes to its
bytes and forwards from the youngest matching store.  The timing model
does not run this search: ``Processor._classify_against_sq`` derives the
same answer from the trace's per-byte store-load annotations, and
``tests/test_equivalence.py`` checks the two agree.  NoSQ's premise is
deleting this structure.
"""

from __future__ import annotations

from typing import Iterable

from repro.isa.trace import DynInst


def search_store_queue(
    stores: Iterable[DynInst], load: DynInst
) -> tuple[str, DynInst | None]:
    """Search the in-flight *stores* (oldest first) on behalf of *load*.

    Per byte of the load, the youngest older store writing that byte
    wins.  Returns ``("full", store)`` when one store supplies every byte
    (it forwards), ``("partial", youngest)`` when several stores, or a
    store and memory, supply them (the load waits for *youngest* to
    drain), and ``("none", None)`` when no older store overlaps.
    """
    byte_writer: dict[int, DynInst] = {}
    for store in stores:
        if store.seq >= load.seq:
            break
        low = max(store.addr, load.addr)
        high = min(store.addr + store.size, load.addr + load.size)
        for byte in range(low, high):
            byte_writer[byte] = store
    if not byte_writer:
        return "none", None
    covered = [
        byte_writer.get(b) for b in range(load.addr, load.addr + load.size)
    ]
    youngest = max(byte_writer.values(), key=lambda store: store.seq)
    if all(s is youngest for s in covered):
        return "full", youngest
    return "partial", youngest
