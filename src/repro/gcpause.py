"""Suspend the cyclic garbage collector around allocation-heavy loops."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the generational collector for the ``with`` body and
    restore the caller's setting afterwards.

    Only for bodies that allocate many objects but create (almost) no
    reference cycles, and that run no caller code: collector scans there
    are nearly pure overhead.  Any cycles made are collected once the
    collector is re-enabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
