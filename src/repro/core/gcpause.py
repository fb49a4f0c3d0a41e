"""Pause CPython's cycle collector over work that leaves no cycles.

The per-snapshot phase allocates every snapshot's scan store, validated
records and candidate sets, and every one of them dies by reference
count: the stage scheduler holds its values in a plain dict, not in a
closure, and no stage value refers back to itself.  The cycle collector
would still traverse that heap each time the allocation counters trip a
collection, to find nothing: about a quarter of a serial run's wall
time at the default scale (CPython 3.11, 2-core host).

:func:`gc_paused` switches the collector off for a ``with`` block and
puts back exactly the state it found.  The pipeline uses it around its
per-snapshot phase (forked workers inherit the paused state) and the
serve layer around each ingest pass.  ``tests/core/test_gcpause.py``
keeps the pause safe: it asserts that those paths leave no cyclic
garbage at all.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = ["gc_paused"]


@contextmanager
def gc_paused() -> Iterator[None]:
    """Disable the cycle collector for the block, then restore it.

    Re-entrant: a nested pause finds the collector disabled and leaves
    it so.  Exception-safe: the state is restored however the block
    exits.  Reference counting keeps freeing memory throughout.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
