"""Cycle-collector accounting: passes, pause time, frozen objects.

One ``gc.callbacks`` hook per process, installed by the first
:class:`~repro.service.engine.SlicingEngine`, counts every collection
pass and the wall time it held the interpreter, by generation.
:func:`freeze` is the one place the service freezes the heap; it counts
the objects each freeze moves into the permanent generation.
:func:`snapshot` is the ``gc`` tier of ``GET /stats``, exported as
``slang_gc_collections_total``, ``slang_gc_pause_seconds_total`` and
``slang_gc_frozen_objects_total``.

The frozen count is cumulative: frozen objects that die later are not
subtracted.  The current size of the permanent generation
(``gc.get_freeze_count()``) is not reported because CPython counts it
by walking every frozen object: 46–60 ms with 517k frozen objects on a
2-CPU host, paid by every scrape.

The counters are process-wide, like the collector: every engine in a
process reports the same numbers.  The hook takes no lock — it runs
inside a collection, which never overlaps another, and a lock held by
the thread that triggered the pass would deadlock it.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Dict, List, Optional

GENERATIONS = 3

_collections: List[int] = [0] * GENERATIONS
_pause_seconds: List[float] = [0.0] * GENERATIONS
_started: Optional[float] = None
_frozen = 0
_installed = False
_lock = threading.Lock()


def _on_collect(phase: str, info: Dict[str, int]) -> None:
    global _started
    if phase == "start":
        _started = time.perf_counter()
    elif _started is not None:
        generation = info["generation"]
        _collections[generation] += 1
        _pause_seconds[generation] += time.perf_counter() - _started
        _started = None


def install() -> None:
    """Add the hook to ``gc.callbacks`` once per process."""
    global _installed
    with _lock:
        if not _installed:
            gc.callbacks.append(_on_collect)
            _installed = True


def freeze() -> None:
    """``gc.freeze()``, counting the objects it moves.  Counting costs
    O(objects not yet frozen): after the first freeze, only what was
    allocated since the last one."""
    global _frozen
    with _lock:
        _frozen += sum(
            len(gc.get_objects(generation)) for generation in range(GENERATIONS)
        )
        gc.freeze()


def snapshot() -> Dict[str, Any]:
    """The ``gc`` tier of ``/stats``: per-generation pass counts and
    pause seconds since :func:`install`, and the objects frozen so far."""
    return {
        "collections": {
            str(generation): _collections[generation]
            for generation in range(GENERATIONS)
        },
        "pause_seconds": {
            str(generation): round(_pause_seconds[generation], 6)
            for generation in range(GENERATIONS)
        },
        "frozen_objects": _frozen,
    }
