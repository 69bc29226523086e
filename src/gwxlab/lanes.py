"""One process-wide budget of CPU lanes for the lab's parallel loops.

:func:`run_lanes` maps a function over ``0 .. count - 1`` on lanes: the
calling thread is always one, and it adds one helper thread for each
helper slot that is free, up to ``count - 1``.  The process holds
``cpus - 1`` slots in all and a caller never waits for one, so nested
calls use only CPUs that are really idle.  Monte-Carlo trials and the
chunks of a running-window CCF share the budget: a one-trial scan lends
the idle CPU to its CCF chunks, while trials that hold every CPU run
their chunks inline.  Items are handed out and collected in index
order, so the results do not depend on the lane count.

On glibc the first call also makes the allocator keep freed heap.  A
32 s matched-filter trial frees 1-2 MiB numpy temporaries, and by
default glibc hands that memory back to the kernel after each trial, so
the next trial faults about 3,000 fresh pages (11.6 MiB) back in: some
4 ms of system time in a 23 ms one-lane trial, and more with both lanes
queued in the page-fault path.  Three ``mallopt`` values stop that: one
arena, so the lanes share one heap; a 32 MiB mmap threshold, glibc's
64-bit ceiling for its own dynamic threshold; and a 64 MiB trim
threshold, twice that, as glibc's dynamic rule would set it.  They go
together, because any one ``mallopt`` turns the dynamic rule off.  The
kept heap costs 1-3 MiB of peak RSS.
"""

from __future__ import annotations

import ctypes
import os
import threading

__all__ = ["run_lanes"]

_budget_lock = threading.Lock()
_helpers = 0  # helper slots held now, by every caller in the process
_heap_kept = False  # whether the first call has set the allocator values

# mallopt(3) parameters from glibc's <malloc.h>, with the values set
_MALLOPT_VALUES = (
    (-8, 1),                  # M_ARENA_MAX
    (-3, 32 * 1024 * 1024),   # M_MMAP_THRESHOLD
    (-1, 64 * 1024 * 1024),   # M_TRIM_THRESHOLD
)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _keep_freed_heap() -> None:
    """Set :data:`_MALLOPT_VALUES` when the C library is glibc with ``mallopt``."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not glibc:
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOPT_VALUES:
        mallopt(param, value)


def run_lanes(run, count: int) -> list:
    """``[run(0), ..., run(count - 1)]``, with items handed out in index
    order to the calling thread and to as many helper threads as there
    are free slots, up to ``count - 1``.

    After a failure no further item starts.  Every item below the failing
    index has started by then, so the lowest failing index is the one a
    sequential loop would have stopped at; its error is raised.
    """
    global _helpers, _heap_kept
    results = [None] * count
    errors: dict[int, Exception] = {}
    lock = threading.Lock()
    next_k = [0]

    def lane():
        while True:
            with lock:
                k = next_k[0]
                if k >= count or errors:
                    return
                next_k[0] = k + 1
            try:
                results[k] = run(k)
            except Exception as exc:
                with lock:
                    errors[k] = exc

    with _budget_lock:
        if not _heap_kept:
            _heap_kept = True
            _keep_freed_heap()
        claimed = max(0, min(count - 1, _cpu_count() - 1 - _helpers))
        _helpers += claimed
    started = []
    try:
        for _ in range(claimed):
            thread = threading.Thread(target=lane, daemon=True)
            thread.start()
            started.append(thread)
        lane()
    finally:
        with lock:
            next_k[0] = count  # an interrupt in this thread starts no more items
        for thread in started:
            thread.join()
        with _budget_lock:
            _helpers -= claimed
    if errors:
        raise errors[min(errors)]
    return results
