"""The package's one worker pool, which runs the identity suite's tasks and the chains."""

from __future__ import annotations

import gc
import os
import threading

# a forked worker's function and items, handed over at fork: never pickled
_adopted: tuple = (None, ())


def _adopt(fn, items) -> None:
    global _adopted
    _adopted = fn, items


def _run_adopted(i: int):
    fn, items = _adopted
    return fn(items[i])


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _fork_context(n_items: int):
    """The "fork" multiprocessing context, or None where the items run in-process.

    Forking needs two items to share, two usable CPUs and a caller with one
    thread: a fork copies only the calling thread, and a lock another thread
    held would stay locked in the child.  A daemonic process (a
    `multiprocessing.Pool` worker) may not start children at all.
    """
    if n_items < 2 or _usable_cpus() < 2 or threading.active_count() > 1:
        return None
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
        return None
    return multiprocessing.get_context("fork")


def map_forked(fn, items) -> list:
    """``list(map(fn, items))``, on two forked workers where `_fork_context` allows.

    Either way the results come back in item order, and an exception raised
    by ``fn`` reaches the caller; the items not yet started are cancelled.
    The heap is frozen (`gc.freeze`) across the fork, so the workers'
    collections neither walk nor copy what they inherit, and unfrozen once
    they are done unless the caller had frozen objects of its own.
    """
    context = _fork_context(len(items))
    if context is None:
        return list(map(fn, items))
    from concurrent.futures import ProcessPoolExecutor

    thawed = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        with ProcessPoolExecutor(2, mp_context=context, initializer=_adopt, initargs=(fn, items)) as pool:
            return list(pool.map(_run_adopted, range(len(items))))
    finally:
        if thawed:
            gc.unfreeze()
