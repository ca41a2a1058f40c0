"""The package's two forked workers, which run the identity suite's tasks and the chains."""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import struct
import sys
import threading
import traceback

# down the shared task pipe: an item index; up a worker's reply pipe: the
# index and the payload's length, then the pickled (ok, result or exception,
# traceback text)
_TASK = struct.Struct("<I")
_REPLY = struct.Struct("<IQ")


class WorkerError(RuntimeError):
    """A forked worker died, or its reply cannot cross the pipe."""


class _RemoteTraceback(Exception):
    """A worker's traceback, chained as the cause of the exception it sent."""

    def __str__(self) -> str:
        return self.args[0]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _can_fork(n_items: int) -> bool:
    """Whether the items go to two forked workers rather than run in-process.

    Forking needs two items to share, two usable CPUs and a caller with one
    thread: a fork copies only the calling thread, and a lock another thread
    held would stay locked in the child.  A daemonic process (a
    `multiprocessing.Pool` worker) may not start children at all.
    """
    if n_items < 2 or _usable_cpus() < 2 or threading.active_count() > 1 or not hasattr(os, "fork"):
        return False
    process = sys.modules.get("multiprocessing.process")  # loaded in a multiprocessing program only
    return process is None or not process.current_process().daemon


def _reply(out: int, i: int, ok: bool, value, tb: str = "") -> None:
    try:
        payload = pickle.dumps((ok, value, tb), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        what = "result" if ok else f"{type(value).__name__} exception"
        payload = pickle.dumps((False, WorkerError(f"the {what} of item {i} cannot be pickled: {exc!r}"), tb))
    data = memoryview(_REPLY.pack(i, len(payload)) + payload)
    while data:
        data = data[os.write(out, data) :]


def _serve(fn, items, tasks: int, out: int) -> None:
    """A forked worker: run the items whose indices come down ``tasks``, reply on ``out``, leave.

    It leaves through `os._exit`, so neither the caller's cleanup nor the
    exit-time collection runs in it.
    """
    code = 1
    try:
        # each index is one 4-byte write, so one worker's read takes it whole
        while index := os.read(tasks, _TASK.size):
            (i,) = _TASK.unpack(index)
            try:
                result = fn(items[i])
            except Exception as exc:
                _reply(out, i, False, exc, traceback.format_exc())
            else:
                _reply(out, i, True, result)
        code = 0
    finally:
        os._exit(code)


def _map_on_two_workers(fn, items) -> list:
    n, results, received = len(items), [None] * len(items), 0
    tasks_r, tasks_w = os.pipe()
    workers, unread = {}, {}  # by reply pipe: the worker's pid, its bytes not yet parsed
    try:
        for _ in range(2):
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                for fd in (tasks_w, *workers):
                    os.close(fd)
                _serve(fn, items, tasks_r, reply_w)
            os.close(reply_w)
            workers[reply_r], unread[reply_r] = pid, bytearray()
        # an index goes out only when a worker is free for it, so once an
        # item raises, the items after it never start
        os.write(tasks_w, _TASK.pack(0) + _TASK.pack(1))
        sent = 2
        poll = select.poll()
        for fd in workers:
            poll.register(fd, select.POLLIN)
        while received < n:
            for fd, _ in poll.poll():
                data, buffer = os.read(fd, 1 << 16), unread[fd]
                if not data:  # a worker closes its pipe early only by dying
                    code = os.waitstatus_to_exitcode(os.waitpid(workers.pop(fd), 0)[1])
                    how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                    raise WorkerError(f"a forked worker died ({how}){' mid-reply' if buffer else ''}")
                buffer += data
                while len(buffer) >= _REPLY.size:
                    i, size = _REPLY.unpack_from(buffer)
                    end = _REPLY.size + size
                    if len(buffer) < end:
                        break
                    try:
                        ok, value, tb = pickle.loads(buffer[_REPLY.size : end])
                    except Exception as exc:
                        raise WorkerError(f"the reply for item {i} cannot be unpickled: {exc!r}") from exc
                    del buffer[:end]
                    if not ok:
                        raise value from (_RemoteTraceback(tb) if tb else None)
                    results[i] = value
                    received += 1
                    if sent < n:
                        os.write(tasks_w, _TASK.pack(sent))
                        sent += 1
        return results
    except BaseException:
        for pid in workers.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # at EOF on the task pipe an idle worker leaves
        for fd in (tasks_r, tasks_w, *unread):
            os.close(fd)
        for pid in workers.values():
            os.waitpid(pid, 0)


def map_forked(fn, items) -> list:
    """``list(map(fn, items))``, on two forked workers where `_can_fork` allows.

    Either way the results come back in item order, and an exception raised
    by ``fn`` reaches the caller with its type and message, chained to the
    worker's traceback.  Each worker takes the next item index from one
    shared pipe when it is free, so the items start in order, and sends back
    each result, pickled, on a pipe of its own; the caller only waits on
    those pipes and runs no item.  Once an item raises, no further item
    starts: both workers are killed, and they are reaped on every path.  A
    worker that dies, or a result or exception that cannot be pickled,
    raises `WorkerError`.  The heap is frozen (`gc.freeze`) across the fork,
    so the workers' collections neither walk nor copy what they inherit, and
    unfrozen once they are done unless the caller had frozen objects of its
    own.
    """
    if not _can_fork(len(items)):
        return list(map(fn, items))
    thawed = gc.get_freeze_count() == 0
    gc.freeze()
    try:
        return _map_on_two_workers(fn, items)
    finally:
        if thawed:
            gc.unfreeze()
