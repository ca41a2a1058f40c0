"""The two forked workers that the identity suite and the chains run on."""

import gc
import os
import select
import signal
import time

import pytest

from bimodalskew import _workers
from bimodalskew._workers import WorkerError, map_forked
from bimodalskew.errors import DomainError


@pytest.fixture
def forks(monkeypatch):
    """One entry per `os.fork` call: two per forked map."""
    calls = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append("fork") or real())
    return calls


@pytest.fixture
def freezes(monkeypatch):
    """How often the pool froze the collector's heap."""
    calls = []
    real = gc.freeze
    monkeypatch.setattr(gc, "freeze", lambda: calls.append(1) or real())
    return calls


def frozen_in_worker(item):
    return item, gc.get_freeze_count()


def reject(item):
    if item == 3:
        raise DomainError(f"item {item} is out of range")
    return item


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
def test_results_come_back_in_item_order(monkeypatch, forks, freezes, cpus):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    results = map_forked(frozen_in_worker, range(7))
    assert [item for item, _ in results] == list(range(7))
    # a worker inherits a frozen heap; in-process nothing is frozen
    assert all(frozen > 0 for _, frozen in results) == (cpus == 2)
    assert forks == (["fork"] * 2 if cpus == 2 else [])
    assert freezes == ([1] if cpus == 2 else [])
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
def test_an_exception_reaches_the_caller_and_thaws_the_heap(monkeypatch, forks, cpus):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    with pytest.raises(DomainError, match="item 3 is out of range") as excinfo:
        map_forked(reject, range(6))
    assert excinfo.type is DomainError
    assert forks == (["fork"] * 2 if cpus == 2 else [])
    assert gc.get_freeze_count() == 0


def test_a_caller_frozen_heap_stays_frozen(monkeypatch, forks):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert map_forked(reject, [0, 1]) == [0, 1]
        assert forks == ["fork"] * 2
        assert gc.get_freeze_count() >= frozen > 0
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("items", [[], [0]], ids=["none", "one"])
def test_fewer_than_two_items_run_in_process(monkeypatch, forks, freezes, items):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    assert map_forked(reject, items) == items
    assert forks == freezes == []


class NeedsTwo(Exception):
    """Pickles, but cannot be rebuilt from its one message argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("n", [5000, 20000], ids=["over-PIPE_BUF", "over-pipe-capacity"])
def test_many_indices_come_back_in_order(two_cpus, forks, n):
    # 5000 indices are more than one atomic pipe write, and 20000 more than
    # a pipe holds (64 KiB): a caller that wrote them all ahead would block
    # while the workers block on their full reply pipes
    def stuck(*_):
        raise TimeoutError("map_forked is stuck")

    items = list(range(n))
    assert len(items) * _workers._TASK.size > select.PIPE_BUF
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        assert map_forked(lambda i: -i, items) == [-i for i in items]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert forks == ["fork"] * 2
    assert no_child_left() and gc.get_freeze_count() == 0


def test_a_raising_item_leaves_the_later_items_unstarted(two_cpus, tmp_path):
    started = tmp_path / "started"

    def run(item):
        with open(started, "a") as fh:
            fh.write(f"{item}\n")
        if item == 3:
            raise DomainError(f"item {item} is out of range")
        time.sleep(0.01)
        return item

    with pytest.raises(DomainError, match="item 3 is out of range"):
        map_forked(run, range(40))
    # an index goes out only when a worker is free: items 0 to 3, and at
    # most the one or two a worker took while item 3's exception came back
    items = sorted(int(line) for line in started.read_text().split())
    assert items[:4] == [0, 1, 2, 3] and len(items) <= 6
    assert no_child_left() and gc.get_freeze_count() == 0


def test_a_killed_worker_raises_instead_of_hanging(two_cpus):
    def die(item):
        if item == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return item

    with pytest.raises(WorkerError, match=r"a forked worker died \(killed by signal 9\)"):
        map_forked(die, range(8))
    assert no_child_left() and gc.get_freeze_count() == 0


def test_a_worker_exiting_without_its_items_raises(two_cpus):
    with pytest.raises(WorkerError, match=r"exit code 3"):
        map_forked(lambda item: os._exit(3) if item == 2 else item, range(5))
    assert no_child_left() and gc.get_freeze_count() == 0


def test_unpicklable_results_and_exceptions_raise_a_clear_error(two_cpus):
    class LocalError(Exception):
        pass

    def local_error(item):
        if item == 3:
            raise LocalError("no module-level name")
        return item

    def needs_two(item):
        if item == 3:
            raise NeedsTwo("x", "y")
        return item

    with pytest.raises(WorkerError, match="the result of item 3 cannot be pickled"):
        map_forked(lambda item: (lambda: item) if item == 3 else item, range(6))
    with pytest.raises(WorkerError, match="the LocalError exception of item 3 cannot be pickled"):
        map_forked(local_error, range(6))
    with pytest.raises(WorkerError, match="the reply for item 3 cannot be unpickled"):
        map_forked(needs_two, range(6))
    assert no_child_left() and gc.get_freeze_count() == 0


def test_the_worker_traceback_is_the_cause(two_cpus):
    with pytest.raises(DomainError) as excinfo:
        map_forked(reject, range(6))
    assert "in reject" in str(excinfo.value.__cause__)


def test_an_interrupted_caller_kills_and_reaps_its_workers(two_cpus):
    caller = os.getpid()

    def interrupt(item):
        if item == 1:
            os.kill(caller, signal.SIGINT)
        time.sleep(60)
        return item

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            map_forked(interrupt, range(4))
    finally:
        signal.signal(signal.SIGINT, handler)
    assert time.monotonic() - start < 30  # the sleeping workers were killed, not waited for
    assert no_child_left() and gc.get_freeze_count() == 0
