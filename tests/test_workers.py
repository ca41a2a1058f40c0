"""The worker pool that the identity suite and the chains run on."""

import gc
import multiprocessing

import pytest

from bimodalskew import _workers
from bimodalskew._workers import map_forked
from bimodalskew.errors import DomainError


@pytest.fixture
def forks(monkeypatch):
    """The start methods the pool asks multiprocessing for."""
    asked = []
    real = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda m: asked.append(m) or real(m))
    return asked


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
    assert forks == (["fork"] if cpus == 2 else [])
    assert freezes == ([1] if cpus == 2 else [])
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("cpus", [2, 1], ids=["forked", "in-process"])
def test_an_exception_reaches_the_caller_and_thaws_the_heap(monkeypatch, forks, cpus):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: cpus)
    with pytest.raises(DomainError, match="item 3 is out of range") as excinfo:
        map_forked(reject, range(6))
    assert excinfo.type is DomainError
    assert forks == (["fork"] if cpus == 2 else [])
    assert gc.get_freeze_count() == 0


def test_a_caller_frozen_heap_stays_frozen(monkeypatch, forks):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert map_forked(reject, [0, 1]) == [0, 1]
        assert forks == ["fork"]
        assert gc.get_freeze_count() >= frozen > 0
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("items", [[], [0]], ids=["none", "one"])
def test_fewer_than_two_items_run_in_process(monkeypatch, forks, freezes, items):
    monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
    assert map_forked(reject, items) == items
    assert forks == freezes == []
