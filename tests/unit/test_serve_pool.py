"""Warm pool accounting: concurrent misses, and counts restarted in a
forked worker process."""

import sys
import threading

import repro.fleet.snapshot as snapshot_mod
from repro.guest.machine import boot_machine
from repro.serve.pool import WarmPool

_THREADS = 4
_ACQUIRES = 500


def test_counts_survive_concurrent_misses(monkeypatch):
    snapshot = boot_machine().snapshot()
    # a stand-in for the deepcopy: the threads then spend their time in
    # the pool's bookkeeping, where a lost update would show
    monkeypatch.setattr(
        snapshot_mod, "_clone_with_cow_physmem", lambda *args: object()
    )
    # no warm buffer: every acquisition misses and forks on its thread
    pool = WarmPool(warm_target=0)
    label = pool.add_snapshot(snapshot)[:12]

    def worker():
        for _ in range(_ACQUIRES):
            pool.acquire(snapshot.config)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch_interval)

    acquisitions = _THREADS * _ACQUIRES
    stats = pool.stats()[label]
    assert stats["hits"] + stats["misses"] == acquisitions
    assert stats["forked"] == acquisitions


def test_restarted_counts_leave_out_what_came_before(monkeypatch):
    snapshot = boot_machine().snapshot()
    monkeypatch.setattr(
        snapshot_mod, "_clone_with_cow_physmem", lambda *args: object()
    )
    pool = WarmPool(warm_target=2)
    label = pool.add_snapshot(snapshot)[:12]
    pool.refill()
    counts = ("warm", "forked", "hits", "misses", "refills")
    assert [pool.stats()[label][key] for key in counts] == [2, 2, 0, 0, 2]
    # as a worker process does with the start-up fill it inherited
    pool.restart_counts()
    assert [pool.stats()[label][key] for key in counts] == [2, 0, 0, 0, 0]
    pool.acquire(snapshot.config)
    pool.refill()
    assert [pool.stats()[label][key] for key in counts] == [2, 1, 1, 0, 1]
