"""Warm pool accounting when workers miss concurrently."""

import sys
import threading

import repro.fleet.snapshot as snapshot_mod
from repro.guest.machine import boot_machine
from repro.serve.pool import WarmPool
from repro.telemetry import Telemetry

_THREADS = 4
_ACQUIRES = 500


def test_counts_survive_concurrent_misses(monkeypatch):
    snapshot = boot_machine().snapshot()
    # a stand-in for the deepcopy: the threads then spend their time in
    # the pool's bookkeeping, where a lost update would show
    monkeypatch.setattr(
        snapshot_mod, "_clone_with_cow_physmem", lambda *args: object()
    )
    telemetry = Telemetry()
    # no warm buffer: every acquisition misses and forks on its thread
    pool = WarmPool(warm_target=0, telemetry=telemetry)
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
    misses = telemetry.labelled_counter("serve.pool.misses").values
    assert misses.get(label, 0) == acquisitions
