"""Warm machine pools keyed by guest-config digest.

A batch fleet boots one machine per guest variant, snapshots it, and
forks clones on demand -- the boot is amortized across the run, but
every job still pays a fork on its critical path.  A long-lived daemon
can do better on both counts:

* the **snapshot** for each variant is booted once and kept for the
  daemon's lifetime (``MachineSnapshot`` is immutable; forks are
  bit-identical to fresh boots, PR 3's invariant);
* a small buffer of **pre-forked clones** per variant is kept warm and
  refilled in the background, so a submission usually finds a ready
  machine and its critical path is just the workload.

Warm clones are interchangeable with on-demand forks by construction:
``fork()`` is deterministic, so *which* clone a job lands on cannot
affect guest-visible behaviour.  ``fork(expect_digest=...)`` pinning is
preserved -- a pool can never hand out a clone of the wrong variant.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

from repro.fleet.snapshot import MachineSnapshot
from repro.guest.config import GuestConfig
from repro.guest.machine import Machine, boot_machine


class WarmPool:
    """Per-variant warm ``MachineSnapshot`` + pre-forked clone buffers."""

    def __init__(
        self,
        warm_target: int = 2,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.warm_target = warm_target
        self.telemetry = telemetry
        self._lock = threading.Lock()
        self._snapshots: Dict[str, MachineSnapshot] = {}
        self._warm: Dict[str, List[Machine]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._refills: Dict[str, int] = {}
        self._stop = threading.Event()
        self._refill_thread: Optional[threading.Thread] = None
        self._refill_wake = threading.Event()

    # -- population ----------------------------------------------------------

    def add_snapshot(self, snapshot: MachineSnapshot) -> str:
        """Adopt an existing snapshot (tests, pre-booted machines)."""
        with self._lock:
            digest = snapshot.guest_digest
            self._snapshots.setdefault(digest, snapshot)
            self._warm.setdefault(digest, [])
            self._refill_wake.set()
            return digest

    def ensure(self, config: GuestConfig) -> str:
        """Boot + snapshot ``config``'s variant if not pooled yet."""
        digest = config.digest()
        with self._lock:
            if digest in self._snapshots:
                return digest
        # boot outside the lock: it is slow and the GIL is enough to
        # keep the dict updates below safe under the lock re-take
        snapshot = boot_machine(config=config).snapshot()
        with self._lock:
            self._snapshots.setdefault(digest, snapshot)
            self._warm.setdefault(digest, [])
            self._refill_wake.set()
        return digest

    def variants(self) -> List[str]:
        with self._lock:
            return sorted(self._snapshots)

    # -- acquisition ---------------------------------------------------------

    def acquire(self, config: GuestConfig) -> Machine:
        """A ready clone of ``config``'s variant (warm hit or live fork)."""
        digest = self.ensure(config)
        with self._lock:
            warm = self._warm[digest]
            if warm:
                clone = warm.pop()
                self._hits[digest] = self._hits.get(digest, 0) + 1
                self._count("serve.pool.hits", digest)
                self._refill_wake.set()
                return clone
            snapshot = self._snapshots[digest]
            self._misses[digest] = self._misses.get(digest, 0) + 1
            self._count("serve.pool.misses", digest)
        return snapshot.fork(expect_digest=digest)

    # -- background refill ----------------------------------------------------

    def refill_once(self) -> bool:
        """Fork one clone for the emptiest under-target variant buffer."""
        with self._lock:
            needy = [
                (len(self._warm[digest]), digest)
                for digest in self._snapshots
                if len(self._warm[digest]) < self.warm_target
            ]
            if not needy:
                return False
            _, digest = min(needy)
            snapshot = self._snapshots[digest]
        clone = snapshot.fork(expect_digest=digest)
        with self._lock:
            # target may have been met concurrently; an extra warm clone
            # is harmless (it just serves the next hit)
            self._warm[digest].append(clone)
            self._refills[digest] = self._refills.get(digest, 0) + 1
            self._count("serve.pool.refills", digest)
        return True

    def prewarm(self) -> None:
        """Fill every buffer to target synchronously (daemon startup)."""
        while self.refill_once():
            pass

    def start_refill_thread(self) -> None:
        if self._refill_thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                if not self.refill_once():
                    self._refill_wake.wait(timeout=0.05)
                    self._refill_wake.clear()

        self._refill_thread = threading.Thread(
            target=loop, name="serve-pool-refill", daemon=True
        )
        self._refill_thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._refill_wake.set()
        if self._refill_thread is not None:
            self._refill_thread.join(timeout=5.0)
            self._refill_thread = None

    # -- stats ----------------------------------------------------------------

    def _count(self, counter: str, digest: str) -> None:
        if self.telemetry is not None:
            self.telemetry.labelled_counter(counter).inc(digest[:12])

    def stats(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                digest[:12]: {
                    "label": self._snapshots[digest].config.label(),
                    "warm": len(self._warm[digest]),
                    "target": self.warm_target,
                    "forked": self._snapshots[digest].fork_count,
                    "hits": self._hits.get(digest, 0),
                    "misses": self._misses.get(digest, 0),
                    "refills": self._refills.get(digest, 0),
                }
                for digest in sorted(self._snapshots)
            }
