"""Warm machine pools keyed by guest-config digest.

A batch fleet boots one machine per guest variant, snapshots it, and
forks clones on demand -- the boot is amortized across the run, but
every job still pays a fork on its critical path.  A long-lived daemon
can do better on both counts:

* the **snapshot** for each variant is booted once and kept for the
  daemon's lifetime (``MachineSnapshot`` is immutable; forks are
  bit-identical to fresh boots, PR 3's invariant);
* a small buffer of **pre-forked clones** per variant is kept warm, and
  each serve worker process refills its own buffer between jobs, so a
  submission usually finds a ready machine and its critical path is
  just the workload.

Warm clones are interchangeable with on-demand forks by construction:
``fork()`` is deterministic, so *which* clone a job lands on cannot
affect guest-visible behaviour.  ``fork(expect_digest=...)`` pinning is
preserved -- a pool can never hand out a clone of the wrong variant.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

from repro.fleet.snapshot import MachineSnapshot
from repro.guest.config import GuestConfig
from repro.guest.machine import Machine, boot_machine


class WarmPool:
    """Per-variant warm ``MachineSnapshot`` + pre-forked clone buffers."""

    def __init__(self, warm_target: int = 2) -> None:
        self.warm_target = warm_target
        self._lock = threading.Lock()
        self._snapshots: Dict[str, MachineSnapshot] = {}
        self._warm: Dict[str, List[Machine]] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._refills: Dict[str, int] = {}
        #: each snapshot's fork count when the counts last restarted
        self._forks_before: Dict[str, int] = {}

    # -- population ----------------------------------------------------------

    def add_snapshot(self, snapshot: MachineSnapshot) -> str:
        """Adopt an existing snapshot (tests, pre-booted machines)."""
        with self._lock:
            digest = snapshot.guest_digest
            self._snapshots.setdefault(digest, snapshot)
            self._warm.setdefault(digest, [])
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
        return digest

    def variants(self) -> List[str]:
        with self._lock:
            return sorted(self._snapshots)

    def frame_count(self) -> int:
        """Frames in the shared base images of every pooled snapshot."""
        with self._lock:
            return sum(s.frame_count for s in self._snapshots.values())

    # -- acquisition ---------------------------------------------------------

    def acquire(self, config: GuestConfig) -> Machine:
        """A ready clone of ``config``'s variant (warm hit or live fork)."""
        digest = self.ensure(config)
        with self._lock:
            warm = self._warm[digest]
            if warm:
                clone = warm.pop()
                self._hits[digest] = self._hits.get(digest, 0) + 1
                return clone
            snapshot = self._snapshots[digest]
            self._misses[digest] = self._misses.get(digest, 0) + 1
        return snapshot.fork(expect_digest=digest)

    # -- refill ----------------------------------------------------------------

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
            self._warm[digest].append(clone)
            self._refills[digest] = self._refills.get(digest, 0) + 1
        return True

    def refill(self) -> None:
        """Fill every buffer to target: at daemon start-up, and in each
        worker process after every job."""
        while self.refill_once():
            pass

    # -- stats ----------------------------------------------------------------

    def restart_counts(self) -> None:
        """Count hits, misses, refills and forks from zero again: in a
        forked worker process, so it reports only what it does itself."""
        with self._lock:
            self._hits.clear()
            self._misses.clear()
            self._refills.clear()
            self._forks_before = {
                digest: snapshot.fork_count
                for digest, snapshot in self._snapshots.items()
            }

    def stats(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                digest[:12]: {
                    "label": self._snapshots[digest].config.label(),
                    "warm": len(self._warm[digest]),
                    "target": self.warm_target,
                    "forked": self._snapshots[digest].fork_count
                    - self._forks_before.get(digest, 0),
                    "hits": self._hits.get(digest, 0),
                    "misses": self._misses.get(digest, 0),
                    "refills": self._refills.get(digest, 0),
                }
                for digest in sorted(self._snapshots)
            }
