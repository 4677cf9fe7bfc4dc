"""Machine snapshot and copy-on-write fork.

``MachineSnapshot.capture`` serializes a *pristine* booted machine --
physical memory frames, EPTs, vCPU register state and the kernel
runtime's object graph -- into an in-memory snapshot.  ``fork()`` then
produces any number of independent clones:

* physical frames are **shared copy-on-write**: every clone's
  :class:`~repro.memory.physmem.PhysicalMemory` is an empty overlay
  over one frozen ``hpfn -> bytes`` base image, and a private frame is
  materialized only when a page is first touched for writing
  (:meth:`PhysicalMemory.frame`), so N clones cost far less than N
  boots' worth of memory;
* everything else (EPT directories, vCPU registers, the kernel
  runtime's tasks/subsystems, telemetry) is structurally cloned with
  internal aliasing preserved, so a clone is indistinguishable from a
  freshly booted machine -- same virtual clock, same frame versions,
  same task table -- and runs **bit-identically** to one.  What no job
  mutates is shared instead: the semantic registry and the kernel's
  frozen :class:`~repro.kernel.image.Symbol` objects (the symbol table
  holding them is still per clone).

Whoever runs a job on a clone calls
:meth:`~repro.guest.machine.Machine.close` when the job ends, so the
clone is freed by reference counting, not by the cyclic collector.

Pristine means: booted, but no user tasks spawned, no FACE-CHANGE
attached, no views loaded.  User-task drivers are Python generators
(not cloneable), and loaded views pin shared-frame bookkeeping to the
original machine; capture refuses both loudly rather than producing a
subtly broken clone.  The fleet workflow attaches FACE-CHANGE and loads
profiles *per clone*, after forking.
"""

from __future__ import annotations

import copy
import threading
from typing import Dict, Optional

from repro.core.view_manager import ViewBuilder
from repro.guest.config import GuestConfig
from repro.guest.machine import Machine
from repro.kernel.registry import REGISTRY
from repro.memory.physmem import PhysicalMemory


class SnapshotError(Exception):
    """The machine cannot be captured (or a snapshot cannot fork)."""


def _check_pristine(machine: Machine) -> None:
    if machine.runtime is None:
        raise SnapshotError("machine must be booted before capture")
    offenders = [
        task.comm
        for task in machine.runtime.tasks.values()
        if getattr(task, "drivers", None)
    ]
    if offenders:
        raise SnapshotError(
            "cannot capture a machine with live user tasks (generator "
            f"drivers are not cloneable): {', '.join(sorted(offenders))}"
        )
    if machine.hypervisor._trap_entries:
        raise SnapshotError(
            "cannot capture a machine with address traps registered "
            "(detach FACE-CHANGE first; clones attach their own)"
        )
    if machine.runtime.module_load_listeners:
        raise SnapshotError(
            "cannot capture a machine with module-load listeners attached"
        )
    shared = machine.physmem.shared
    if shared.refs or shared._owners:
        raise SnapshotError(
            "cannot capture a machine with kernel views loaded "
            "(shared-frame store is not empty)"
        )


def _clone_with_cow_physmem(
    machine: Machine, base_frames: Dict[int, bytes], versions: Dict[int, int]
) -> Machine:
    """Deep-copy ``machine`` with its physmem replaced by a CoW overlay.

    The deepcopy memo is pre-seeded so that every reference into the
    source machine's physical memory -- the hypervisor's, each MMU's,
    the kernel image's, plus the *interior* aliases components hold
    (``Mmu._shared_refs`` is ``physmem.shared.refs``,
    ``Vcpu._frame_versions`` is ``physmem._versions``) -- lands on the
    clone's overlay instead of a deep copy of the frames.
    """
    source = machine.physmem
    cow = PhysicalMemory(
        guest_frames=source.guest_frames, base_frames=base_frames
    )
    cow._versions = dict(versions)
    cow._next_hypervisor_frame = source._next_hypervisor_frame
    cow._watched_code = set(source._watched_code)
    cow.code_epoch = source.code_epoch
    memo = {
        id(source): cow,
        id(source._frames): cow._frames,
        id(source._versions): cow._versions,
        id(source._watched_code): cow._watched_code,
        id(source.shared): cow.shared,
        id(source.shared.refs): cow.shared.refs,
        id(source.shared._owners): cow.shared._owners,
        # the semantic registry is an immutable module-level singleton;
        # share it instead of cloning its dispatch tables
        id(REGISTRY): REGISTRY,
    }
    return copy.deepcopy(machine, memo)


class MachineSnapshot:
    """A frozen image of a booted machine, forkable into CoW clones."""

    def __init__(self, template: Machine, base_frames: Dict[int, bytes]) -> None:
        self._template = template
        self._base_frames = base_frames
        #: forks made so far; the fleet's thread pool forks one snapshot
        #: from several threads at once
        self.fork_count = 0
        self._count_lock = threading.Lock()
        #: the guest build this snapshot was captured from
        self.config: GuestConfig = template.config
        self.guest_digest: str = template.config.digest()
        self.build_digest: str = template.config.build_digest()

    @classmethod
    def capture(cls, machine: Machine) -> "MachineSnapshot":
        """Freeze ``machine``'s state.  The machine stays usable.

        The snapshot owns a private template clone, so the source
        machine may keep running (or be discarded) without perturbing
        later forks.
        """
        _check_pristine(machine)
        # the prologue index is built here, once, and every fork inherits
        # it (validated by ``code_epoch`` like any other scan)
        ViewBuilder(machine).index_code()
        # caches hold direct frame references; dropping them is
        # semantically invisible and keeps them out of the template
        machine.flush_caches()
        base = machine.physmem.freeze_frames()
        versions = dict(machine.physmem._versions)
        template = _clone_with_cow_physmem(machine, base, versions)
        return cls(template, base)

    @property
    def frame_count(self) -> int:
        """Number of frames in the shared base image."""
        return len(self._base_frames)

    def fork(self, expect_digest: Optional[str] = None) -> Machine:
        """Produce an independent clone sharing frames copy-on-write.

        ``expect_digest`` pins the fork to a guest variant: when given
        and it does not match this snapshot's config digest, the fork is
        refused instead of silently running the job on the wrong kernel
        build.
        """
        if expect_digest is not None and expect_digest != self.guest_digest:
            raise SnapshotError(
                "guest variant mismatch: job is pinned to guest digest "
                f"{expect_digest[:12]} but this snapshot was captured from "
                f"{self.config.label()} (digest {self.guest_digest[:12]})"
            )
        template = self._template
        clone = _clone_with_cow_physmem(
            template,
            self._base_frames,
            template.physmem._versions,
        )
        with self._count_lock:
            self.fork_count += 1
        return clone
