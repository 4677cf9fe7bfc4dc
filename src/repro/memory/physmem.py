"""Host physical memory: a sparse collection of 4 KiB frames.

Frames are identified by host page frame number (hpfn).  Guest RAM is
mapped into the low hpfns; frames the hypervisor allocates for kernel-view
copies live above :attr:`PhysicalMemory.guest_frames`.

Each frame carries a monotonically increasing *version* so that the
virtual CPU's decoded-block cache (and the software MMU's page cache) can
detect writes -- in particular, FACE-CHANGE's recovery path writing
recovered code into a view frame must invalidate previously decoded UD2
blocks for that page.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.memory.layout import PAGE_SIZE


class PhysicalMemoryError(Exception):
    """Access to an unmapped host frame."""


class SharedFrameStore:
    """Refcounted frames shared copy-on-write between kernel views.

    Views copy only what they must: every unprofiled page maps to one
    canonical all-UD2 frame, and every fully-loaded page maps straight to
    the original guest frame.  A view build gives each partially-filled
    page a private frame, written once (``KernelView.add_region``);
    afterwards a shared page is materialized privately only when it is
    first written, by recovery (``KernelView.copy_original``) or through
    the write barrier below.

    The store tracks, per guest frame number, which views currently hold
    a shared mapping so the barrier can find the view whose copy must be
    broken out.  Reference counts decide when a hypervisor-owned shared
    frame can really be freed; original guest frames are never freed.
    """

    def __init__(self, physmem: "PhysicalMemory") -> None:
        # weak: the memory owns its store, not the other way round
        self._physmem = weakref.proxy(physmem)
        #: hpfn -> number of shared mappings (CoW-protected frames)
        self.refs: Dict[int, int] = {}
        #: gpfn -> views holding a shared mapping for that page
        self._owners: Dict[int, List[object]] = {}
        self._canonical_ud2: Optional[int] = None

    def canonical_ud2_frame(self, pattern: bytes) -> int:
        """The single shared all-``pattern`` frame (allocated lazily)."""
        if self._canonical_ud2 is None:
            hpfn = self._physmem.allocate_frames(1)[0]
            self._physmem.fill(hpfn << 12, PAGE_SIZE, pattern)
            # the store's own permanent reference keeps it alive forever
            self.refs[hpfn] = 1
            self._canonical_ud2 = hpfn
        return self._canonical_ud2

    def is_shared(self, hpfn: int) -> bool:
        return hpfn in self.refs

    def refcount(self, hpfn: int) -> int:
        return self.refs.get(hpfn, 0)

    def share(self, view: object, gpfn: int, hpfn: int) -> None:
        """Record that ``view`` maps ``gpfn`` to the shared ``hpfn``."""
        self.refs[hpfn] = self.refs.get(hpfn, 0) + 1
        self._owners.setdefault(gpfn, []).append(view)

    def unshare(self, view: object, gpfn: int, hpfn: int) -> None:
        """Drop one shared mapping; free the frame at zero references."""
        owners = self._owners.get(gpfn)
        if owners is not None:
            try:
                owners.remove(view)
            except ValueError:
                pass
            if not owners:
                del self._owners[gpfn]
        count = self.refs.get(hpfn, 0) - 1
        if count > 0:
            self.refs[hpfn] = count
        else:
            self.refs.pop(hpfn, None)
            if hpfn >= self._physmem.guest_frames:
                self._physmem.free_frames([hpfn])

    def break_on_write(self, gpfn: int, hpfn: int, ept: object = None) -> Optional[int]:
        """CoW write barrier: called before a write through ``gpfn``/``hpfn``.

        When the write arrives through an EPT with a view installed, that
        view materializes a private copy and the returned replacement
        hpfn receives the write.  When the write targets the *original*
        guest frame (``hpfn == gpfn``, e.g. a rootkit patching resident
        kernel text through the identity mapping), every view still
        sharing that frame snapshots it first, and ``None`` is returned
        so the write proceeds to the original.
        """
        owners = self._owners.get(gpfn)
        if not owners:
            return None
        redirect = None
        if ept is not None:
            for view in list(owners):
                if view.frames.get(gpfn) == hpfn and ept in view.installed_epts:
                    redirect = view.materialize_page(gpfn)
                    break
        if redirect is None and hpfn == gpfn:
            for view in list(owners):
                if view.frames.get(gpfn) == hpfn:
                    view.materialize_page(gpfn)
        return redirect


class PhysicalMemory:
    """Sparse physical memory with per-frame version counters.

    ``base_frames`` turns the instance into a copy-on-write overlay over
    a frozen parent image (``hpfn -> bytes``), which is how
    :class:`repro.fleet.snapshot.MachineSnapshot` forks guest clones:
    the base dict is shared (never copied, never mutated) between every
    clone, reads are served straight from it, and a private mutable
    frame is materialized only when :meth:`frame` is asked for a
    writable view of a page.  Snapshots of pristine machines only ever
    contain guest frames (< ``guest_frames``), so :meth:`free_frames` --
    which targets hypervisor-owned frames -- never has to tombstone the
    base layer.
    """

    def __init__(
        self,
        guest_frames: int = 1 << 18,
        base_frames: Optional[Dict[int, bytes]] = None,
    ) -> None:
        #: number of hpfns reserved for guest RAM (default 1 GiB)
        self.guest_frames = guest_frames
        self._frames: Dict[int, bytearray] = {}
        #: frozen copy-on-write parent image (shared between clones)
        self._base_frames: Dict[int, bytes] = (
            base_frames if base_frames is not None else {}
        )
        self._versions: Dict[int, int] = {}
        self._next_hypervisor_frame = guest_frames
        #: copy-on-write bookkeeping for deduplicated kernel-view frames
        self.shared = SharedFrameStore(self)
        #: frames whose bytes feed the function-boundary prologue memo;
        #: any write to one bumps ``code_epoch``, invalidating the memo
        self._watched_code: Set[int] = set()
        self.code_epoch = 0

    # -- frame management ---------------------------------------------------

    def frame(self, hpfn: int) -> bytearray:
        """Return the backing bytearray for ``hpfn``, creating it lazily.

        On a CoW overlay the first writable access to a base frame
        materializes a private copy; its version is inherited from the
        snapshot (the copy holds identical bytes, so cached decodes that
        key on the version stay valid).
        """
        data = self._frames.get(hpfn)
        if data is None:
            base = self._base_frames.get(hpfn)
            data = bytearray(base) if base is not None else bytearray(PAGE_SIZE)
            self._frames[hpfn] = data
            self._versions.setdefault(hpfn, 0)
        return data

    def version(self, hpfn: int) -> int:
        """Current write-version of ``hpfn`` (0 for untouched frames)."""
        return self._versions.get(hpfn, 0)

    def bump_version(self, hpfn: int) -> None:
        """Record an external in-place write to ``hpfn``'s bytearray."""
        self._versions[hpfn] = self._versions.get(hpfn, 0) + 1
        if hpfn in self._watched_code:
            self.code_epoch += 1

    def watch_code_frames(self, hpfns: Iterable[int]) -> None:
        """Mark frames whose writes must invalidate the prologue memo."""
        self._watched_code.update(hpfns)

    def allocate_frames(self, count: int) -> List[int]:
        """Allocate ``count`` fresh hypervisor-owned frames."""
        start = self._next_hypervisor_frame
        self._next_hypervisor_frame += count
        return list(range(start, start + count))

    def free_frames(self, hpfns: List[int]) -> None:
        """Release hypervisor-owned frames (e.g. on view unload)."""
        for hpfn in hpfns:
            self._frames.pop(hpfn, None)
            self._versions.pop(hpfn, None)

    def allocated_frame_count(self) -> int:
        return len(self._frames)

    def freeze_frames(self) -> Dict[int, bytes]:
        """An immutable image of every resident frame (snapshot base).

        Private (materialized) frames shadow same-numbered base frames,
        so freezing a CoW overlay yields the overlay's effective view.
        """
        merged: Dict[int, bytes] = dict(self._base_frames)
        for hpfn, data in self._frames.items():
            merged[hpfn] = bytes(data)
        return merged

    # -- byte access (host-physical addressing) ------------------------------

    def read(self, hpa: int, length: int) -> bytes:
        """Read ``length`` bytes starting at host-physical address ``hpa``."""
        out = bytearray()
        frames = self._frames
        base = self._base_frames
        for hpfn, offset, chunk in self._spans(hpa, length):
            data = frames.get(hpfn)
            if data is None and base:
                # CoW fast path: serve reads from the shared parent image
                # without materializing a private frame.
                data = base.get(hpfn)
            if data is None:
                data = self.frame(hpfn)
            out.extend(data[offset : offset + chunk])
        return bytes(out)

    def write(self, hpa: int, data: bytes) -> None:
        """Write ``data`` at host-physical address ``hpa``."""
        pos = 0
        shared_refs = self.shared.refs
        for hpfn, offset, chunk in self._spans(hpa, len(data)):
            # CoW barrier: writing an original guest frame that views
            # still share (hpa == gpa for guest RAM) snapshots it first.
            if shared_refs and hpfn in shared_refs and hpfn < self.guest_frames:
                self.shared.break_on_write(hpfn, hpfn)
            self.frame(hpfn)[offset : offset + chunk] = data[pos : pos + chunk]
            self._versions[hpfn] = self._versions.get(hpfn, 0) + 1
            if hpfn in self._watched_code:
                self.code_epoch += 1
            pos += chunk

    def fill(self, hpa: int, length: int, pattern: bytes) -> None:
        """Fill ``length`` bytes at ``hpa`` by repeating ``pattern``.

        Used for UD2-filling view frames.  The pattern is laid down
        aligned to the start address, so a two-byte pattern written at an
        even address keeps ``0f`` on even offsets.
        """
        if not pattern:
            raise ValueError("empty fill pattern")
        repeated = (pattern * (length // len(pattern) + 2))[:length]
        self.write(hpa, repeated)

    def _spans(self, hpa: int, length: int) -> Iterator[Tuple[int, int, int]]:
        if length < 0:
            raise ValueError("negative length")
        remaining = length
        addr = hpa
        while remaining > 0:
            hpfn = addr >> 12
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - offset, remaining)
            yield hpfn, offset, chunk
            addr += chunk
            remaining -= chunk
