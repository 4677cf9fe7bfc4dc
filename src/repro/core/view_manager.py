"""Kernel view construction (Section III-B1).

A :class:`KernelView` is a set of host frames shadowing the guest's
kernel code pages.  Views are built copy-on-write: every covered page of
a fresh view maps to the single machine-wide canonical ``UD2`` frame
(``0f 0b`` repeated from the page base, so even offsets hold ``0f``);
loading a fully-profiled page simply adopts the original guest frame;
only pages that end up *partially* filled materialize a private frame.
The refcounted bookkeeping and the write barrier that keeps this honest
live in :class:`repro.memory.physmem.SharedFrameStore` -- view build is
O(profiled bytes), not O(kernel size).

Function widening follows the paper exactly: starting from a marked
basic block, scan backwards and forwards for the function header
signature ``push ebp; mov ebp, esp`` (``55 89 e5``) at power-of-two
aligned addresses (the kernel is built with ``-falign-functions``).  The
prologue positions of each region are memoized (invalidated by writes to
the region's frames via ``physmem.code_epoch``), so widening many ranges
costs one linear scan per region plus a bisect per range.  The memo
belongs to the machine (``Machine.boundary_finder``): snapshot capture
scans every code region once (:meth:`ViewBuilder.index_code`), and every
fork inherits the index instead of rescanning the kernel text per job.

Installing a view re-points EPT entries for the covered guest-physical
pages at the view's frames; uninstalling restores identity mappings.
"""

from __future__ import annotations

import copy
from bisect import bisect_right, insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL
from repro.isa.opcodes import PROLOGUE_SIGNATURE, UD2_BYTES
from repro.memory.ept import ExtendedPageTable
from repro.memory.layout import KERNEL_BASE, PAGE_SIZE
from repro.memory.physmem import PhysicalMemory

#: Function alignment produced by -falign-functions.
FUNCTION_ALIGN = 16


def gva_to_gpa(gva: int) -> int:
    return gva - KERNEL_BASE


class FunctionBoundaryFinder:
    """Signature-based function boundary search over original guest memory.

    ``containing_function`` used to probe guest memory at every 16-byte
    candidate for every profiled range; the finder now pre-scans each
    region once into a sorted prologue list and answers queries with a
    bisect.  The memo is invalidated when any frame feeding it is
    written (``PhysicalMemory.code_epoch``).
    """

    def __init__(self, physmem: PhysicalMemory) -> None:
        self.physmem = physmem
        #: (region_start, region_end) -> (code_epoch, sorted prologue gvas)
        self._prologues: Dict[Tuple[int, int], Tuple[int, List[int]]] = {}

    def __deepcopy__(self, memo) -> "FunctionBoundaryFinder":
        # a snapshot fork: prologue lists are never mutated once built,
        # so the clone shares them; the memo dict is its own, since a
        # clone whose code is patched rescans
        clone = FunctionBoundaryFinder.__new__(FunctionBoundaryFinder)
        memo[id(self)] = clone
        clone.physmem = copy.deepcopy(self.physmem, memo)
        clone._prologues = dict(self._prologues)
        return clone

    def _signature_at(self, gva: int) -> bool:
        return (
            self.physmem.read(gva_to_gpa(gva), len(PROLOGUE_SIGNATURE))
            == PROLOGUE_SIGNATURE
        )

    def _prologue_index(self, region_start: int, region_end: int) -> List[int]:
        if region_end <= region_start:
            return []
        key = (region_start, region_end)
        epoch = self.physmem.code_epoch
        cached = self._prologues.get(key)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        return self._scan(region_start, region_end)

    def _scan(self, region_start: int, region_end: int) -> List[int]:
        sig = PROLOGUE_SIGNATURE
        gpa_start = gva_to_gpa(region_start)
        # per-candidate probes read up to len(sig)-1 bytes past
        # region_end; scan the same over-read so results match exactly
        length = region_end - region_start + len(sig) - 1
        self.physmem.watch_code_frames(
            range(gpa_start >> 12, ((gpa_start + length - 1) >> 12) + 1)
        )
        epoch = self.physmem.code_epoch
        data = self.physmem.read(gpa_start, length)
        # walk the signature's occurrences (a C-speed search) and keep
        # the aligned ones that start inside the region
        addrs = []
        end = region_end - region_start
        pos = data.find(sig)
        while 0 <= pos < end:
            if (region_start + pos) % FUNCTION_ALIGN == 0:
                addrs.append(region_start + pos)
            pos = data.find(sig, pos + 1)
        self._prologues[(region_start, region_end)] = (epoch, addrs)
        return addrs

    def containing_function(
        self, addr: int, region_start: int, region_end: int
    ) -> Tuple[int, int]:
        """The whole-function range around ``addr`` within a code region.

        Returns ``(start, end)`` where ``start`` is the nearest preceding
        aligned prologue and ``end`` the next aligned prologue (or the
        region bounds when no signature is found).
        """
        addr = max(region_start, min(addr, region_end - 1))
        index = self._prologue_index(region_start, region_end)
        i = bisect_right(index, addr)
        start = index[i - 1] if i > 0 else region_start
        end = index[i] if i < len(index) else region_end
        return start, end


class KernelView:
    """One application's in-memory kernel view (UD2-filled shadow pages)."""

    def __init__(
        self,
        index: int,
        config: KernelViewConfig,
        physmem: PhysicalMemory,
        finder: FunctionBoundaryFinder,
    ) -> None:
        self.index = index
        self.config = config
        self.physmem = physmem
        #: the machine's finder (``Machine.boundary_finder``)
        self.finder = finder
        #: gpfn -> hpfn for every covered kernel-code page.  The hpfn is
        #: the canonical UD2 frame, the original guest frame (fully
        #: loaded pages) or a private frame (partially filled pages).
        self.frames: Dict[int, int] = {}
        #: gpfns backed by a private (exclusively owned) frame
        self._private: Set[int] = set()
        #: (region_start, region_end) of every covered code region
        self.regions: List[Tuple[int, int]] = []
        self._region_begins: List[int] = []
        self._sorted_regions: List[Tuple[int, int]] = []
        self.loaded_bytes = 0
        self.recovered_ranges: List[Tuple[int, int]] = []
        #: EPTs this view is currently installed in (several, when
        #: multiple vCPUs run the same application)
        self.installed_epts: List[ExtendedPageTable] = []

    # -- construction -----------------------------------------------------------

    def add_region(self, region_start: int, region_end: int) -> None:
        """Cover a guest code region, CoW-shared with the canonical frame."""
        first = gva_to_gpa(region_start) >> 12
        last = (gva_to_gpa(region_end) + PAGE_SIZE - 1) >> 12
        if last <= first:
            return
        store = self.physmem.shared
        canonical = store.canonical_ud2_frame(UD2_BYTES)
        for gpfn in range(first, last):
            self.frames[gpfn] = canonical
            store.share(self, gpfn, canonical)
        self.regions.append((region_start, region_end))
        insort(self._sorted_regions, (region_start, region_end))
        self._region_begins = [begin for begin, _ in self._sorted_regions]

    def region_of(self, addr: int) -> Optional[Tuple[int, int]]:
        i = bisect_right(self._region_begins, addr) - 1
        if i >= 0:
            begin, end = self._sorted_regions[i]
            if begin <= addr < end:
                return begin, end
        return None

    def covers(self, addr: int) -> bool:
        return (gva_to_gpa(addr) >> 12) in self.frames

    def materialize_page(self, gpfn: int) -> int:
        """Break a shared page out into a private frame (CoW fault).

        The private copy snapshots the shared frame's *current* bytes, so
        it is written through :meth:`PhysicalMemory.write` -- bumping the
        new frame's version so no vCPU keeps executing stale decoded
        blocks -- and the view's installed EPTs are re-pointed (which
        bumps the covering level-2 epoch, dropping cached translations).
        """
        shared_hpfn = self.frames[gpfn]
        new = self.physmem.allocate_frames(1)[0]
        self.physmem.write(new << 12, bytes(self.physmem.frame(shared_hpfn)))
        self.frames[gpfn] = new
        self._private.add(gpfn)
        self.physmem.shared.unshare(self, gpfn, shared_hpfn)
        for ept in self.installed_epts:
            ept.map_frame(gpfn, new)
        return new

    def _adopt_original(self, gpfn: int) -> None:
        """Map a fully-loaded page straight to the original guest frame."""
        current = self.frames.get(gpfn)
        if current == gpfn:
            return
        store = self.physmem.shared
        if gpfn in self._private:
            self._private.discard(gpfn)
            self.physmem.free_frames([current])
        else:
            store.unshare(self, gpfn, current)
        self.frames[gpfn] = gpfn
        store.share(self, gpfn, gpfn)
        for ept in self.installed_epts:
            ept.map_frame(gpfn, gpfn)

    def load_function_ranges(
        self,
        ranges: Iterable[Tuple[int, int]],
        region: Tuple[int, int],
        widen: bool = True,
    ) -> None:
        """Copy profiled ranges in, widened to whole functions by default.

        ``widen=False`` loads the raw basic-block ranges instead -- the
        ablation of the paper's III-B1 relaxation.  Expect both more
        recovery traps (adjacent same-function code is missing) and
        split-UD2 hazards at odd range boundaries.
        """
        region_start, region_end = region
        for begin, end in ranges:
            if not widen:
                self.copy_original(begin, end)
                continue
            fn_start, _ = self.finder.containing_function(
                begin, region_start, region_end
            )
            _, fn_end = self.finder.containing_function(
                max(begin, end - 1), region_start, region_end
            )
            self.copy_original(fn_start, fn_end)

    def copy_original(self, start: int, end: int) -> None:
        """Load original guest bytes ``[start, end)`` into the view.

        Whole pages adopt the original guest frame outright (no copy);
        partial pages materialize a private frame on first touch.
        """
        addr = start
        while addr < end:
            gpfn = gva_to_gpa(addr) >> 12
            hpfn = self.frames.get(gpfn)
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - offset, end - addr)
            if hpfn is not None:
                if hpfn == gpfn:
                    # already the original frame: bytes identical by
                    # construction, and the CoW barrier snapshots the
                    # page if the original is ever patched
                    pass
                elif chunk == PAGE_SIZE:
                    self._adopt_original(gpfn)
                else:
                    if gpfn not in self._private:
                        self.materialize_page(gpfn)
                    data = self.physmem.read(gva_to_gpa(addr), chunk)
                    self.physmem.write((self.frames[gpfn] << 12) | offset, data)
                self.loaded_bytes += chunk
            addr += chunk

    # -- EPT wiring ------------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self.installed_epts)

    def install(self, ept: ExtendedPageTable) -> None:
        ept.map_frames(self.frames.items())
        if ept not in self.installed_epts:
            self.installed_epts.append(ept)

    def install_over(self, previous: "KernelView", ept: ExtendedPageTable) -> None:
        """Switch ``ept`` from ``previous`` to this view as a delta.

        Entries that already point at the right frame (most pages: both
        views share the canonical UD2 frame or the original) are no-op
        remaps skipped inside the EPT, so no epoch is bumped for them and
        cached translations stay valid -- the pointer-flip cost model of
        the paper's Section III-B2.  The final EPT state is identical to
        ``previous.uninstall(ept); self.install(ept)``.
        """
        frames = self.frames
        ept.map_frames(frames.items())
        ept.unmap_frames(
            gpfn for gpfn in previous.frames if gpfn not in frames
        )
        if ept in previous.installed_epts:
            previous.installed_epts.remove(ept)
        if ept not in self.installed_epts:
            self.installed_epts.append(ept)

    def uninstall(self, ept: ExtendedPageTable) -> None:
        ept.unmap_frames(self.frames.keys())
        if ept in self.installed_epts:
            self.installed_epts.remove(ept)

    def free(self) -> None:
        """Release the view's frames (view unload, III-B4).

        Only private frames are returned to the allocator; shared
        mappings (canonical UD2 frame, adopted originals) just drop one
        reference so other views keep using them.
        """
        for ept in list(self.installed_epts):
            self.uninstall(ept)
        store = self.physmem.shared
        private: List[int] = []
        for gpfn, hpfn in self.frames.items():
            if gpfn in self._private:
                private.append(hpfn)
            else:
                store.unshare(self, gpfn, hpfn)
        self.physmem.free_frames(private)
        self.frames.clear()
        self._private.clear()
        self.regions.clear()
        self._region_begins = []
        self._sorted_regions = []


class ViewBuilder:
    """Builds :class:`KernelView` objects from configs + guest state.

    ``widen=False`` disables the whole-function loading relaxation
    (ablation of Section III-B1).  Every view shares the machine's
    :class:`FunctionBoundaryFinder`, so prologue scans are amortized
    machine-wide -- and, through snapshot capture, across forks.
    """

    def __init__(self, machine, widen: bool = True) -> None:
        self.machine = machine
        self.widen = widen
        self.finder = machine.boundary_finder

    def code_regions(self) -> List[Tuple[str, Tuple[int, int]]]:
        """``(segment, (start, end))`` of every code region a view
        covers: the base kernel text, then each loaded module, located
        through the guest module list (VMI)."""
        image = self.machine.image
        regions = [(BASE_KERNEL, (image.text_start, image.text_end))]
        modules = {
            mod.name: mod for mod in self.machine.introspector.read_module_list()
        }
        for name, module in modules.items():
            regions.append((name, (module.base, module.base + module.size)))
        return regions

    def index_code(self) -> None:
        """Scan every code region into the machine's prologue index
        (snapshot capture: forks inherit the index)."""
        for _, (start, end) in self.code_regions():
            self.finder._prologue_index(start, end)

    def build(self, index: int, config: KernelViewConfig) -> KernelView:
        view = KernelView(
            index, config, self.machine.physmem, finder=self.finder
        )
        for name, region in self.code_regions():
            view.add_region(*region)
            ranges = config.profile.segments.get(name)
            if ranges is None:
                continue
            if name != BASE_KERNEL:
                # module ranges are relative to the module's load base
                base = region[0]
                ranges = [(base + begin, base + end) for begin, end in ranges]
            view.load_function_ranges(ranges, region, widen=self.widen)
        return view

    def extend_for_module(self, view: KernelView, name: str) -> None:
        """Cover a newly loaded module with UD2 frames (no profiled code).

        Called when a module appears after the view was built; any use of
        the module's code by the view's application will surface through
        the recovery log -- exactly the rootkit-detection property of the
        paper's Section IV-A2.
        """
        introspector = self.machine.introspector
        for module in introspector.read_module_list():
            if module.name != name:
                continue
            region_start = module.base
            region_end = module.base + module.size
            if view.region_of(region_start) is None:
                view.add_region(region_start, region_end)
                rel_ranges = view.config.profile.segments.get(name)
                if rel_ranges is not None:
                    absolute = [
                        (region_start + begin, region_start + end)
                        for begin, end in rel_ranges
                    ]
                    view.load_function_ranges(absolute, (region_start, region_end))
            return
