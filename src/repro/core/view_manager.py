"""Kernel view construction (Section III-B1).

A :class:`KernelView` is a set of host frames shadowing the guest's
kernel code pages.  A view build is a *plan* and its application.  The
plan (:class:`ViewPlan`) takes one code region's profiled ranges, widens
them to whole functions, merges them and lays them out per page: the
pages covered whole, each partly covered page with its byte spans, and
the loaded byte count.  Applying it (:meth:`KernelView.add_region`) maps
every page the merged functions cover whole to the original guest frame,
gives each partly covered page one fresh private frame written once (the
``UD2`` fill -- ``0f 0b`` repeated from the page base, so even offsets
hold ``0f`` -- with the original spans read from this machine's memory),
and maps every other page to the single machine-wide canonical ``UD2``
frame.  The refcounted bookkeeping and the write barriers that keep the
sharing honest live in :class:`repro.memory.physmem.SharedFrameStore`;
recovery and the barriers still materialize and fill pages one at a
time (:meth:`KernelView.copy_original`, :meth:`KernelView.materialize_page`).

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
Each region's entry also memoizes the plans built from it.  A snapshot's
template and all its forks share the entries, so every fork of a
snapshot reuses a plan another fork made, and a rescan starts an entry
with no plans.  Plans hold addresses only, never page bytes.

Installing a view re-points EPT entries for the covered guest-physical
pages at the view's frames; uninstalling restores identity mappings.
"""

from __future__ import annotations

import copy
from bisect import bisect_right, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, RangeList
from repro.isa.opcodes import PROLOGUE_SIGNATURE, UD2_BYTES
from repro.memory.ept import ExtendedPageTable
from repro.memory.layout import KERNEL_BASE, PAGE_SIZE
from repro.memory.physmem import PhysicalMemory

#: Function alignment produced by -falign-functions.
FUNCTION_ALIGN = 16

#: plans memoized per prologue-index entry; a full memo is cleared
#: wholesale, as ``jit.PROMOTED`` is
_MAX_PLANS = 64

#: a page of UD2 fill, the base of every partly covered page
_UD2_PAGE = UD2_BYTES * (PAGE_SIZE // len(UD2_BYTES))


def gva_to_gpa(gva: int) -> int:
    return gva - KERNEL_BASE


@dataclass(frozen=True)
class ViewPlan:
    """One code region's part of a view, laid out per page.

    Made by :meth:`FunctionBoundaryFinder.plan` from a profile's ranges,
    widened to whole functions unless the III-B1 ablation is on.  It
    holds addresses only: the bytes are read from the machine the plan
    is applied to (:meth:`KernelView.add_region`).
    """

    #: gpfns the merged spans cover whole (they adopt the original frame)
    whole: Tuple[int, ...] = ()
    #: ``(gpfn, ((begin, end), ...))`` for each partly covered page: the
    #: page-offset spans that hold original bytes, in order
    partial: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...] = ()
    #: bytes the merged spans load, each counted once
    loaded_bytes: int = 0

    @classmethod
    def from_spans(
        cls, spans: Iterable[Tuple[int, int]], region: Tuple[int, int]
    ) -> "ViewPlan":
        """Merge guest-virtual ``spans`` and lay them out on the pages of
        ``region``; bytes outside the region's pages are not loaded."""
        low = gva_to_gpa(region[0]) & ~(PAGE_SIZE - 1)
        high = (gva_to_gpa(region[1]) + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
        merged = RangeList(
            (max(gva_to_gpa(begin), low), min(gva_to_gpa(end), high))
            for begin, end in spans
        )
        whole: List[int] = []
        partial: Dict[int, List[Tuple[int, int]]] = {}
        loaded = 0
        for begin, end in merged:
            loaded += end - begin
            addr = begin
            while addr < end:
                gpfn = addr >> 12
                offset = addr & (PAGE_SIZE - 1)
                chunk = min(PAGE_SIZE - offset, end - addr)
                if chunk == PAGE_SIZE:
                    whole.append(gpfn)
                else:
                    partial.setdefault(gpfn, []).append((offset, offset + chunk))
                addr += chunk
        return cls(
            whole=tuple(whole),
            partial=tuple((gpfn, tuple(page)) for gpfn, page in partial.items()),
            loaded_bytes=loaded,
        )


#: the plan of a region with no profiled code: every page is UD2
EMPTY_PLAN = ViewPlan()


class _RegionIndex:
    """One code region's prologue index and the plans built from it."""

    __slots__ = ("epoch", "prologues", "plans")

    def __init__(self, epoch: int, prologues: List[int]) -> None:
        self.epoch = epoch
        #: sorted aligned prologue gvas
        self.prologues = prologues
        #: ``(widen, ranges)`` -> the :class:`ViewPlan` built from them
        self.plans: Dict[Tuple[bool, Tuple[Tuple[int, int], ...]], ViewPlan] = {}


class FunctionBoundaryFinder:
    """Signature-based function boundary search over original guest memory.

    ``containing_function`` used to probe guest memory at every 16-byte
    candidate for every profiled range; the finder now pre-scans each
    region once into a sorted prologue list and answers queries with a
    bisect.  Each region's entry also memoizes the view plans built on
    its prologues (:meth:`plan`).  An entry is dropped, plans and all,
    when any frame feeding it is written (``PhysicalMemory.code_epoch``).
    """

    def __init__(self, physmem: PhysicalMemory) -> None:
        self.physmem = physmem
        #: (region_start, region_end) -> the region's index entry
        self._prologues: Dict[Tuple[int, int], _RegionIndex] = {}

    def __deepcopy__(self, memo) -> "FunctionBoundaryFinder":
        # a snapshot fork: prologue lists are never mutated once built,
        # so the clone shares the entries, and with them their plans;
        # the dict is its own, since a clone whose code is patched
        # rescans into a fresh entry
        clone = FunctionBoundaryFinder.__new__(FunctionBoundaryFinder)
        memo[id(self)] = clone
        clone.physmem = copy.deepcopy(self.physmem, memo)
        clone._prologues = dict(self._prologues)
        return clone

    def _entry(self, region_start: int, region_end: int) -> _RegionIndex:
        cached = self._prologues.get((region_start, region_end))
        if cached is not None and cached.epoch == self.physmem.code_epoch:
            return cached
        return self._scan(region_start, region_end)

    def _prologue_index(self, region_start: int, region_end: int) -> List[int]:
        if region_end <= region_start:
            return []
        return self._entry(region_start, region_end).prologues

    def _scan(self, region_start: int, region_end: int) -> _RegionIndex:
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
        entry = _RegionIndex(epoch, addrs)
        self._prologues[(region_start, region_end)] = entry
        return entry

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

    def plan(
        self,
        region: Tuple[int, int],
        ranges: Iterable[Tuple[int, int]],
        widen: bool = True,
    ) -> ViewPlan:
        """The :class:`ViewPlan` that loads ``ranges`` into ``region``,
        each widened to the whole functions it touches unless ``widen``
        is off.

        Memoized in the region's index entry, keyed by the ranges, so a
        profile is widened and laid out once per snapshot.
        """
        region_start, region_end = region
        if region_end <= region_start:
            return EMPTY_PLAN
        plans = self._entry(region_start, region_end).plans
        key = (widen, tuple(ranges))
        plan = plans.get(key)
        if plan is None:
            spans = key[1]
            if widen:
                spans = [
                    (
                        self.containing_function(begin, *region)[0],
                        self.containing_function(max(begin, end - 1), *region)[1],
                    )
                    for begin, end in spans
                ]
            plan = ViewPlan.from_spans(spans, region)
            if len(plans) >= _MAX_PLANS:
                plans.clear()
            plans[key] = plan
        return plan


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

    def add_region(
        self, region_start: int, region_end: int, plan: ViewPlan = EMPTY_PLAN
    ) -> None:
        """Cover a guest code region and load ``plan`` into it.

        Pages the plan covers whole adopt the original guest frame, each
        partly covered page gets a fresh private frame written once, and
        every other page shares the canonical UD2 frame.
        """
        first = gva_to_gpa(region_start) >> 12
        last = (gva_to_gpa(region_end) + PAGE_SIZE - 1) >> 12
        if last <= first:
            return
        physmem = self.physmem
        store = physmem.shared
        frames = self.frames
        canonical = store.canonical_ud2_frame(UD2_BYTES)
        for gpfn in range(first, last):
            frames[gpfn] = canonical
        for gpfn in plan.whole:
            frames[gpfn] = gpfn
        hpfns = physmem.allocate_frames(len(plan.partial))
        for hpfn, (gpfn, spans) in zip(hpfns, plan.partial):
            original = physmem.read(gpfn << 12, PAGE_SIZE)
            page = bytearray(_UD2_PAGE)
            for begin, end in spans:
                page[begin:end] = original[begin:end]
            physmem.write(hpfn << 12, page)
            frames[gpfn] = hpfn
        private = self._private
        private.update(gpfn for gpfn, _ in plan.partial)
        for gpfn in range(first, last):
            if gpfn not in private:
                store.share(self, gpfn, frames[gpfn])
        self.loaded_bytes += plan.loaded_bytes
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

    def copy_original(self, start: int, end: int) -> None:
        """Load original guest bytes ``[start, end)`` into a built view
        (recovery's FETCH_FILL_CODE).

        Whole pages adopt the original guest frame outright (no copy);
        partial pages materialize a private frame on first touch.  Every
        chunk copied counts towards ``loaded_bytes``.
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

    ``widen=False`` loads the raw basic-block ranges instead of whole
    functions -- the ablation of the paper's III-B1 relaxation.  Expect
    both more recovery traps (adjacent same-function code is missing)
    and split-UD2 hazards at odd range boundaries.  Every view shares
    the machine's :class:`FunctionBoundaryFinder`, so prologue scans and
    view plans are amortized machine-wide -- and, through snapshot
    capture, across forks.
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

    def _plan(
        self, name: str, region: Tuple[int, int], config: KernelViewConfig
    ) -> ViewPlan:
        """The plan of the profile's segment ``name`` in ``region``."""
        ranges = config.profile.segments.get(name)
        if ranges is None:
            return EMPTY_PLAN
        if name != BASE_KERNEL:
            # module ranges are relative to the module's load base
            base = region[0]
            ranges = [(base + begin, base + end) for begin, end in ranges]
        return self.finder.plan(region, ranges, widen=self.widen)

    def build(self, index: int, config: KernelViewConfig) -> KernelView:
        view = KernelView(
            index, config, self.machine.physmem, finder=self.finder
        )
        for name, region in self.code_regions():
            view.add_region(*region, self._plan(name, region, config))
        return view

    def extend_for_module(self, view: KernelView, name: str) -> None:
        """Cover a module loaded after the view was built.

        Its pages are UD2 frames, apart from what the view's profile
        holds for a module of that name.  Any other use of the module's
        code by the view's application will surface through the
        recovery log -- exactly the rootkit-detection property of the
        paper's Section IV-A2.
        """
        introspector = self.machine.introspector
        for module in introspector.read_module_list():
            if module.name != name:
                continue
            region = (module.base, module.base + module.size)
            if view.region_of(module.base) is None:
                view.add_region(*region, self._plan(name, region, view.config))
            return
