"""Software MMU: combined GVA -> GPA -> HPA translation with caching.

The cache maps a guest virtual frame number to the backing host frame
plus the *epoch cell* of the EPT level-2 table covering its guest frame.
A guest page-table change still flushes the whole cache (the guest
remapped its own address space), but EPT mutations -- FACE-CHANGE
flipping kernel-code entries on a view switch -- invalidate only the
entries whose level-2 table was touched: cached user and stack
translations survive the switch, the software analogue of how real EPT
switching needs no TLB flush for untouched ranges.

Hit/miss/eviction counts are standalone until the owning vCPU is
attached to the machine's telemetry registry, which rebinds them to the
shared ``mmu.tlb.*`` counters.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.memory.ept import EptViolation, ExtendedPageTable
from repro.memory.layout import PAGE_SHIFT, PAGE_SIZE
from repro.memory.paging import GuestPageTable, PageFault
from repro.memory.physmem import PhysicalMemory
from repro.telemetry import Counter, Telemetry

#: A cached translation: (hpfn, frame bytes, epoch cell, epoch snapshot,
#: gpfn).  The entry is valid while ``cell[0] == epoch`` and the guest
#: page table generation is unchanged.
_Entry = Tuple[int, bytearray, List[int], int, int]


class TranslationError(Exception):
    """A guest access that neither the guest PT nor the EPT can satisfy."""

    def __init__(self, gva: int, cause: Exception):
        super().__init__(f"cannot translate gva {gva:#010x}: {cause}")
        self.gva = gva
        self.cause = cause


class Mmu:
    """Per-VCPU software MMU.

    ``cr3`` selects the active guest page table; the EPT is fixed per
    VCPU (the hypervisor swaps its *contents*, not the object).
    """

    def __init__(self, physmem: PhysicalMemory, ept: ExtendedPageTable) -> None:
        self.physmem = physmem
        self.ept = ept
        self.cr3: Optional[GuestPageTable] = None
        self._cache: Dict[int, _Entry] = {}
        self._cache_pt_gen = -1
        self._shared_refs = physmem.shared.refs
        self._tlb_hits = Counter("mmu.tlb.hits")
        self._tlb_misses = Counter("mmu.tlb.misses")
        self._tlb_evictions = Counter("mmu.tlb.evictions")

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Rebind the TLB counters to the machine-wide registry."""
        for attr in ("_tlb_hits", "_tlb_misses", "_tlb_evictions"):
            standalone = getattr(self, attr)
            registered = telemetry.counter(standalone.name)
            if registered is not standalone:
                registered.value += standalone.value
                setattr(self, attr, registered)

    def invalidate_cache(self) -> None:
        """Drop every cached translation (host-side administrative flush).

        Used by snapshot capture/fork: cached entries hold references to
        physical frame bytearrays, which must not leak across a CoW
        re-basing.  Unlike organic evictions this is not counted -- it
        reflects no guest behaviour.
        """
        self._cache.clear()

    def set_cr3(self, page_table: GuestPageTable) -> None:
        """Switch address space (guest context switch)."""
        if page_table is not self.cr3:
            self.cr3 = page_table
            self._tlb_evictions.value += len(self._cache)
            self._cache.clear()
            self._cache_pt_gen = page_table.generation

    def resolve_entry(self, gva: int) -> _Entry:
        """The cached translation entry for the page containing ``gva``."""
        cr3 = self.cr3
        if cr3 is None:
            raise TranslationError(0, PageFault(0))
        if self._cache_pt_gen != cr3.generation:
            self._tlb_evictions.value += len(self._cache)
            self._cache.clear()
            self._cache_pt_gen = cr3.generation
        vfn = (gva & 0xFFFFFFFF) >> PAGE_SHIFT
        entry = self._cache.get(vfn)
        if entry is not None:
            if entry[2][0] == entry[3]:
                self._tlb_hits.value += 1
                return entry
            self._tlb_evictions.value += 1
        self._tlb_misses.value += 1
        try:
            gpa = cr3.translate(vfn << PAGE_SHIFT)
            gpfn = gpa >> PAGE_SHIFT
            hpfn = self.ept.translate_frame(gpfn)
        except (PageFault, EptViolation) as exc:
            raise TranslationError(gva, exc) from exc
        cell = self.ept.epoch_cell(gpfn)
        entry = (hpfn, self.physmem.frame(hpfn), cell, cell[0], gpfn)
        self._cache[vfn] = entry
        return entry

    def translate(self, gva: int) -> int:
        """Full GVA -> HPA translation of a single address."""
        entry = self.resolve_entry(gva)
        return (entry[0] << PAGE_SHIFT) | (gva & (PAGE_SIZE - 1))

    # -- guest-virtual byte access -------------------------------------------

    def read(self, gva: int, length: int) -> bytes:
        offset = gva & (PAGE_SIZE - 1)
        if offset + length <= PAGE_SIZE:
            # fast path: the read stays within one page
            frame = self.resolve_entry(gva)[1]
            return bytes(frame[offset : offset + length])
        out = bytearray()
        addr = gva
        remaining = length
        while remaining > 0:
            frame = self.resolve_entry(addr)[1]
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - offset, remaining)
            out.extend(frame[offset : offset + chunk])
            addr = (addr + chunk) & 0xFFFFFFFF
            remaining -= chunk
        return bytes(out)

    def write(self, gva: int, data: bytes) -> None:
        addr = gva
        pos = 0
        remaining = len(data)
        shared_refs = self._shared_refs
        while remaining > 0:
            entry = self.resolve_entry(addr)
            hpfn = entry[0]
            if shared_refs and hpfn in shared_refs:
                # CoW barrier: the page is a shared view frame (or an
                # original frame views still share) -- break the sharing
                # before the bytes change.
                redirect = self.physmem.shared.break_on_write(
                    entry[4], hpfn, self.ept
                )
                if redirect is not None:
                    entry = self.resolve_entry(addr)
                    hpfn = entry[0]
            frame = entry[1]
            offset = addr & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - offset, remaining)
            frame[offset : offset + chunk] = data[pos : pos + chunk]
            # Keep frame versions honest for the decoded-block cache.
            self.physmem.bump_version(hpfn)
            addr = (addr + chunk) & 0xFFFFFFFF
            pos += chunk
            remaining -= chunk

    def read_u32(self, gva: int) -> int:
        offset = gva & (PAGE_SIZE - 1)
        if offset <= PAGE_SIZE - 4:
            # fast path: direct indexing, like Vcpu.pop
            frame = self.resolve_entry(gva)[1]
            return (
                frame[offset]
                | (frame[offset + 1] << 8)
                | (frame[offset + 2] << 16)
                | (frame[offset + 3] << 24)
            )
        return struct.unpack("<I", self.read(gva, 4))[0]

    def write_u32(self, gva: int, value: int) -> None:
        self.write(gva, struct.pack("<I", value & 0xFFFFFFFF))
