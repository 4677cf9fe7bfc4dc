"""Guest page tables: two-level GVA -> GPA translation.

Each process owns a :class:`GuestPageTable` (its ``cr3``).  Kernel
mappings (everything above ``KERNEL_BASE``) are shared between all
processes by sharing second-level table objects, exactly like a real
kernel shares its page-directory upper entries.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.memory.layout import KERNEL_BASE, PAGE_SHIFT

#: 10-bit directory index / 10-bit table index, like i386 non-PAE paging.
_TABLE_BITS = 10
_TABLE_SIZE = 1 << _TABLE_BITS
_TABLE_MASK = _TABLE_SIZE - 1


class PageFault(Exception):
    """Guest-level translation failure."""

    def __init__(self, gva: int):
        super().__init__(f"page fault at gva {gva:#010x}")
        self.gva = gva


class _PageTableLevel2:
    """A second-level table mapping 10 bits of vfn to gpfn."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[int, int] = {}

    def __deepcopy__(self, memo: dict) -> "_PageTableLevel2":
        # int -> int: a flat copy is a deep one, without per-item dispatch
        table = _PageTableLevel2()
        table.entries = self.entries.copy()
        return table


class GuestPageTable:
    """A two-level guest page table.

    The generation counter increments whenever a mapping changes so the
    software MMU can invalidate cached translations.
    """

    def __init__(self) -> None:
        self._directory: Dict[int, _PageTableLevel2] = {}
        self.generation = 0

    # -- mapping management --------------------------------------------------

    def map_page(self, gva: int, gpa: int) -> None:
        """Map the page containing ``gva`` to the frame containing ``gpa``."""
        vfn = gva >> PAGE_SHIFT
        table = self._directory.get(vfn >> _TABLE_BITS)
        if table is None:
            table = _PageTableLevel2()
            self._directory[vfn >> _TABLE_BITS] = table
        table.entries[vfn & _TABLE_MASK] = gpa >> PAGE_SHIFT
        self.generation += 1

    def unmap_page(self, gva: int) -> None:
        vfn = gva >> PAGE_SHIFT
        table = self._directory.get(vfn >> _TABLE_BITS)
        if table is not None:
            table.entries.pop(vfn & _TABLE_MASK, None)
            self.generation += 1

    def share_kernel_mappings(self, other: "GuestPageTable") -> None:
        """Share this table's kernel-half level-2 tables into ``other``.

        Mimics how every process page directory points at the same kernel
        page tables.
        """
        kernel_dir_start = (KERNEL_BASE >> PAGE_SHIFT) >> _TABLE_BITS
        for index, table in self._directory.items():
            if index >= kernel_dir_start:
                other._directory[index] = table
        other.generation += 1

    # -- translation ---------------------------------------------------------

    def translate(self, gva: int) -> int:
        """Translate ``gva`` to a guest-physical address or raise PageFault."""
        vfn = (gva & 0xFFFFFFFF) >> PAGE_SHIFT
        table = self._directory.get(vfn >> _TABLE_BITS)
        if table is None:
            raise PageFault(gva)
        gpfn = table.entries.get(vfn & _TABLE_MASK)
        if gpfn is None:
            raise PageFault(gva)
        return (gpfn << PAGE_SHIFT) | (gva & ((1 << PAGE_SHIFT) - 1))

    def translate_page(self, gva: int) -> Optional[int]:
        """Return gpfn for the page containing ``gva`` or None."""
        vfn = (gva & 0xFFFFFFFF) >> PAGE_SHIFT
        table = self._directory.get(vfn >> _TABLE_BITS)
        if table is None:
            return None
        return table.entries.get(vfn & _TABLE_MASK)
