"""Guest page table and EPT unit tests."""

import pytest

from repro.memory.ept import EptViolation, ExtendedPageTable
from repro.memory.layout import KERNEL_BASE, PAGE_SIZE
from repro.memory.paging import GuestPageTable, PageFault


class TestGuestPageTable:
    def test_map_translate(self):
        pt = GuestPageTable()
        pt.map_page(0x08048000, 0x00090000)
        assert pt.translate(0x08048123) == 0x00090123

    def test_unmapped_faults(self):
        pt = GuestPageTable()
        with pytest.raises(PageFault):
            pt.translate(0xDEADBEEF)

    def test_unmap(self):
        pt = GuestPageTable()
        pt.map_page(0x1000, 0x2000)
        pt.unmap_page(0x1000)
        with pytest.raises(PageFault):
            pt.translate(0x1000)

    def test_generation_bumps_on_map(self):
        pt = GuestPageTable()
        g0 = pt.generation
        pt.map_page(0x1000, 0x2000)
        assert pt.generation > g0

    def test_kernel_mappings_shared_by_reference(self):
        kernel = GuestPageTable()
        kernel.map_page(KERNEL_BASE + 0x100000, 0x100000)
        proc = GuestPageTable()
        kernel.share_kernel_mappings(proc)
        assert proc.translate(KERNEL_BASE + 0x100010) == 0x100010
        # later kernel-half maps through the original table propagate
        kernel.map_page(KERNEL_BASE + 0x101000, 0x101000)
        assert proc.translate(KERNEL_BASE + 0x101000) == 0x101000

    def test_user_mappings_not_shared(self):
        kernel = GuestPageTable()
        kernel.map_page(0x08048000, 0x00090000)
        proc = GuestPageTable()
        kernel.share_kernel_mappings(proc)
        with pytest.raises(PageFault):
            proc.translate(0x08048000)

    def test_translate_page_returns_none_when_missing(self):
        pt = GuestPageTable()
        assert pt.translate_page(0x1000) is None


class TestEpt:
    def test_identity_default(self):
        ept = ExtendedPageTable()
        assert ept.translate(0x1234) == 0x1234
        assert ept.translate_frame(7) == 7

    def test_override_and_revert(self):
        ept = ExtendedPageTable()
        ept.map_frame(10, 999)
        assert ept.translate_frame(10) == 999
        ept.unmap_frame(10)
        assert ept.translate_frame(10) == 10

    def test_identity_limit(self):
        ept = ExtendedPageTable(identity_limit_gpfn=100)
        with pytest.raises(EptViolation):
            ept.translate_frame(100)

    def test_batch_map_single_generation_bump(self):
        ept = ExtendedPageTable()
        g0 = ept.generation
        ept.map_frames([(1, 101), (2, 102), (3, 103)])
        assert ept.generation == g0 + 1
        assert ept.translate_frame(2) == 102

    def test_batch_unmap(self):
        ept = ExtendedPageTable()
        ept.map_frames([(1, 101), (2, 102)])
        ept.unmap_frames([1, 2])
        assert ept.translate_frame(1) == 1
        assert ept.overridden_gpfns() == []

    def test_batch_bumps_each_touched_table_once(self):
        """One epoch bump per changed level-2 table and batch: a cached
        translation in a touched table goes stale, one in an untouched
        table stays valid, and no-op remaps bump nothing."""
        ept = ExtendedPageTable()
        low, high, other = ept.epoch_cell(1), ept.epoch_cell(1024), ept.epoch_cell(5000)
        seen = (low[0], high[0], other[0])
        ept.map_frames([(1, 101), (2, 102), (3, 103), (1024, 7), (1025, 8)])
        assert (low[0], high[0], other[0]) == (seen[0] + 1, seen[1] + 1, seen[2])
        ept.map_frames([(1, 101), (1024, 7)])  # no-op remaps
        assert (low[0], high[0]) == (seen[0] + 1, seen[1] + 1)
        ept.unmap_frames([1, 2, 3, 9])  # 9 was never overridden
        assert (low[0], high[0], other[0]) == (seen[0] + 2, seen[1] + 1, seen[2])
        ept.unmap_frames([1, 2])  # nothing left to remove
        assert low[0] == seen[0] + 2
        assert ept.overridden_gpfns() == [1024, 1025]

    def test_overridden_gpfns_sorted(self):
        ept = ExtendedPageTable()
        ept.map_frames([(9, 1), (3, 2), (5000, 3)])
        assert ept.overridden_gpfns() == [3, 9, 5000]

    def test_translate_full_address(self):
        ept = ExtendedPageTable()
        ept.map_frame(4, 44)
        assert ept.translate(4 * PAGE_SIZE + 0x2A) == 44 * PAGE_SIZE + 0x2A
