"""Kernel view construction tests: UD2 fill, widening, EPT wiring."""

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile
from repro.core.view_manager import FunctionBoundaryFinder, ViewBuilder, gva_to_gpa
from repro.isa.opcodes import UD2_BYTES
from repro.memory.layout import PAGE_SIZE


def build_view(machine, ranges, app="test"):
    profile = KernelProfile()
    for segment, begin, end in ranges:
        profile.add(segment, begin, end)
    config = KernelViewConfig(app=app, profile=profile)
    return ViewBuilder(machine).build(0, config)


class TestBoundaryFinder:
    def test_finds_exact_function(self, machine):
        image = machine.image
        start, end = image.function_range("vfs_read")
        finder = FunctionBoundaryFinder(machine.physmem)
        mid = start + (end - start) // 2
        found = finder.containing_function(mid, image.text_start, image.text_end)
        assert found[0] == start
        # the forward bound is the next function's aligned prologue
        assert found[1] >= end
        assert (found[1] - found[1] % 16) == found[1]

    def test_widening_never_splits_marked_range(self, machine):
        image = machine.image
        start, end = image.function_range("schedule")
        finder = FunctionBoundaryFinder(machine.physmem)
        f0 = finder.containing_function(start + 1, image.text_start, image.text_end)
        f1 = finder.containing_function(end - 2, image.text_start, image.text_end)
        assert f0 == f1  # both blocks inside schedule widen identically

    def test_first_function_uses_region_start(self, machine):
        image = machine.image
        finder = FunctionBoundaryFinder(machine.physmem)
        found = finder.containing_function(
            image.text_start + 1, image.text_start, image.text_end
        )
        assert found[0] == image.text_start


class TestKernelView:
    def test_frames_cover_kernel_and_modules(self, machine):
        view = build_view(machine, [])
        text_pages = (
            (gva_to_gpa(machine.image.text_end) + PAGE_SIZE - 1) // PAGE_SIZE
            - gva_to_gpa(machine.image.text_start) // PAGE_SIZE
        )
        assert len(view.frames) >= text_pages
        assert len(view.regions) == 1 + len(machine.image.modules)

    def test_empty_view_is_all_ud2(self, machine):
        view = build_view(machine, [])
        addr = machine.image.address_of("vfs_read")
        hpfn = view.frames[gva_to_gpa(addr) >> 12]
        data = machine.physmem.read(hpfn << 12, PAGE_SIZE)
        assert data == UD2_BYTES * (PAGE_SIZE // 2)

    def test_profiled_function_is_loaded_whole(self, machine):
        image = machine.image
        start, end = image.function_range("vfs_read")
        # mark only a few bytes in the middle; the whole function loads
        view = build_view(machine, [(BASE_KERNEL, start + 8, start + 12)])
        hpfn = view.frames[gva_to_gpa(start) >> 12]
        offset = start & (PAGE_SIZE - 1)
        got = machine.physmem.read((hpfn << 12) | offset, min(end - start, PAGE_SIZE - offset))
        want = image.read_guest(start, len(got))
        assert got == want

    def test_unprofiled_neighbour_remains_ud2(self, machine):
        image = machine.image
        start, _ = image.function_range("vfs_read")
        wstart, _ = image.function_range("vfs_write")
        view = build_view(machine, [(BASE_KERNEL, start, start + 4)])
        hpfn = view.frames.get(gva_to_gpa(wstart) >> 12)
        if hpfn is not None:
            offset = wstart & (PAGE_SIZE - 1)
            got = machine.physmem.read((hpfn << 12) | offset, 2)
            # vfs_write may be the function immediately after vfs_read, in
            # which case widening stops exactly at its prologue
            assert got in (UD2_BYTES, image.read_guest(wstart, 2))

    def test_module_ranges_are_relative(self, machine):
        module = machine.image.modules["ext4"]
        fn_addr = machine.image.address_of("ext4_file_write")
        rel = fn_addr - module.base
        view = build_view(machine, [("ext4", rel, rel + 4)])
        hpfn = view.frames[gva_to_gpa(fn_addr) >> 12]
        offset = fn_addr & (PAGE_SIZE - 1)
        assert machine.physmem.read((hpfn << 12) | offset, 3) == b"\x55\x89\xe5"

    def test_install_uninstall_ept(self, machine):
        view = build_view(machine, [])
        addr = machine.image.address_of("schedule")
        gpfn = gva_to_gpa(addr) >> 12
        assert machine.ept.translate_frame(gpfn) == gpfn
        view.install(machine.ept)
        assert machine.ept.translate_frame(gpfn) == view.frames[gpfn]
        view.uninstall(machine.ept)
        assert machine.ept.translate_frame(gpfn) == gpfn

    def test_covers(self, machine):
        view = build_view(machine, [])
        assert view.covers(machine.image.address_of("schedule"))
        assert not view.covers(0xC9000000)

    def test_two_ranges_in_one_function_load_it_once(self, machine):
        image = machine.image
        start, end = image.function_range("vfs_read")
        view = build_view(
            machine,
            [(BASE_KERNEL, start + 8, start + 12), (BASE_KERNEL, end - 8, end - 4)],
        )
        finder = FunctionBoundaryFinder(machine.physmem)
        fn_start, fn_end = finder.containing_function(
            start + 8, image.text_start, image.text_end
        )
        assert (fn_start, fn_end) == finder.containing_function(
            end - 5, image.text_start, image.text_end
        )
        assert view.loaded_bytes == fn_end - fn_start

    def test_copy_original_counts_bytes(self, machine):
        view = build_view(machine, [])
        before = view.loaded_bytes
        start, end = machine.image.function_range("memcpy")
        view.copy_original(start, end)
        assert view.loaded_bytes == before + (end - start)

    def test_free_releases_private_frames_only(self, machine):
        image = machine.image
        start, end = image.function_range("vfs_read")
        # a partial-function load forces at least one private CoW frame
        view = build_view(machine, [(BASE_KERNEL, start + 8, start + 12)])
        private = [
            hpfn
            for gpfn, hpfn in view.frames.items()
            if hpfn != gpfn and not machine.physmem.shared.is_shared(hpfn)
        ]
        assert private, "partial load should have materialized a frame"
        count = machine.physmem.allocated_frame_count()
        view.free()
        # exactly the private frames are returned; the shared canonical
        # UD2 frame and adopted originals stay allocated
        assert machine.physmem.allocated_frame_count() == count - len(private)
        assert view.frames == {}

    def test_fresh_view_allocates_one_shared_frame(self, machine):
        count = machine.physmem.allocated_frame_count()
        view = build_view(machine, [])
        canonical = machine.physmem.shared.canonical_ud2_frame(UD2_BYTES)
        # CoW build: every unprofiled page maps to the canonical frame
        assert machine.physmem.allocated_frame_count() <= count + 1
        assert all(hpfn == canonical for hpfn in view.frames.values())
