"""Property-based tests for kernel view construction.

Invariant (the heart of the strictness + robustness goals): for ANY
profiled range set,

* every profiled byte is present (identical to the original kernel) in
  the built view -- the app's code is never withheld;
* every byte outside the widened functions is UD2 fill -- no extra code
  leaks into the attack surface;
* function widening never extends past the containing function's
  aligned-prologue boundaries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile
from repro.core.view_manager import (
    FUNCTION_ALIGN,
    FunctionBoundaryFinder,
    ViewBuilder,
    gva_to_gpa,
)
from repro.guest.machine import boot_machine
from repro.isa.opcodes import PROLOGUE_SIGNATURE
from repro.memory.layout import KERNEL_BASE, PAGE_SIZE
from repro.memory.physmem import PhysicalMemory

_MACHINE = boot_machine()
_TEXT = (_MACHINE.image.text_start, _MACHINE.image.text_end)
_SPAN = _TEXT[1] - _TEXT[0]

profiled_ranges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=_SPAN - 2),
        st.integers(min_value=1, max_value=800),
    ).map(
        lambda t: (
            _TEXT[0] + t[0],
            min(_TEXT[0] + t[0] + t[1], _TEXT[1]),
        )
    ),
    min_size=0,
    max_size=8,
)


def _read_view(view, addr, length):
    """Read bytes from the view's shadow frames at guest address addr."""
    out = bytearray()
    while length > 0:
        gpfn = gva_to_gpa(addr) >> 12
        hpfn = view.frames[gpfn]
        offset = addr & (PAGE_SIZE - 1)
        chunk = min(PAGE_SIZE - offset, length)
        out.extend(_MACHINE.physmem.read((hpfn << 12) | offset, chunk))
        addr += chunk
        length -= chunk
    return bytes(out)


@given(profiled_ranges)
@settings(max_examples=30, deadline=None)
def test_view_contains_exactly_the_widened_functions(ranges):
    profile = KernelProfile()
    for begin, end in ranges:
        profile.add(BASE_KERNEL, begin, end)
    config = KernelViewConfig(app="prop", profile=profile)
    view = ViewBuilder(_MACHINE).build(0, config)
    try:
        finder = FunctionBoundaryFinder(_MACHINE.physmem)
        # 1. every profiled byte matches the original kernel image
        for begin, end in profile.segments.get(BASE_KERNEL, []):
            got = _read_view(view, begin, end - begin)
            want = _MACHINE.image.read_guest(begin, end - begin)
            assert got == want
        # 2. widened bounds stay within containing-function boundaries
        for begin, end in profile.segments.get(BASE_KERNEL, []):
            f_begin, _ = finder.containing_function(begin, *_TEXT)
            _, f_end = finder.containing_function(end - 1, *_TEXT)
            assert f_begin <= begin
            assert end <= f_end
        # 3. probe bytes far from any profiled range: still UD2 fill
        widened = []
        for begin, end in profile.segments.get(BASE_KERNEL, []):
            f_begin, _ = finder.containing_function(begin, *_TEXT)
            _, f_end = finder.containing_function(end - 1, *_TEXT)
            widened.append((f_begin, f_end))
        probe = _TEXT[0] + _SPAN // 2
        probe &= ~1  # even address
        if not any(b <= probe < e for b, e in widened):
            assert _read_view(view, probe, 2) in (b"\x0f\x0b",)
    finally:
        view.free()


@given(profiled_ranges)
@settings(max_examples=15, deadline=None)
def test_view_size_accounting(ranges):
    profile = KernelProfile()
    for begin, end in ranges:
        profile.add(BASE_KERNEL, begin, end)
    view = ViewBuilder(_MACHINE).build(0, KernelViewConfig("p", profile))
    try:
        assert view.loaded_bytes >= profile.size
        total_pages = len(view.frames)
        assert view.loaded_bytes <= total_pages * PAGE_SIZE
    finally:
        view.free()


# -- prologue scan ----------------------------------------------------------

#: guest-physical page the scanned regions start in
_SCAN_GPA = 0x200000


def _reference_prologues(data, region_start, region_end):
    """The finder's former scan: probe every aligned slot of the region
    for the signature (``data`` starts at ``region_start`` and runs
    ``len(sig) - 1`` bytes past ``region_end``)."""
    sig = PROLOGUE_SIGNATURE
    first = (region_start + FUNCTION_ALIGN - 1) & ~(FUNCTION_ALIGN - 1)
    return [
        addr
        for addr in range(first, region_end, FUNCTION_ALIGN)
        if data[addr - region_start : addr - region_start + len(sig)] == sig
    ]


@st.composite
def planted_regions(draw):
    """Random bytes around a region, with signatures planted at aligned
    addresses, at any address, and straddling ``region_end``."""
    lead = draw(st.integers(0, 2 * FUNCTION_ALIGN - 1))
    size = draw(st.integers(0, 600))
    over = len(PROLOGUE_SIGNATURE) - 1
    length = lead + size + over
    blob = bytearray(draw(st.binary(min_size=length, max_size=length)))
    start = KERNEL_BASE + _SCAN_GPA + lead
    end = start + size
    first = (start + FUNCTION_ALIGN - 1) & ~(FUNCTION_ALIGN - 1)
    aligned = st.integers(0, size // FUNCTION_ALIGN + 1).map(
        lambda k: first + k * FUNCTION_ALIGN
    )
    anywhere = st.integers(start - lead, end + over)
    straddling = st.integers(end - over, end)
    planted = st.lists(st.one_of(aligned, anywhere, straddling), max_size=16)
    for addr in draw(planted):
        for i, byte in enumerate(PROLOGUE_SIGNATURE):
            pos = addr - start + lead + i
            if 0 <= pos < len(blob):
                blob[pos] = byte
    return start, end, bytes(blob)


@given(planted_regions())
@settings(max_examples=200, deadline=None)
def test_prologue_scan_matches_aligned_probe(region):
    start, end, blob = region
    physmem = PhysicalMemory()
    physmem.write(_SCAN_GPA, blob)
    over = len(PROLOGUE_SIGNATURE) - 1
    data = physmem.read(gva_to_gpa(start), end - start + over)
    got = FunctionBoundaryFinder(physmem)._prologue_index(start, end)
    assert got == _reference_prologues(data, start, end)
