"""Property-based tests for kernel view construction.

Invariant (the heart of the strictness + robustness goals): for ANY
profiled range set,

* every profiled byte is present (identical to the original kernel) in
  the built view -- the app's code is never withheld;
* every byte outside the widened functions is UD2 fill -- no extra code
  leaks into the attack surface;
* function widening never extends past the containing function's
  aligned-prologue boundaries;
* the planned build (one write per partly covered page) gives every
  covered page the bytes the per-range build gives, and backs each page
  with the frame its merged spans call for.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile, RangeList
from repro.core.view_manager import (
    FUNCTION_ALIGN,
    FunctionBoundaryFinder,
    KernelView,
    ViewBuilder,
    gva_to_gpa,
)
from repro.guest.machine import boot_machine
from repro.isa.opcodes import PROLOGUE_SIGNATURE, UD2_BYTES
from repro.memory.layout import KERNEL_BASE, PAGE_SIZE
from repro.memory.physmem import PhysicalMemory

_MACHINE = boot_machine()
_TEXT = (_MACHINE.image.text_start, _MACHINE.image.text_end)
_SPAN = _TEXT[1] - _TEXT[0]
#: segment -> (start, end) of every code region a view covers
_REGIONS = dict(ViewBuilder(_MACHINE).code_regions())
#: segment -> the functions laid out in its region
_FUNCTIONS = {
    name: [
        symbol
        for symbol in _MACHINE.image._sorted_symbols
        if (symbol.module or BASE_KERNEL) == name and symbol.size >= 2
    ]
    for name in _REGIONS
}

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
        # each loaded byte counts once, however many ranges share its
        # function
        finder = FunctionBoundaryFinder(_MACHINE.physmem)
        widened = RangeList()
        for begin, end in profile.segments.get(BASE_KERNEL, []):
            f_begin, _ = finder.containing_function(begin, *_TEXT)
            _, f_end = finder.containing_function(end - 1, *_TEXT)
            widened.add(f_begin, f_end)
        assert view.loaded_bytes == widened.size
    finally:
        view.free()


# -- planned build vs the per-range build ----------------------------------


def _reach(name):
    """The guest addresses a segment's ranges may reach: up to two pages
    beyond its region, but not into the pages of another region, where
    the per-range build's result depends on the order regions are
    added."""
    start, end = _REGIONS[name]
    others = [region for other, region in _REGIONS.items() if other != name]
    low = max(
        [start - 2 * PAGE_SIZE]
        + [(e + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1) for _, e in others if e <= start]
    )
    high = min(
        [end + 2 * PAGE_SIZE]
        + [b & ~(PAGE_SIZE - 1) for b, _ in others if b >= end]
    )
    return low, high


@st.composite
def segment_profiles(draw):
    """A profile of one segment (module segments module-relative):
    random ranges, several ranges in one function, and ranges at the
    region's edges, some running past them (never into the pages of
    another region)."""
    name = draw(st.sampled_from(sorted(_REGIONS)))
    start, end = _REGIONS[name]
    low, high = _reach(name)
    base = 0 if name == BASE_KERNEL else start
    profile = KernelProfile()
    kinds = st.sampled_from(["anywhere", "one-function", "start-edge", "end-edge"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "one-function":
            fn = draw(st.sampled_from(_FUNCTIONS[name]))
            fn_end = fn.address + fn.size
            ranges = []
            for _ in range(draw(st.integers(2, 4))):
                begin = draw(st.integers(fn.address, fn_end - 1))
                ranges.append((begin, draw(st.integers(begin + 1, fn_end))))
        elif kind == "start-edge":
            begin = draw(st.integers(max(start - 64, low), start + 64))
            ranges = [(begin, begin + draw(st.integers(1, 2 * PAGE_SIZE)))]
        elif kind == "end-edge":
            begin = draw(st.integers(max(end - 2 * PAGE_SIZE, start), end - 1))
            ranges = [(begin, begin + draw(st.integers(1, 2 * PAGE_SIZE)))]
        else:
            begin = draw(st.integers(start, end - 1))
            ranges = [(begin, begin + draw(st.integers(1, 800)))]
        for begin, stop in ranges:
            profile.add(name, begin - base, min(stop, high) - base)
    return profile


def _per_range_build(config, widen):
    """The per-range build, the oracle: cover each region with the
    canonical frame, then widen each profiled range through
    ``containing_function`` and ``copy_original`` it on its own.
    Returns the view and the union of its widened ranges."""
    finder = FunctionBoundaryFinder(_MACHINE.physmem)
    view = KernelView(0, config, _MACHINE.physmem, finder)
    widened = RangeList()
    for name, region in ViewBuilder(_MACHINE).code_regions():
        view.add_region(*region)
        ranges = config.profile.segments.get(name)
        if ranges is None:
            continue
        base = 0 if name == BASE_KERNEL else region[0]
        for begin, end in ranges:
            begin, end = base + begin, base + end
            if widen:
                fn_start, _ = finder.containing_function(begin, *region)
                _, end = finder.containing_function(max(begin, end - 1), *region)
                begin = fn_start
            view.copy_original(begin, end)
            widened.add(begin, end)
    return view, widened


def _page_bytes(hpfn):
    return _MACHINE.physmem.read(hpfn << 12, PAGE_SIZE)


@given(segment_profiles(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_planned_build_equals_the_per_range_build(profile, widen):
    config = KernelViewConfig("plan", profile)
    planned = ViewBuilder(_MACHINE, widen=widen).build(0, config)
    oracle, widened = _per_range_build(config, widen)
    store = _MACHINE.physmem.shared
    canonical = store.canonical_ud2_frame(UD2_BYTES)
    try:
        assert planned.frames.keys() == oracle.frames.keys()
        loaded = 0
        for gpfn, hpfn in planned.frames.items():
            assert _page_bytes(hpfn) == _page_bytes(oracle.frames[gpfn])
            page = KERNEL_BASE + (gpfn << 12)
            covered = widened.intersect(RangeList([(page, page + PAGE_SIZE)])).size
            loaded += covered
            if covered == PAGE_SIZE:
                assert hpfn == gpfn
            elif covered:
                assert gpfn in planned._private
                assert hpfn >= _MACHINE.physmem.guest_frames
                assert not store.is_shared(hpfn)
            else:
                assert hpfn == canonical
        assert planned.loaded_bytes == loaded
    finally:
        planned.free()
        oracle.free()


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
