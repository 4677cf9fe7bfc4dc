"""Snapshot/fork: bit-identity with fresh boots and CoW isolation."""

import gc
import time
import weakref

import pytest

from repro.apps.base import launch
from repro.apps.catalog import APP_CATALOG
from repro.core.facechange import FaceChange
from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile
from repro.core.view_manager import (
    FUNCTION_ALIGN,
    FunctionBoundaryFinder,
    ViewBuilder,
    gva_to_gpa,
)
from repro.fleet.jobs import execute_job, profile_app_offline
from repro.fleet.snapshot import MachineSnapshot, SnapshotError
from repro.fleet.spec import FleetJob
from repro.guest.machine import boot_machine
from repro.isa.opcodes import PROLOGUE_SIGNATURE, UD2_BYTES
from repro.kernel.runtime import Platform
from repro.malware import ALL_ATTACKS
from repro.memory.layout import KERNEL_BASE, KERNEL_TEXT_BASE, PAGE_SHIFT, PAGE_SIZE
from repro.serve import WarmPool
from repro.serve.worker import run_worker_job


def _run_top(machine, seed=1234, scale=2):
    handle = launch(machine, "top", APP_CATALOG["top"], scale=scale, seed=seed)
    machine.run(
        until=lambda: handle.finished,
        max_cycles=machine.cycles + 60_000_000_000,
        step_budget=50_000,
    )
    assert handle.finished
    return (machine.cycles, machine.runtime.syscalls_executed)


@pytest.fixture(scope="module")
def snapshot():
    return boot_machine(platform=Platform.KVM).snapshot()


def test_clone_matches_fresh_boot_bit_identically(snapshot):
    clone_score = _run_top(snapshot.fork())
    fresh_score = _run_top(boot_machine(platform=Platform.KVM))
    assert clone_score == fresh_score


def test_sibling_clones_are_independent_and_identical(snapshot):
    a, b = snapshot.fork(), snapshot.fork()
    score_a = _run_top(a)
    # a has run a full workload; b must be unaffected
    score_b = _run_top(b)
    assert score_a == score_b
    assert a.runtime is not b.runtime
    assert a.physmem is not b.physmem


def test_clone_writes_do_not_reach_base_or_later_forks(snapshot):
    marker = b"cow-isolation-marker"
    dirty = snapshot.fork()
    dirty.physmem.write(0x1000, marker)
    assert dirty.physmem.read(0x1000, len(marker)) == marker
    clean = snapshot.fork()
    assert clean.physmem.read(0x1000, len(marker)) != marker


def test_clones_share_base_frames_until_written(snapshot):
    from repro.memory.layout import PAGE_SIZE

    hpfn = min(snapshot._base_frames)  # a frame the boot image populated
    addr = hpfn * PAGE_SIZE
    clone = snapshot.fork()
    # reading alone must not materialize a private copy of a base frame
    before = clone.physmem.read(addr, 64)
    private_before = len(clone.physmem._frames)
    assert hpfn not in clone.physmem._frames
    clone.physmem.write(addr, b"x")
    assert len(clone.physmem._frames) == private_before + 1
    # the CoW copy starts from the base content, not zeros
    assert clone.physmem.read(addr, 64) == b"x" + bytes(before[1:])


def test_clone_supports_facechange_enforcement(snapshot):
    from repro.core.profiler import Profiler

    profiling = boot_machine(platform=Platform.QEMU)
    profiler = Profiler(profiling)
    profiler.track("top")
    profiler.install()
    handle = launch(profiling, "top", APP_CATALOG["top"], scale=2)
    handle.run_to_completion(max_cycles=60_000_000_000)
    config = profiler.export("top")

    clone = snapshot.fork()
    fc = FaceChange(clone)
    fc.enable()
    fc.load_view(config, comm="top")
    score = _run_top(clone)
    assert score[1] > 0
    assert fc.stats.view_switches > 0 or fc.stats.context_switch_traps > 0


def test_capture_refuses_machine_with_user_tasks():
    machine = boot_machine(platform=Platform.KVM)
    launch(machine, "top", APP_CATALOG["top"], scale=1)
    with pytest.raises(SnapshotError, match="user tasks"):
        MachineSnapshot.capture(machine)


def test_capture_refuses_machine_with_facechange_attached():
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    with pytest.raises(SnapshotError):
        MachineSnapshot.capture(machine)


def test_capture_refuses_unbooted_machine():
    from repro.guest.machine import Machine

    with pytest.raises(SnapshotError, match="booted"):
        MachineSnapshot.capture(Machine())


def test_source_machine_stays_usable_after_capture():
    machine = boot_machine(platform=Platform.KVM)
    snap = machine.snapshot()
    source_score = _run_top(machine)
    clone_score = _run_top(snap.fork())
    assert source_score == clone_score


# -- what forks share and what they copy -------------------------------------


def test_forks_share_kernel_symbol_objects(snapshot):
    a, b = snapshot.fork(), snapshot.fork()
    assert a.image.symbols is not b.image.symbols
    assert a.image.symbols.keys() == b.image.symbols.keys()
    for name, symbol in a.image.symbols.items():
        assert b.image.symbols[name] is symbol
    for x, y in zip(a.image._sorted_symbols, b.image._sorted_symbols):
        assert x is y


def _view_pages(machine, view):
    return {
        gpfn: machine.physmem.read(hpfn << PAGE_SHIFT, PAGE_SIZE)
        for gpfn, hpfn in view.frames.items()
    }


def test_forks_inherit_the_prologue_index(monkeypatch, snapshot):
    """Capture scans the kernel code for function prologues once: a
    fork's first view build scans nothing and yields the view a fresh
    boot builds, and a fork whose kernel text is patched scans again."""
    scans = []
    real = FunctionBoundaryFinder._scan

    def counting(self, start, end):
        scans.append((start, end))
        return real(self, start, end)

    monkeypatch.setattr(FunctionBoundaryFinder, "_scan", counting)
    fresh = boot_machine(platform=Platform.KVM)
    image = fresh.image
    profile = KernelProfile()
    for name in ("vfs_read", "schedule"):
        start, end = image.function_range(name)
        profile.add(BASE_KERNEL, start + 1, end - 2)  # widened back
    symbol = next(s for s in image._sorted_symbols if s.module)
    base = image.modules[symbol.module].base
    start, end = image.function_range(symbol.name)
    profile.add(symbol.module, start - base + 1, end - base - 2)
    config = KernelViewConfig(app="t", profile=profile)
    expected = _view_pages(fresh, ViewBuilder(fresh).build(0, config))
    assert (image.text_start, image.text_end) in scans
    del scans[:]
    clone = snapshot.fork()
    assert _view_pages(clone, ViewBuilder(clone).build(0, config)) == expected
    assert scans == []
    patched = snapshot.fork()
    text = gva_to_gpa(image.text_start)
    patched.physmem.write(text, patched.physmem.read(text, 1))
    assert _view_pages(patched, ViewBuilder(patched).build(0, config)) == expected
    assert (image.text_start, image.text_end) in scans
    del scans[:]
    ViewBuilder(snapshot.fork()).build(0, config)
    assert scans == []


def _view_state(machine, view):
    """What a view build leaves behind: the view's frames, private
    pages, page bytes and byte count, and its machine's frame allocator
    and shared-frame refcounts."""
    physmem = machine.physmem
    return (
        dict(view.frames),
        set(view._private),
        _view_pages(machine, view),
        view.loaded_bytes,
        physmem._next_hypervisor_frame,
        dict(physmem.shared.refs),
    )


def test_forks_of_a_snapshot_reuse_its_view_plans(monkeypatch, snapshot):
    """A profile is widened and laid out once per snapshot: a second
    fork builds the first fork's view from its plan, without a single
    function-boundary lookup."""
    lookups = []
    real = FunctionBoundaryFinder.containing_function

    def counting(self, addr, region_start, region_end):
        lookups.append(addr)
        return real(self, addr, region_start, region_end)

    monkeypatch.setattr(FunctionBoundaryFinder, "containing_function", counting)
    first = snapshot.fork()
    image = first.image
    profile = KernelProfile()
    start, end = image.function_range("vfs_write")
    profile.add(BASE_KERNEL, start + 2, start + 6)
    profile.add(BASE_KERNEL, end - 6, end - 2)  # the same function again
    symbol = next(s for s in image._sorted_symbols if s.module)
    base = image.modules[symbol.module].base
    profile.add(symbol.module, symbol.address - base + 2, symbol.address - base + 6)
    config = KernelViewConfig(app="plans", profile=profile)
    state = _view_state(first, ViewBuilder(first).build(0, config))
    assert lookups
    del lookups[:]
    second = snapshot.fork()
    assert _view_state(second, ViewBuilder(second).build(0, config)) == state
    assert lookups == []


def _view_bytes(pages, addr, length):
    offset = addr & (PAGE_SIZE - 1)
    return pages[gva_to_gpa(addr) >> PAGE_SHIFT][offset : offset + length]


def test_a_fork_whose_kernel_text_was_written_plans_afresh(snapshot):
    """A write to a fork's kernel text drops the fork's prologue index
    entry, plans and all: its view holds the written bytes and the
    widening they imply, while the snapshot's other forks keep theirs."""
    reference = snapshot.fork()
    image = reference.image
    text = (image.text_start, image.text_end)
    start, end = image.function_range("vfs_read")
    planted = (start + (end - start) // 2) & ~(FUNCTION_ALIGN - 1)
    assert start < planted and planted + 16 < end
    profile = KernelProfile()
    profile.add(BASE_KERNEL, planted + 4, planted + 8)
    config = KernelViewConfig(app="planted", profile=profile)
    fn_start, fn_end = reference.boundary_finder.containing_function(
        planted + 4, *text
    )
    assert fn_start == start
    assert ViewBuilder(reference).build(0, config).loaded_bytes == fn_end - start

    patched = snapshot.fork()
    epoch = patched.physmem.code_epoch
    patched.physmem.write(gva_to_gpa(planted), PROLOGUE_SIGNATURE)
    assert patched.physmem.code_epoch > epoch
    view = ViewBuilder(patched).build(0, config)
    assert view.loaded_bytes == fn_end - planted
    pages = _view_pages(patched, view)
    assert _view_bytes(pages, planted, 3) == PROLOGUE_SIGNATURE
    assert _view_bytes(pages, start, 2) == UD2_BYTES

    sibling = snapshot.fork()
    assert ViewBuilder(sibling).build(0, config).loaded_bytes == fn_end - start


def test_module_hot_loaded_in_one_clone_stays_in_that_clone(snapshot):
    kbeast = next(a for a in ALL_ATTACKS if a.name == "KBeast")
    infected, sibling = snapshot.fork(), snapshot.fork()
    handle = kbeast.launch(infected, scale=1)
    infected.run(
        until=lambda: handle.finished,
        max_cycles=infected.cycles + 10_000_000_000,
        step_budget=50_000,
    )
    assert handle.finished
    assert "kbeast_sys_read" in infected.image.symbols
    assert any(s.module == "kbeast" for s in infected.image._sorted_symbols)
    for clone in (sibling, snapshot.fork()):
        assert "kbeast_sys_read" not in clone.image.symbols
        assert "kbeast" not in clone.image.modules
        assert not any(s.module == "kbeast" for s in clone.image._sorted_symbols)


def test_kernel_page_table_edits_stay_in_their_clone(snapshot):
    gva = KERNEL_TEXT_BASE
    original = snapshot.fork().kernel_page_table.translate_page(gva)
    assert original is not None
    dirty, sibling = snapshot.fork(), snapshot.fork()
    dirty.kernel_page_table.map_page(gva, 0x00123000)
    assert dirty.kernel_page_table.translate_page(gva) == 0x123
    assert sibling.kernel_page_table.translate_page(gva) == original
    assert snapshot.fork().kernel_page_table.translate_page(gva) == original


def test_process_page_table_aliases_its_own_clones_kernel_tables(snapshot):
    clone = snapshot.fork()
    task = launch(clone, "top", APP_CATALOG["top"], scale=1).task
    kernel_dir = clone.kernel_page_table._directory
    template_dir = snapshot._template.kernel_page_table._directory
    first_kernel_index = (KERNEL_BASE >> PAGE_SHIFT) >> 10
    shared = [i for i in kernel_dir if i >= first_kernel_index]
    assert shared
    for index in shared:
        table = task.page_table._directory[index]
        assert table is kernel_dir[index]
        assert table is not template_dir[index]


# -- a finished clone dies by reference counting -----------------------------


def _machine_refs(machine):
    """Weak references to a machine and the parts a cycle would pin."""
    parts = [
        machine,
        machine.hypervisor,
        machine.runtime,
        machine.physmem,
        *machine.vcpus,
    ]
    return [weakref.ref(part) for part in parts]


def _alive(refs):
    return [type(ref()).__name__ for ref in refs if ref() is not None]


@pytest.fixture(scope="module")
def records():
    return {app: profile_app_offline(app, scale=1) for app in ("top", "bash")}


@pytest.mark.parametrize(
    "app,attack", [("top", None), ("bash", "KBeast"), ("top", "Injectso")]
)
def test_closed_clone_is_freed_without_the_collector(
    snapshot, records, app, attack
):
    refs = []

    def progress(machine, fc):
        if not refs:
            refs.extend(_machine_refs(machine))
            refs.append(weakref.ref(fc))

    gc.collect()
    gc.disable()
    try:
        clone = snapshot.fork()
        job = FleetJob(app=app, attack=attack, scale=1)
        result = execute_job(clone, job, records[app], progress=progress)
        assert result.ok
        clone.close()
        del clone
        assert len(refs) == 6
        assert _alive(refs) == []
    finally:
        gc.enable()


def test_offline_profile_frees_both_machines(monkeypatch):
    import repro.fleet.jobs as jobs_mod

    refs = []
    boot = jobs_mod.boot_machine

    def tracking_boot(*args, **kwargs):
        machine = boot(*args, **kwargs)
        refs.extend(_machine_refs(machine))
        return machine

    monkeypatch.setattr(jobs_mod, "boot_machine", tracking_boot)
    gc.collect()
    gc.disable()
    try:
        record = profile_app_offline("gzip", scale=1)
        assert record.baseline
        # the profiling machine and the clean-run machine, 5 parts each
        assert len(refs) == 10
        assert _alive(refs) == []
    finally:
        gc.enable()


class _Channel:
    """Stands in for a worker's connection: keeps what the job sends."""

    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    def poll(self, timeout=0.0):
        return False


def test_daemon_job_clone_is_freed_without_the_collector(
    snapshot, records, monkeypatch
):
    """A serve worker's job path, run in-process."""
    import repro.fleet.jobs as jobs_mod

    pool = WarmPool(warm_target=1)
    pool.add_snapshot(snapshot)
    pool.refill()
    refs = []
    acquire = pool.acquire

    def tracking_acquire(config):
        clone = acquire(config)
        refs.extend(_machine_refs(clone))
        return clone

    def tracking_facechange(machine):
        fc = FaceChange(machine)
        refs.append(weakref.ref(fc))
        return fc

    monkeypatch.setattr(pool, "acquire", tracking_acquire)
    monkeypatch.setattr(jobs_mod, "FaceChange", tracking_facechange)
    job = FleetJob(app="top", scale=1, name="top#0")
    request = {
        "job": job,
        "record": records["top"],
        "budget": None,
        "meta": {"trace": "feedface", "job": "job-0001", "name": job.name},
    }
    channel = _Channel()
    gc.collect()
    gc.disable()
    try:
        run_worker_job(channel, pool, request)
        kinds = [message["type"] for message in channel.sent]
        assert kinds[-2:] == ["result", "pool"]
        assert channel.sent[-2]["result"].ok
        assert len(refs) == 6
        assert _alive(refs) == []
    finally:
        gc.enable()


def test_worker_job_timeout_counts_from_the_acquired_clone(
    snapshot, records, monkeypatch
):
    """A slow acquisition (a variant's first boot in a worker process)
    does not count against the job's wall-clock timeout."""
    pool = WarmPool(warm_target=0)
    pool.add_snapshot(snapshot)
    acquire = pool.acquire

    def slow_acquire(config):
        time.sleep(0.6)
        return acquire(config)

    monkeypatch.setattr(pool, "acquire", slow_acquire)
    job = FleetJob(app="top", scale=1, name="top#0", timeout=0.5)
    request = {
        "job": job,
        "record": records["top"],
        "budget": None,
        "meta": {"trace": "feedface", "job": "job-0001", "name": job.name},
    }
    channel = _Channel()
    run_worker_job(channel, pool, request)
    outcome = channel.sent[-2]
    assert outcome["type"] == "result", outcome
    assert outcome["result"].ok
