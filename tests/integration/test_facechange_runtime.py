"""FACE-CHANGE runtime-phase integration: switching, recovery, hot-plug."""

import pytest

from repro.core.facechange import FaceChange
from repro.core.profiler import Profiler
from repro.core.provenance import DEFAULT_BENIGN_RECOVERIES
from repro.core.switching import FULL_KERNEL_VIEW_INDEX
from repro.guest.machine import boot_machine
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform

Sys = Syscall


def top_workload(iters=10):
    def driver():
        tty = yield Sys("open", path="/dev/tty1")
        for _ in range(iters):
            fd = yield Sys("open", path="/proc/stat")
            yield Sys("read", fd=fd, count=2048)
            yield Sys("close", fd=fd)
            yield Sys("write", fd=tty, count=512)
            yield Compute(450_000)
            yield Sys("nanosleep", cycles=100_000)
    return driver


@pytest.fixture(scope="module")
def topview():
    machine = boot_machine(platform=Platform.QEMU)
    prof = Profiler(machine)
    prof.track("top")
    prof.install()
    task = machine.spawn("top", top_workload())
    machine.run(until=lambda: task.finished, max_cycles=40_000_000_000)
    assert task.finished
    return prof.export("top")


def enforce(config, workload, comm="top", max_cycles=80_000_000_000):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(config, comm=comm)
    task = machine.spawn(comm, workload)
    machine.run(until=lambda: task.finished, max_cycles=max_cycles)
    assert task.finished
    return machine, fc


def test_app_runs_correctly_under_its_view(topview):
    """The robustness goal: same workload, same behaviour."""
    machine, fc = enforce(topview, top_workload())
    assert fc.stats.view_switches > 0
    assert fc.stats.context_switch_traps > 0


def test_deferred_switch_via_resume_trap(topview):
    machine, fc = enforce(topview, top_workload())
    # every switch *to* the custom view went through resume_userspace
    assert fc.stats.resume_traps > 0
    assert fc.stats.resume_traps <= fc.stats.context_switch_traps


def test_unknown_process_gets_full_view(topview):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(topview, comm="top")
    assert fc.switcher.selector("random") == FULL_KERNEL_VIEW_INDEX

    def other():
        fd = yield Sys("open", path="/data/z")
        yield Sys("write", fd=fd, count=64)

    task = machine.spawn("random", other)
    machine.run(until=lambda: task.finished, max_cycles=8_000_000_000)
    assert task.finished
    assert fc.recovery.recoveries == 0  # full view never recovers


def test_kvmclock_chain_recovered(topview):
    """Section III-B3: profiled under QEMU, run under KVM."""
    machine, fc = enforce(topview, top_workload())
    recovered = set(fc.log.recovered_functions())
    assert "kvm_clock_get_cycles" in recovered
    assert "kvm_clock_read" in recovered
    assert "pvclock_clocksource_read" in recovered
    # native_read_tsc was already in the view (QEMU used the TSC path)
    assert "native_read_tsc" not in recovered


def test_benign_recoveries_are_interrupt_context(topview):
    machine, fc = enforce(topview, top_workload())
    assert len(fc.log) > 0
    for event in fc.log:
        assert event.in_interrupt
    assert fc.log.anomalous(benign=DEFAULT_BENIGN_RECOVERIES) == []


def test_recovery_backtrace_walks_irq_path(topview):
    machine, fc = enforce(topview, top_workload())
    event = fc.log.events[0]
    symbols = [f.symbol for f in event.backtrace]
    assert any("timer_interrupt" in s for s in symbols)
    assert any("irq_entry" in s for s in symbols)


def test_recovered_code_runs_without_retrap(topview):
    machine, fc = enforce(topview, top_workload(iters=20))
    names = fc.log.recovered_functions()
    # each missing function is recovered exactly once
    assert len(names) == len(set(names))


def test_same_view_switch_skipped(topview):
    machine, fc = enforce(topview, top_workload())
    assert fc.stats.skipped_switches >= 0
    # consecutive full-view processes (idle<->others) skip EPT updates
    machine2 = boot_machine(platform=Platform.KVM)
    fc2 = FaceChange(machine2)
    fc2.enable()
    fc2.load_view(topview, comm="top")

    def plain():
        for _ in range(4):
            yield Sys("nanosleep", cycles=200_000)

    t = machine2.spawn("plain", plain)
    machine2.run(until=lambda: t.finished, max_cycles=8_000_000_000)
    assert fc2.stats.skipped_switches > 0


def test_hot_unload_view(topview):
    """Flexibility goal (III-B4): unload without breaking the app."""
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    index = fc.load_view(topview, comm="top")
    progress = {"n": 0}

    def long_top():
        tty = yield Sys("open", path="/dev/tty1")
        for _ in range(12):
            fd = yield Sys("open", path="/proc/stat")
            yield Sys("read", fd=fd, count=1024)
            yield Sys("close", fd=fd)
            yield Sys("nanosleep", cycles=200_000)
            progress["n"] += 1

    task = machine.spawn("top", long_top)
    machine.run(until=lambda: progress["n"] >= 4, max_cycles=40_000_000_000)
    frames_before = machine.physmem.allocated_frame_count()
    fc.unload_view(index)
    assert machine.physmem.allocated_frame_count() < frames_before
    machine.run(until=lambda: task.finished, max_cycles=80_000_000_000)
    assert task.finished
    assert fc.view_for("top") is None


def test_disable_reenables_full_kernel(topview):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(topview, comm="top")
    task = machine.spawn("top", top_workload(iters=3))
    machine.run(until=lambda: task.finished, max_cycles=40_000_000_000)
    fc.disable()
    assert machine.ept.overridden_gpfns() == []
    assert not fc.enabled

    def after():
        fd = yield Sys("open", path="/proc/stat")
        yield Sys("read", fd=fd, count=512)

    t2 = machine.spawn("top", after)
    machine.run(until=lambda: t2.finished, max_cycles=8_000_000_000)
    assert t2.finished


def test_multiple_views_coexist(app_configs):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    for comm in ("top", "gzip", "bash"):
        fc.load_view(app_configs[comm], comm=comm)
    assert fc.stats.loaded_views == 3

    def tiny(path):
        def driver():
            fd = yield Sys("open", path=path)
            yield Sys("read", fd=fd, count=256)
            yield Sys("close", fd=fd)
        return driver

    tasks = [
        machine.spawn("top", tiny("/proc/stat")),
        machine.spawn("gzip", tiny("/data/a")),
    ]
    machine.run(
        until=lambda: all(t.finished for t in tasks),
        max_cycles=40_000_000_000,
    )
    assert all(t.finished for t in tasks)
