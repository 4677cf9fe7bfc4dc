"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one FACE-CHANGE mechanism and measures what the
paper's design argument predicts:

* **whole-function loading** (III-B1): loading raw basic blocks instead
  of whole functions multiplies recovery traps (and risks split-UD2
  fragments at odd range boundaries);
* **deferred switch at resume_userspace** (III-B2): switching inside
  the context switch doubles EPT work for kernel-bound wakeups;
* **same-view skip** (III-B2): without it, every context switch pays an
  EPT reload even between processes sharing a view;
* **instant recovery** (III-B3): covered by the cross-view integration
  test; here we count that enabling it costs nothing when unused.
"""

from __future__ import annotations

from repro.core.facechange import FaceChange
from repro.guest.machine import boot_machine
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform

Sys = Syscall


def top_workload(iters=12):
    def driver():
        tty = yield Sys("open", path="/dev/tty1")
        for _ in range(iters):
            fd = yield Sys("open", path="/proc/stat")
            yield Sys("read", fd=fd, count=2048)
            yield Sys("close", fd=fd)
            yield Sys("write", fd=tty, count=512)
            yield Compute(300_000)
            yield Sys("nanosleep", cycles=100_000)
    return driver


def run_with(config, widen=True, defer=True, skip_same=True, instances=1):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine, widen_views=widen)
    fc.enable()
    fc.switcher.defer_to_resume = defer
    fc.switcher.skip_same_view = skip_same
    fc.load_view(config, comm="top")
    tasks = [machine.spawn("top", top_workload()) for _ in range(instances)]
    assert machine.run_to_exit(tasks, 240_000_000_000)
    return machine, fc


def test_ablation_whole_function_relaxation(benchmark, app_configs):
    """The paper's rationale for loading whole functions (III-B1):

    1. adjacent same-function code is likely needed, so raw blocks mean
       more recovery traps;
    2. raw ranges can start/end at odd addresses, leaving *fragmented*
       UD2 patterns the processor misinterprets.

    Disabling the relaxation demonstrates both: the guest either crashes
    on a fragmented UD2 (the usual outcome) or at minimum recovers far
    more often.
    """
    from repro.hypervisor.kvm import GuestCrash

    config = app_configs["top"]

    def measure():
        _m1, fc_widened = run_with(config, widen=True)
        try:
            _m2, fc_raw = run_with(config, widen=False)
            return fc_widened, fc_raw.recovery.recoveries, False
        except GuestCrash:
            return fc_widened, None, True

    fc_widened, raw_recoveries, crashed = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    print()
    print("Ablation: whole-function loading (III-B1)")
    print(f"  recoveries with relaxation: {fc_widened.recovery.recoveries}")
    if crashed:
        print("  raw basic blocks: GUEST CRASH on a fragmented UD2 "
              "(the hazard the relaxation exists to avoid)")
    else:
        print(f"  recoveries with raw blocks: {raw_recoveries}")
    assert crashed or raw_recoveries > fc_widened.recovery.recoveries


def test_ablation_deferred_switch(benchmark, app_configs):
    config = app_configs["top"]

    def measure():
        _m1, fc_deferred = run_with(config, defer=True)
        _m2, fc_eager = run_with(config, defer=False)
        return fc_deferred, fc_eager

    fc_deferred, fc_eager = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print("Ablation: deferred switch at resume_userspace (III-B2)")
    print(f"  view switches deferred: {fc_deferred.stats.view_switches}"
          f" (resume traps {fc_deferred.stats.resume_traps})")
    print(f"  view switches eager:    {fc_eager.stats.view_switches}")
    # eager switching never uses the resume trap
    assert fc_eager.stats.resume_traps == 0
    assert fc_deferred.stats.resume_traps > 0
    # deferral coalesces switch-in work for kernel-bound schedules, so it
    # never performs more switches than eager switching
    assert fc_deferred.stats.view_switches <= fc_eager.stats.view_switches


def test_ablation_same_view_skip(benchmark, app_configs):
    config = app_configs["top"]

    def measure():
        # two instances of the same application share one view, so
        # top->top context switches can skip the EPT reload entirely
        _m1, fc_skip = run_with(config, skip_same=True, instances=2)
        _m2, fc_noskip = run_with(config, skip_same=False, instances=2)
        return fc_skip, fc_noskip

    fc_skip, fc_noskip = benchmark.pedantic(measure, rounds=1, iterations=1)
    print()
    print("Ablation: same-view switch skip (III-B2)")
    print(f"  EPT switches with skip:    {fc_skip.stats.view_switches} "
          f"(skipped {fc_skip.stats.skipped_switches})")
    print(f"  EPT switches without skip: {fc_noskip.stats.view_switches}")
    assert fc_skip.stats.skipped_switches > 0
    assert (
        fc_noskip.stats.view_switches
        > fc_skip.stats.view_switches
    )


def test_ablation_instant_recovery_is_free_when_unused(benchmark, app_configs):
    """Instant recovery only acts on split-UD2 return targets; a normal
    run (no cross-view stacks) performs zero instant recoveries."""
    config = app_configs["top"]

    def measure():
        return run_with(config)[1]

    fc = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert fc.recovery.instant_recoveries == 0
