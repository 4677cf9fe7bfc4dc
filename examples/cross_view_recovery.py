#!/usr/bin/env python3
"""The cross-view recovery bug and its fix (paper Figure 3).

A process blocks deep inside ``sys_poll -> do_sys_poll -> do_poll``
under a full kernel view; a customized view lacking those functions is
then hot-plugged for it.  When the process resumes, its stack still
references the missing code:

* returns to even addresses land on ``0f 0b`` (UD2) -> trap -> lazy
  recovery;
* returns to odd addresses would land on ``0b 0f`` -- which the CPU
  silently misdecodes as ``or`` instructions -- so the first recovery's
  backtrace *instantly* recovers those callers.

The demo runs the scenario twice: with instant recovery (clean), and
with it disabled (silent corruption, the bug the paper fixed).

Run:  python examples/cross_view_recovery.py
"""

from repro import boot_machine
from repro.core import FaceChange
from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile
from repro.kernel.objects import Compute, Syscall, TaskState
from repro.kernel.runtime import Platform

Sys = Syscall
EXCLUDED = ("sys_poll", "do_sys_poll", "do_poll", "pipe_poll")


def view_without(machine, excluded):
    profile = KernelProfile()
    for symbol in machine.image.symbols.values():
        if symbol.name in excluded:
            continue
        if symbol.module is None:
            profile.add(BASE_KERNEL, symbol.address, symbol.address + symbol.size)
        else:
            base = machine.image.modules[symbol.module].base
            rel = symbol.address - base
            profile.add(symbol.module, rel, rel + symbol.size)
    return KernelViewConfig(app="poller", profile=profile)


def poller(results):
    def writer(fds):
        def child():
            yield Compute(2_500_000)
            yield Sys("write", fd=fds[1], count=64)
        return child

    def driver():
        r, w = yield Sys("pipe")
        pid = yield Sys("fork", child=writer([r, w]), comm="writer")
        results["poll"] = yield Sys("poll", fds=[r], timeout_cycles=50_000_000)
        results["read"] = yield Sys("read", fd=r, count=64)
        yield Sys("waitpid", pid=pid)
    return driver


def run(instant: bool):
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.recovery.instant_recovery_enabled = instant
    fc.switcher.defer_to_resume = False
    results = {}
    task = machine.spawn("poller", poller(results))
    machine.run(
        until=lambda: task.state is TaskState.BLOCKED,
        max_cycles=4_000_000_000,
        step_budget=2_000,
    )
    print(f"  poller blocked in the kernel "
          f"(stack: syscall_call -> sys_poll -> ... -> schedule)")
    fc.load_view(view_without(machine, EXCLUDED), comm="poller")
    print(f"  hot-plugged a view lacking {', '.join(EXCLUDED)}")
    try:
        machine.run_to_exit([task], budget=40_000_000_000)
    except Exception as exc:  # runaway misdecoded execution
        print(f"  guest crashed: {exc}")
    return machine, fc, task


def main():
    print("== with instant recovery (the paper's fix) ==")
    machine, fc, task = run(instant=True)
    print(f"  finished: {task.finished}; "
          f"silently misdecoded instructions: "
          f"{machine.vcpu.corruption_executed}")
    print("\n  recovery log:")
    for event in fc.log.events:
        if event.in_interrupt:
            continue
        print("  " + event.format().replace("\n", "\n  "))
        print()

    print("== without instant recovery (the bug) ==")
    machine2, fc2, task2 = run(instant=False)
    print(f"  finished: {task2.finished}; "
          f"silently misdecoded instructions: "
          f"{machine2.vcpu.corruption_executed}   <- corruption!")


if __name__ == "__main__":
    main()
