#!/usr/bin/env python3
"""Quickstart: profile an application, enforce its kernel view, read the log.

This walks the full FACE-CHANGE lifecycle on the simulated VM:

1. boot a QEMU-platform guest and profile ``top``'s kernel footprint;
2. save the kernel view configuration to disk (JSON);
3. boot a KVM-platform guest, enable FACE-CHANGE and load the view;
4. run the same workload under the minimized view;
5. inspect the recovery log (expect only the benign kvm-clock chain the
   paper describes in Section III-B3).

Run:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import boot_machine
from repro.core import FaceChange, KernelViewConfig, Profiler
from repro.core.provenance import DEFAULT_BENIGN_RECOVERIES
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform

Sys = Syscall


def top_workload(iterations=15):
    """A task-manager-like workload: procfs reads + tty output."""

    def driver():
        tty = yield Sys("open", path="/dev/tty1")
        for _ in range(iterations):
            fd = yield Sys("open", path="/proc/stat")
            yield Sys("read", fd=fd, count=2048)
            yield Sys("close", fd=fd)
            yield Sys("write", fd=tty, count=512)
            yield Compute(450_000)
            yield Sys("nanosleep", cycles=100_000)

    return driver


def main():
    # -- 1. profiling phase (QEMU) -----------------------------------------
    print("== profiling phase (QEMU platform) ==")
    qemu = boot_machine(platform=Platform.QEMU)
    profiler = Profiler(qemu)
    profiler.track("top")
    profiler.install()
    task = qemu.spawn("top", top_workload())
    assert qemu.run_to_exit([task], budget=40_000_000_000)
    config = profiler.export("top")
    print(f"profiled kernel view for 'top': {config.size / 1024:.0f} KB "
          f"across {len(config.profile)} code ranges")

    # -- 2. the configuration file travels between sessions -----------------
    path = Path(tempfile.mkdtemp()) / "top.view.json"
    config.save(path)
    print(f"saved kernel view configuration to {path}")

    # -- 3/4. runtime phase (KVM) -------------------------------------------
    print("\n== runtime phase (KVM platform) ==")
    kvm = boot_machine(platform=Platform.KVM)
    fc = FaceChange(kvm)
    fc.enable()
    fc.load_view(KernelViewConfig.load(path))
    task = kvm.spawn("top", top_workload())
    assert kvm.run_to_exit([task], budget=80_000_000_000)
    stats = fc.stats
    print(f"workload finished under its minimized view: "
          f"{stats.context_switch_traps} context-switch traps, "
          f"{stats.view_switches} view switches, "
          f"{stats.recoveries} code recoveries")

    # -- 5. the recovery log -------------------------------------------------
    print("\n== recovery log ==")
    print(fc.log.report() or "(empty)")
    anomalous = fc.log.anomalous(benign=DEFAULT_BENIGN_RECOVERIES)
    print(f"\nanomalous (non-benign, non-interrupt) recoveries: "
          f"{len(anomalous)}  -> the view held")


if __name__ == "__main__":
    main()
