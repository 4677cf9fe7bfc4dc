#!/usr/bin/env python3
"""Case study IV (paper Figure 5): detecting the KBeast kernel rootkit.

KBeast hooks the ``read``/``getdents`` syscall-table entries to sniff
keystrokes into a hidden file, and unlinks itself from the kernel module
list.  With bash's kernel view enforced, the rootkit's hooks call kernel
functions outside that view; the recoveries' backtraces contain UNKNOWN
frames -- addresses in kernel heap that no VMI-visible module owns --
revealing exactly where the hijack took place.

Run:  python examples/rootkit_detection.py
"""

from repro import boot_machine
from repro.analysis.similarity import profile_applications
from repro.core import FaceChange
from repro.kernel.runtime import Platform
from repro.malware import ALL_ATTACKS


def main():
    print("profiling 'bash' in an independent (clean) session...")
    config = profile_applications(apps=["bash"], scale=5)["bash"]
    print(f"bash's kernel view: {config.size / 1024:.0f} KB\n")

    attack = next(a for a in ALL_ATTACKS if a.name == "KBeast")
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(config, comm="bash")

    print("insmod kbeast (the rootkit hides itself from the module list),")
    print("then running bash under its kernel view...\n")
    handle = attack.launch(machine, scale=4)
    machine.run_to_exit([handle], budget=160_000_000_000)

    visible = [m.name for m in machine.introspector.read_module_list()]
    print(f"guest module list (VMI): {visible}   <- no kbeast")
    print(f"keystrokes sniffed by the rootkit: "
          f"{machine.runtime.kbeast_state['sniffed']}\n")

    print("-- recovery log (paper Figure 5) --")
    for event in fc.log.events:
        if event.in_interrupt:
            continue
        print(event.format())
        print()

    unknown = [
        frame
        for event in fc.log.events
        for frame in event.backtrace
        if frame.is_unknown
    ]
    print(f"UNKNOWN backtrace frames: {len(unknown)} "
          f"(kernel-heap addresses owned by no VMI-visible module)")
    for frame in unknown[:4]:
        print(f"  {frame}")

    # the Section V integration sketch: attribute the UNKNOWN addresses
    from repro.core import HiddenCodeScanner
    print("\n-- hidden-code scan of the kernel heap --")
    print(HiddenCodeScanner(machine).report())
    print("\nverdict: hidden kernel-level hijack detected via per-app "
          "kernel view violation")


if __name__ == "__main__":
    main()
