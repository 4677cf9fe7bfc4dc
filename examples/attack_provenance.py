#!/usr/bin/env python3
"""Case study I (paper Figure 4): Injectso's UDP payload inside ``top``.

A hot-patching tool injects a shared object into the running ``top``
process; the payload is a parasite UDP server.  ``top``'s kernel view
contains no networking code, so every kernel function the payload pulls
in is recovered -- and the recovery log *is* the attack provenance:
``socket``/``bind``/``recvfrom`` map to the exact kernel chains the
paper prints.

Run:  python examples/attack_provenance.py
"""

from repro import boot_machine
from repro.analysis.similarity import profile_applications
from repro.core import FaceChange
from repro.core.provenance import DEFAULT_BENIGN_RECOVERIES
from repro.kernel.runtime import Platform
from repro.malware import ALL_ATTACKS


def main():
    print("profiling 'top' in an independent session...")
    config = profile_applications(apps=["top"], scale=5)["top"]
    print(f"top's kernel view: {config.size / 1024:.0f} KB\n")

    attack = next(a for a in ALL_ATTACKS if a.name == "Injectso")
    print(f"attack: {attack.name} -- {attack.infection_method}")
    print(f"payload: {attack.payload}; host: {attack.host_app}\n")

    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(config, comm="top")
    handle = attack.launch(machine, scale=4)
    machine.run_to_exit([handle], budget=120_000_000_000)

    events = fc.log.anomalous(benign=DEFAULT_BENIGN_RECOVERIES)
    print(f"kernel code recovery log: {len(events)} anomalous recoveries\n")
    print("-- recovered kernel functions (the payload's attack pattern) --")
    for event in events:
        print(f"  {event.rip:#010x} {event.recovered}")
    print()

    # group like the paper's Figure 4: socket / bind / recvfrom chains
    names = [e.function_name for e in events]
    groups = {
        "socket:": ["inet_create", "sk_alloc", "apparmor_socket_create"],
        "bind:": [
            "sys_bind", "security_socket_bind", "apparmor_socket_bind",
            "inet_bind", "inet_addr_type", "lock_sock_nested",
            "udp_v4_get_port", "udp_lib_get_port", "udp_lib_lport_inuse",
            "release_sock",
        ],
        "recvfrom:": [
            "sys_recvfrom", "sock_recvmsg", "security_socket_recvmsg",
            "apparmor_socket_recvmsg", "sock_common_recvmsg", "udp_recvmsg",
            "__skb_recv_datagram", "prepare_to_wait_exclusive",
        ],
    }
    print("-- mapped to the payload's libc calls (paper Figure 4) --")
    for label, fns in groups.items():
        hit = [fn for fn in fns if fn in names]
        print(f"  {label:<10} {', '.join(hit)}")

    print("\nfirst recovery with its provenance backtrace:")
    print(events[0].format())


if __name__ == "__main__":
    main()
