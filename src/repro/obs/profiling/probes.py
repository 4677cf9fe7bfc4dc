"""Kprobe-style dynamic probes on hypervisor address traps.

A probe arms an **observer** address trap on a kernel function's entry
point: every time any vCPU reaches the address, the trap fires, the
probe counts the hit (optionally filtered by a predicate over the
VMI-read current task) and -- when the flight recorder is on -- emits a
zero-duration ``probe`` span that nests into the causal trees of
``repro forensics``.  This is the trap-based, guest-transparent
monitoring of Zhan et al. layered on the machinery FACE-CHANGE already
has.

Determinism contract (why probes keep virtual-cycle scores
bit-identical):

* probes arm only at **function entries** -- an entry is reached
  exclusively through CALL/JMP/RET terminators, so the block boundary
  the trap needs already exists and arming it never re-splits a block
  that executed differently before;
* observer traps charge **zero** exit cycles
  (:meth:`~repro.hypervisor.kvm.AddressTrapStage.exit_cost`) and probe
  handlers never call :meth:`~repro.hypervisor.kvm.Hypervisor.charge`;
* the interrupt-window check re-runs after resume at an unchanged
  cycle count, so delivery timing is identical.

Probes compose with FACE-CHANGE's own ``context_switch`` /
``resume_userspace`` traps through the handler chains of
:class:`~repro.hypervisor.kvm.Hypervisor` -- both consumers can share
an address and be removed in either order (regression-tested).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.hypervisor.vmi import GuestProcessInfo
from repro.kernel.image import SymbolError

HITS_COUNTER = "probe.hits"

#: Predicate over the VMI-read current task; hit counted iff it returns True.
ProbePredicate = Callable[[GuestProcessInfo], bool]


class ProbeError(ValueError):
    """The symbol cannot be probed (unknown, or not a function entry)."""


class Probe:
    """One armed probe: symbol, entry address, hit counter."""

    def __init__(
        self,
        symbol: str,
        address: int,
        predicate: Optional[ProbePredicate] = None,
    ) -> None:
        self.symbol = symbol
        self.address = address
        self.predicate = predicate
        self.hits = 0
        self.filtered = 0


class ProbeEngine:
    """Arms and disarms probes for one machine."""

    def __init__(self, machine) -> None:
        if machine.runtime is None:
            raise ValueError("machine must be booted before probing")
        self.machine = machine
        self.probes: Dict[str, Probe] = {}

    # -- arming --------------------------------------------------------------

    def arm(
        self, symbol: str, predicate: Optional[ProbePredicate] = None
    ) -> Probe:
        """Arm a probe on ``symbol``'s entry point (idempotent per symbol)."""
        existing = self.probes.get(symbol)
        if existing is not None:
            existing.predicate = predicate or existing.predicate
            return existing
        image = self.machine.image
        try:
            address = image.address_of(symbol)
        except SymbolError:
            raise ProbeError(f"unknown kernel symbol {symbol!r}") from None
        resolved = image.symbol_at(address)
        if resolved is None or resolved.address != address:
            raise ProbeError(
                f"{symbol!r} does not resolve to a function entry"
            )
        probe = Probe(symbol, address, predicate)

        def handler(vcpu, exit_, probe=probe):
            self._on_hit(probe, vcpu)

        probe._handler = handler
        self.machine.hypervisor.register_address_trap(
            address, handler, observer=True
        )
        self.probes[symbol] = probe
        return probe

    def disarm(self, symbol: str) -> None:
        probe = self.probes.pop(symbol, None)
        if probe is None:
            return
        self.machine.hypervisor.unregister_address_trap(
            probe.address, handler=probe._handler
        )

    def disarm_all(self) -> None:
        for symbol in list(self.probes):
            self.disarm(symbol)

    # -- the hit path --------------------------------------------------------

    def _on_hit(self, probe: Probe, vcpu) -> None:
        if probe.predicate is not None:
            introspector = self.machine.introspector
            task = (
                introspector.read_current_process(vcpu.cpu_id)
                if introspector is not None
                else GuestProcessInfo(pid=0, comm="?")
            )
            if not probe.predicate(task):
                probe.filtered += 1
                return
        probe.hits += 1
        telemetry = self.machine.telemetry
        telemetry.labelled_counter(HITS_COUNTER).inc(probe.symbol)
        if telemetry.recording:
            span = telemetry.spans.open(
                "probe",
                cpu=vcpu.cpu_id,
                cycles=vcpu.cycles,
                symbol=probe.symbol,
                rip=probe.address,
                hits=probe.hits,
            )
            telemetry.spans.close(span, cycles=vcpu.cycles)
