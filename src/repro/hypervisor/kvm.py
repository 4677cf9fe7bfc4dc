"""The hypervisor: exit dispatch, trap registration and cost accounting.

This is the component FACE-CHANGE's runtime phase plugs into (the paper
implements it inside kvm-kmod).  It owns the physical memory and one EPT
per VCPU, routes VM exits through a pluggable dispatch pipeline, and
charges the world-switch cost that makes the performance evaluation
meaningful.

The exit loop is an ordered pipeline of :class:`ExitStage` objects, one
per exit reason.  Every stage is instrumented through the machine's
:class:`~repro.telemetry.Telemetry` registry: a per-reason exit counter
(``hv.exits.<stage>``) and a charged-cycle histogram
(``hv.exit_cycles.<stage>``) covering the world switch plus whatever the
handler charged (EPT switches, code recovery).  ``ExitStats`` remains as
a thin read-only view over those registry entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.hypervisor.vcpu import DecodeCache, Vcpu
from repro.hypervisor.vmexit import VmExit, VmExitReason
from repro.memory.ept import ExtendedPageTable
from repro.memory.physmem import PhysicalMemory
from repro.telemetry import Telemetry

#: Cycles charged to the guest for every VM exit (world switch + handler).
VMEXIT_COST_CYCLES = 3500

TrapHandler = Callable[[Vcpu, VmExit], None]


@dataclass(frozen=True)
class TrapEntry:
    """One consumer of an address trap.

    ``cpu`` is ``None`` for a trap armed on every vCPU, or a specific
    ``cpu_id``.  ``observer`` entries are pure instrumentation (probes):
    an exit whose matching entries are all observers charges zero guest
    cycles, so arming a probe never perturbs virtual-cycle scores.
    """

    handler: TrapHandler
    cpu: Optional[int]
    observer: bool = False
#: Returns True when the #UD was handled (code recovered) and the guest
#: may resume at the same rip; False crashes the guest.
InvalidOpcodeHandler = Callable[[Vcpu, VmExit], bool]
IdleHandler = Callable[[Vcpu], None]


class GuestCrash(Exception):
    """The guest hit an unhandled fault (would panic on real hardware)."""

    def __init__(self, exit_: VmExit):
        super().__init__(f"unhandled guest fault: {exit_}")
        self.exit = exit_


class ExitStage:
    """One stage of the exit dispatch pipeline (one exit reason).

    Subclasses set :attr:`reason`/:attr:`name` and implement
    :meth:`handle`.  The hypervisor binds the stage's telemetry
    instruments when the stage is added to the pipeline.  A stage may
    override :meth:`exit_cost` to vary the charged world-switch cost per
    exit (observer-only trap exits charge nothing).
    """

    reason: VmExitReason
    name: str

    def __init__(self) -> None:
        self.exits = None  # bound by Hypervisor.add_stage
        self.charged_cycles = None

    def exit_cost(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> int:
        """Cycles to charge for the world switch before handling."""
        return VMEXIT_COST_CYCLES

    def handle(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} reason={self.reason.name}>"


class AddressTrapStage(ExitStage):
    """Guest fetched a trapped address (context_switch/resume_userspace).

    An address may have several consumers (FACE-CHANGE's switcher plus
    any number of probes); every entry matching the exiting vCPU runs,
    in registration order.  When *only* observer entries match, the exit
    is pure instrumentation and charges zero cycles -- the guest's
    virtual clock is bit-identical with or without the probe.
    """

    reason = VmExitReason.ADDRESS_TRAP
    name = "address_trap"

    #: the (exit, entries) pair computed by ``exit_cost`` -- ``handle``
    #: runs on the same exit immediately after, so the match is reused
    #: rather than recomputed (probe-heavy runs take this exit per call)
    _matched: Optional[tuple] = None

    def exit_cost(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> int:
        matched = hv.matching_trap_entries(exit_.rip, vcpu.cpu_id)
        self._matched = (exit_, matched)
        if matched and all(entry.observer for entry in matched):
            return 0
        return VMEXIT_COST_CYCLES

    def handle(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> None:
        hv._per_trap_address.inc(exit_.rip)
        cached = self._matched
        self._matched = None
        if cached is not None and cached[0] is exit_:
            matched = cached[1]
        else:
            matched = hv.matching_trap_entries(exit_.rip, vcpu.cpu_id)
        if not matched:
            raise GuestCrash(exit_)
        for entry in matched:
            entry.handler(vcpu, exit_)
        vcpu.resume_past_trap()


class InvalidOpcodeStage(ExitStage):
    """#UD exit: a UD2-filled hole in the active kernel view."""

    reason = VmExitReason.INVALID_OPCODE
    name = "invalid_opcode"

    def handle(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> None:
        handler = hv._invalid_opcode_handler
        if handler is None or not handler(vcpu, exit_):
            raise GuestCrash(exit_)


class HltStage(ExitStage):
    """The guest idled; hand control to the runtime's idle logic."""

    reason = VmExitReason.HLT
    name = "hlt"

    def handle(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> None:
        if hv._idle_handler is None:
            raise GuestCrash(exit_)
        hv._idle_handler(vcpu)


class ErrorStage(ExitStage):
    """Unrecoverable guest fault (translation failure etc.)."""

    reason = VmExitReason.ERROR
    name = "error"

    def handle(self, hv: "Hypervisor", vcpu: Vcpu, exit_: VmExit) -> None:
        raise GuestCrash(exit_)


class ExitStats:
    """Read-only view of VM-exit accounting over the telemetry registry.

    Kept for the benchmarks and older callers; new code should consume
    the registry (``hv.telemetry``) directly.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self._telemetry = telemetry

    @property
    def address_traps(self) -> int:
        return self._telemetry.counter("hv.exits.address_trap").value

    @property
    def invalid_opcode_traps(self) -> int:
        return self._telemetry.counter("hv.exits.invalid_opcode").value

    @property
    def hlt_exits(self) -> int:
        return self._telemetry.counter("hv.exits.hlt").value

    @property
    def per_trap_address(self) -> Dict[int, int]:
        return self._telemetry.labelled_counter("hv.exits.per_trap_address").values


class Hypervisor:
    """KVM-like host side: owns memory, EPTs and the exit pipeline."""

    def __init__(
        self,
        physmem: Optional[PhysicalMemory] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.physmem = physmem if physmem is not None else PhysicalMemory()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.vcpus: List[Vcpu] = []
        self.epts: List[ExtendedPageTable] = []
        self._trap_entries: Dict[int, List[TrapEntry]] = {}
        self._invalid_opcode_handler: Optional[InvalidOpcodeHandler] = None
        self._idle_handler: Optional[IdleHandler] = None
        self._per_trap_address = self.telemetry.labelled_counter(
            "hv.exits.per_trap_address"
        )
        #: machine-level decoded-block cache shared by all vCPUs: blocks
        #: are keyed by host frame, so SMP vCPUs running the same
        #: application reuse each other's decodes
        self.decode_cache = DecodeCache()
        self.decode_cache.attach_telemetry(self.telemetry)
        self.stats = ExitStats(self.telemetry)
        #: cycles charged for hypervisor work, attributed to the guest
        self.overhead_cycles = 0
        # the ordered dispatch pipeline (one stage per exit reason)
        self.pipeline: List[ExitStage] = []
        self._dispatch: Dict[VmExitReason, ExitStage] = {}
        for stage in (
            AddressTrapStage(),
            InvalidOpcodeStage(),
            HltStage(),
            ErrorStage(),
        ):
            self.add_stage(stage)

    # -- pipeline ---------------------------------------------------------------

    def add_stage(self, stage: ExitStage, index: Optional[int] = None) -> None:
        """Plug ``stage`` into the pipeline (replacing any same-reason stage)."""
        stage.exits = self.telemetry.counter(f"hv.exits.{stage.name}")
        stage.charged_cycles = self.telemetry.histogram(
            f"hv.exit_cycles.{stage.name}"
        )
        previous = self._dispatch.get(stage.reason)
        if previous is not None:
            position = self.pipeline.index(previous)
            self.pipeline[position] = stage
        elif index is None:
            self.pipeline.append(stage)
        else:
            self.pipeline.insert(index, stage)
        self._dispatch[stage.reason] = stage

    def stage_for(self, reason: VmExitReason) -> Optional[ExitStage]:
        return self._dispatch.get(reason)

    # -- wiring ----------------------------------------------------------------

    def attach_vcpu(self, vcpu: Vcpu, ept: ExtendedPageTable) -> None:
        self.vcpus.append(vcpu)
        self.epts.append(ept)
        vcpu.attach_telemetry(self.telemetry)
        vcpu.use_block_cache(self.decode_cache)
        for address, entries in self._trap_entries.items():
            if any(entry.cpu is None for entry in entries):
                vcpu.arm_trap(address)

    def matching_trap_entries(self, address: int, cpu_id: int) -> List[TrapEntry]:
        """The consumers of ``address`` for an exit on ``cpu_id``."""
        return [
            entry
            for entry in self._trap_entries.get(address, ())
            if entry.cpu is None or entry.cpu == cpu_id
        ]

    def trap_consumers(self, address: int) -> List[TrapEntry]:
        """Every registered consumer of ``address`` (all scopes)."""
        return list(self._trap_entries.get(address, ()))

    def register_address_trap(
        self,
        address: int,
        handler: TrapHandler,
        vcpu: Optional[Vcpu] = None,
        observer: bool = False,
    ) -> None:
        """Trap guest fetches of ``address`` (on one vCPU or on all).

        Consumers stack: registering a second handler on the same
        address chains it after the existing ones rather than replacing
        them, so probes compose with FACE-CHANGE's own traps.
        Re-registering an identical ``(handler, scope)`` pair is
        idempotent.  ``observer=True`` marks pure instrumentation whose
        exits charge no guest cycles.
        """
        scope = None if vcpu is None else vcpu.cpu_id
        entries = self._trap_entries.setdefault(address, [])
        for i, entry in enumerate(entries):
            if entry.handler is handler and entry.cpu == scope:
                if entry.observer != observer:
                    entries[i] = TrapEntry(handler, scope, observer)
                break
        else:
            entries.append(TrapEntry(handler, scope, observer))
        if vcpu is None:
            for each in self.vcpus:
                each.arm_trap(address)
        else:
            vcpu.arm_trap(address)

    def unregister_address_trap(
        self,
        address: int,
        vcpu: Optional[Vcpu] = None,
        handler: Optional[TrapHandler] = None,
    ) -> None:
        """Remove one consumer's arming of ``address``.

        Global arming (``vcpu=None``) and per-vCPU arming are tracked
        independently: unregistering the global consumer keeps the trap
        armed on vCPUs that armed it specifically, and vice versa.  With
        ``handler`` given, only that handler's entry in the matching
        scope is removed (other same-address consumers -- e.g. a probe
        sharing FACE-CHANGE's resume trap -- survive in either removal
        order).  A vCPU's trap is disarmed only once no covering entry
        remains.
        """
        entries = self._trap_entries.get(address)
        if entries is None:
            return
        scope = None if vcpu is None else vcpu.cpu_id
        survivors = []
        removed = False
        for entry in entries:
            if entry.cpu == scope and (
                handler is None or entry.handler is handler
            ):
                removed = True
                continue
            survivors.append(entry)
        if not removed:
            return
        if survivors:
            self._trap_entries[address] = survivors
        else:
            self._trap_entries.pop(address, None)
        covered_globally = any(entry.cpu is None for entry in survivors)
        for each in self.vcpus:
            if covered_globally:
                continue
            if not any(entry.cpu == each.cpu_id for entry in survivors):
                each.disarm_trap(address)

    def set_invalid_opcode_handler(
        self, handler: Optional[InvalidOpcodeHandler]
    ) -> None:
        self._invalid_opcode_handler = handler

    def set_idle_handler(self, handler: Optional[IdleHandler]) -> None:
        self._idle_handler = handler

    def charge(self, vcpu: Vcpu, cycles: int) -> None:
        """Attribute hypervisor work to the guest's virtual clock."""
        vcpu.cycles += cycles
        self.overhead_cycles += cycles

    # -- exit loop ---------------------------------------------------------------

    def run(self, vcpu: Vcpu, budget: int = 1_000_000) -> None:
        """Run ``vcpu`` until the instruction budget is consumed.

        VM exits are dispatched through the stage pipeline; only an
        unhandled fault stops execution (raising :class:`GuestCrash`).
        """
        start = vcpu.instructions
        dispatch = self._dispatch
        telemetry = self.telemetry
        while True:
            executed = vcpu.instructions - start
            if executed >= budget:
                return
            exit_ = vcpu.run(budget=budget - executed)
            reason = exit_.reason
            if reason is VmExitReason.BUDGET:
                return
            stage = dispatch.get(reason)
            if stage is None:
                raise GuestCrash(exit_)
            before = vcpu.cycles
            self.charge(vcpu, stage.exit_cost(self, vcpu, exit_))
            stage.exits.inc()
            if telemetry.recording:
                # Root of the causal chain: everything the handler does
                # (view switch, backtrace, recovery) nests under this
                # span via the per-CPU open-span stack.  Spans read the
                # virtual clock but never advance it.
                span = telemetry.spans.open(
                    "vmexit",
                    cpu=vcpu.cpu_id,
                    cycles=before,
                    reason=reason.name,
                    rip=exit_.rip,
                    stage=stage.name,
                )
                try:
                    stage.handle(self, vcpu, exit_)
                except GuestCrash:
                    telemetry.spans.close(
                        span, cycles=vcpu.cycles, status="crash",
                        charged=vcpu.cycles - before,
                    )
                    raise
                telemetry.spans.close(
                    span, cycles=vcpu.cycles, charged=vcpu.cycles - before
                )
            else:
                stage.handle(self, vcpu, exit_)
            stage.charged_cycles.observe(vcpu.cycles - before)
