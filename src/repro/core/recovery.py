"""Kernel code recovery (Section III-B3, Algorithm 1, Figure 3).

When the guest executes a ``UD2`` left by the view fill, the ``#UD`` VM
exit lands here.  The handler:

1. walks the ``ebp`` frame chain (``BACK_TRACE``), dumping each return
   address, and -- the paper's *instant recovery* -- immediately recovers
   any caller whose return address points at a split ``UD2`` (``0b 0f``),
   which the processor would silently misdecode as an ``or`` instruction
   rather than trapping;
2. widens the faulting address to its containing function via the
   prologue-signature search (``SEARCH_BACKWARDS`` / ``SEARCH_FORWARDS``);
3. fetches the missing code from the guest's original kernel pages and
   fills it into the view frames (``FETCH_FILL_CODE``);
4. records a :class:`~repro.core.provenance.RecoveryEvent` with full
   provenance for later attack/exception analysis.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.provenance import (
    DEFAULT_BENIGN_RECOVERIES,
    BacktraceFrame,
    RecoveryEvent,
    RecoveryLog,
    classify_recovery,
)
from repro.core.view_manager import KernelView
from repro.hypervisor.vcpu import Vcpu
from repro.hypervisor.vmexit import VmExit
from repro.memory.layout import is_kernel_address
from repro.memory.mmu import TranslationError

#: Cycles charged per code recovery (trap + search + copy).
RECOVERY_COST_CYCLES = 15_000
#: Maximum frames walked by BACK_TRACE.
MAX_BACKTRACE_DEPTH = 64
#: The byte pair a split UD2 presents at an odd return address.
SPLIT_UD2 = b"\x0b\x0f"


class RecoveryEngine:
    """Implements HANDLE_INVALID_OPCODE / BACK_TRACE from Algorithm 1."""

    def __init__(self, machine, log: RecoveryLog) -> None:
        self.machine = machine
        self.log = log
        self.telemetry = machine.hypervisor.telemetry
        self._recoveries = self.telemetry.counter("recovery.recoveries")
        self._instant = self.telemetry.counter("recovery.instant_recoveries")
        self._bytes = self.telemetry.counter("recovery.recovered_bytes")
        self._depth = self.telemetry.histogram("recovery.backtrace_depth")
        #: per-verdict counts (benign / anomalous / captured-attack),
        #: always on -- the fleet drift detector reads these live
        self._verdicts = self.telemetry.labelled_counter("recovery.verdicts")
        #: benign baseline for verdict classification; fleet jobs point
        #: this at the ProfileLibrary record's profiled baseline
        self.benign_reference: Tuple[str, ...] = DEFAULT_BENIGN_RECOVERIES
        #: ablation switch: disabling instant recovery reproduces the
        #: cross-view corruption bug the paper describes (Figure 3)
        self.instant_recovery_enabled = True
        # no-progress guard: a rip that keeps faulting after recovery is
        # corrupted execution (e.g. a split-UD2 fragment), not a hole
        self._last_fault = (None, 0)

    # -- legacy counter names (read-only views over the registry) -----------------

    @property
    def recoveries(self) -> int:
        return self._recoveries.value

    @property
    def instant_recoveries(self) -> int:
        return self._instant.value

    # -- helpers ---------------------------------------------------------------

    def _read_guest(self, vcpu: Vcpu, addr: int, length: int) -> Optional[bytes]:
        try:
            return vcpu.mmu.read(addr, length)
        except TranslationError:
            return None

    def _symbolize(self, addr: int) -> str:
        text = self.machine.image.format_address(addr)
        # format_address returns "0x... <sym+off>"; keep the symbol part
        return text.split(" ", 1)[1]

    def _recover_function(
        self, view: KernelView, addr: int
    ) -> Optional[Tuple[int, int]]:
        """SEARCH_BACKWARDS/FORWARDS + FETCH_FILL_CODE around ``addr``."""
        region = view.region_of(addr)
        if region is None:
            return None
        start, end = view.finder.containing_function(addr, region[0], region[1])
        view.copy_original(start, end)
        view.recovered_ranges.append((start, end))
        return start, end

    # -- BACK_TRACE ----------------------------------------------------------------

    def back_trace(
        self, vcpu: Vcpu, view: KernelView
    ) -> Tuple[List[BacktraceFrame], List[str]]:
        frames: List[BacktraceFrame] = []
        instant: List[str] = []
        iter_rbp = vcpu.ebp
        for _ in range(MAX_BACKTRACE_DEPTH):
            if iter_rbp == 0 or not is_kernel_address(iter_rbp):
                break
            words = self._read_guest(vcpu, iter_rbp, 8)
            if words is None:
                break
            prev_rbp = int.from_bytes(words[0:4], "little")
            prev_rip = int.from_bytes(words[4:8], "little")
            if prev_rip == 0 or not is_kernel_address(prev_rip):
                break
            frames.append(BacktraceFrame(prev_rip, self._symbolize(prev_rip)))
            # instant recovery: a return target reading "0b 0f" would be
            # misdecoded by the CPU instead of trapping -- recover it now
            opcode = self._read_guest(vcpu, prev_rip, 2)
            if (
                self.instant_recovery_enabled
                and opcode == SPLIT_UD2
                and view.covers(prev_rip)
            ):
                recovered = self._recover_function(view, prev_rip)
                if recovered is not None:
                    instant.append(self._symbolize(recovered[0]))
                    self._instant.value += 1
                    if self.telemetry.recording:
                        self.telemetry.emit(
                            "instant_recovery",
                            cycles=vcpu.cycles,
                            cpu=vcpu.cpu_id,
                            rip=prev_rip,
                            recovered=self._symbolize(recovered[0]),
                            view_app=view.config.app,
                        )
            iter_rbp = prev_rbp
        return frames, instant

    # -- HANDLE_INVALID_OPCODE --------------------------------------------------------

    def handle(self, vcpu: Vcpu, exit_: VmExit, view: Optional[KernelView]) -> bool:
        """Recover the missing code at ``exit_.rip``; False if unhandled."""
        tel = self.telemetry
        if not tel.recording:
            return self._handle(vcpu, exit_, view, None)
        span = tel.spans.open(
            "recovery", cpu=vcpu.cpu_id, cycles=vcpu.cycles, rip=exit_.rip
        )
        handled = self._handle(vcpu, exit_, view, span)
        tel.spans.close(
            span, cycles=vcpu.cycles, status="ok" if handled else "unhandled"
        )
        return handled

    def _handle(
        self,
        vcpu: Vcpu,
        exit_: VmExit,
        view: Optional[KernelView],
        span,
    ) -> bool:
        if view is None or not view.covers(exit_.rip):
            return False
        # confirm the fault really is in a UD2-filled hole of this view
        hole = self._read_guest(vcpu, exit_.rip & ~1, 2)
        if hole is None:
            return False
        last_rip, count = self._last_fault
        if last_rip == exit_.rip:
            if count >= 2:
                return False  # recovery is not making progress: crash
            self._last_fault = (exit_.rip, count + 1)
        else:
            self._last_fault = (exit_.rip, 1)
        tel = self.telemetry
        bt_span = None
        if span is not None:
            bt_span = tel.spans.open(
                "backtrace", cpu=vcpu.cpu_id, cycles=vcpu.cycles
            )
        frames, instant = self.back_trace(vcpu, view)
        if bt_span is not None:
            tel.spans.close(
                bt_span,
                cycles=vcpu.cycles,
                depth=len(frames),
                unknown=sum(1 for f in frames if f.is_unknown),
                instant=len(instant),
            )
        recovered = self._recover_function(view, exit_.rip)
        if recovered is None:
            return False
        start, end = recovered
        runtime = self.machine.runtime
        procinfo = self.machine.introspector.read_current_process(vcpu.cpu_id)
        event = RecoveryEvent(
            cycles=vcpu.cycles,
            rip=exit_.rip,
            recovered=self._symbolize(start),
            function_start=start,
            function_end=end,
            pid=procinfo.pid,
            comm=procinfo.comm,
            view_app=view.config.app,
            backtrace=tuple(frames),
            in_interrupt=runtime.in_interrupt,
            instant_recoveries=tuple(instant),
        )
        self.log.append(event)
        self._recoveries.value += 1
        self._bytes.value += end - start
        self._depth.observe(len(frames))
        verdict = classify_recovery(event, benign=self.benign_reference)
        self._verdicts.inc(verdict)
        if span is not None:
            tel.spans.event(
                span,
                "provenance",
                cycles=event.cycles,
                verdict=verdict,
                pid=event.pid,
                comm=event.comm,
                view_app=event.view_app,
                in_interrupt=event.in_interrupt,
                unknown_frames=event.has_unknown_frames,
            )
            span.attrs.update(recovered=event.recovered, bytes=end - start)
        self.machine.hypervisor.charge(vcpu, RECOVERY_COST_CYCLES)
        # the fill went through copy_original's CoW path: a shared page
        # materialized a freshly-versioned private frame (or adopted the
        # original) and the EPT remap bumped the covering epoch, so every
        # vCPU re-translates and re-decodes on resume
        return True
