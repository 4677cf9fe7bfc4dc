"""Kernel view switching (Section III-B2, Algorithm 1, Figure 2).

The hypervisor traps fetches of ``context_switch``; the handler reads the
incoming process' identity via VMI (``READ_PROC_INFO``) and selects its
view.  Two optimizations from the paper are implemented and individually
switchable for ablation:

* **deferred switch** -- rather than switching views inside the context
  switch (which can make the guest miss interrupts and hurts I/O), the
  ``resume_userspace`` trap is armed and the EPT update happens when the
  process is about to re-enter user space;
* **same-view skip** -- when the previous and next process share a view,
  the EPT update is skipped entirely.

SMP (the paper's §V-C): view state is tracked *per vCPU* -- each vCPU
owns an EPT, the resume trap is armed on the specific vCPU that needs
the deferred switch, and one view can be installed in several EPTs at
once when multiple CPUs run the same application.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.view_manager import KernelView
from repro.hypervisor.vcpu import Vcpu
from repro.hypervisor.vmexit import VmExit

#: Index of the full kernel view (no EPT overrides).
FULL_KERNEL_VIEW_INDEX = -1
#: Cycles charged for re-pointing the base kernel's EPT directory entries.
EPT_SWITCH_BASE_COST = 900
#: Extra cycles per module region whose entries must be re-pointed.
EPT_SWITCH_MODULE_COST = 120


class ViewSwitcher:
    """Implements SWITCH_KERNEL_VIEW / HANDLE_KERNEL_VIEW_TRAP."""

    def __init__(
        self,
        machine,
        selector: Callable[[str], int],
    ) -> None:
        self.machine = machine
        self.selector = selector
        self.views: Dict[int, KernelView] = {}
        n = machine.vcpu_count
        self.current_index: List[int] = [FULL_KERNEL_VIEW_INDEX] * n
        self.last_index: List[int] = [FULL_KERNEL_VIEW_INDEX] * n
        self._resume_armed: List[bool] = [False] * n
        # telemetry handles (aggregated over all CPUs)
        self.telemetry = machine.hypervisor.telemetry
        self._ctxsw_traps = self.telemetry.counter("switch.context_switch_traps")
        self._resume_traps = self.telemetry.counter("switch.resume_traps")
        self._switches = self.telemetry.counter("switch.switches")
        self._skipped = self.telemetry.counter("switch.skipped_switches")
        self._ept_cycles = self.telemetry.histogram("switch.ept_cycles")
        # ablation switches
        self.defer_to_resume = True
        self.skip_same_view = True

    # -- legacy counter names (read-only views over the registry) -----------------

    @property
    def context_switch_traps(self) -> int:
        return self._ctxsw_traps.value

    @property
    def resume_traps(self) -> int:
        return self._resume_traps.value

    @property
    def switches(self) -> int:
        return self._switches.value

    @property
    def skipped_switches(self) -> int:
        return self._skipped.value

    # -- view registry ------------------------------------------------------------

    def register_view(self, view: KernelView) -> None:
        self.views[view.index] = view

    def remove_view(self, index: int) -> None:
        """Hot-unplug a view (switching to the full view where live)."""
        for cpu in range(self.machine.vcpu_count):
            if self.current_index[cpu] == index:
                self.switch_kernel_view(FULL_KERNEL_VIEW_INDEX, cpu)
            if self.last_index[cpu] == index:
                self.last_index[cpu] = FULL_KERNEL_VIEW_INDEX
        self.views.pop(index, None)

    def current_view_for(self, cpu: int) -> Optional[KernelView]:
        return self.views.get(self.current_index[cpu])

    # -- trap handlers (Algorithm 1) -----------------------------------------------

    def handle_context_switch_trap(self, vcpu: Vcpu, exit_: VmExit) -> None:
        self._ctxsw_traps.value += 1
        cpu = vcpu.cpu_id
        procinfo = self.machine.introspector.read_current_process(cpu)
        index = self.selector(procinfo.comm)
        current = self.current_index[cpu]
        tel = self.telemetry
        if tel.recording:
            tel.emit(
                "ctxsw_trap",
                cycles=vcpu.cycles,
                cpu=cpu,
                comm=procinfo.comm,
                pid=procinfo.pid,
                view=index,
            )
        # Deferring the EPT update to resume_userspace is only safe when
        # the interim kernel execution cannot stray outside the *active*
        # view: that holds when the active view is the full kernel
        # (full -> custom, the common idle <-> app pattern the deferral
        # optimizes) or when the incoming process uses the view that is
        # already live (its kernel stack was built under it).  For a
        # custom -> *different* custom transition the incoming process'
        # stack may reference code missing from the previous app's view --
        # and an odd return target into a UD2 fill would be *silently
        # misdecoded* rather than trapped (the Figure 3 hazard) -- so
        # those switches happen immediately at the context-switch trap.
        safe_to_defer = (
            current == FULL_KERNEL_VIEW_INDEX or current == index
        )
        if (
            index == FULL_KERNEL_VIEW_INDEX
            or not self.defer_to_resume
            or not safe_to_defer
        ):
            self._disarm_resume_trap(cpu)
            self.switch_kernel_view(index, cpu)
        else:
            # Algorithm 1: arm the resume trap even when prev and next
            # share a view -- the same-view *switch* is skipped at resume
            # time, but the trap itself is part of the per-context-switch
            # cost the performance evaluation measures.
            self._arm_resume_trap(cpu)
            self.last_index[cpu] = index

    def handle_resume_userspace_trap(self, vcpu: Vcpu, exit_: VmExit) -> None:
        cpu = vcpu.cpu_id
        if not self._resume_armed[cpu]:
            return
        self._resume_traps.value += 1
        tel = self.telemetry
        if tel.recording:
            tel.emit(
                "resume_trap",
                cycles=vcpu.cycles,
                cpu=cpu,
                view=self.last_index[cpu],
            )
        self._disarm_resume_trap(cpu)
        self.switch_kernel_view(self.last_index[cpu], cpu)

    # -- the switch itself ------------------------------------------------------------

    def switch_kernel_view(self, index: int, cpu: int = 0) -> None:
        tel = self.telemetry
        previous = self.current_index[cpu]
        if index == previous and self.skip_same_view:
            self._skipped.value += 1
            if tel.recording:
                tel.emit(
                    "view_skip",
                    cycles=self.machine.vcpus[cpu].cycles,
                    cpu=cpu,
                    view=index,
                )
            return
        ept = self.machine.epts[cpu]
        vcpu = self.machine.vcpus[cpu]
        current = self.views.get(previous)
        target = self.views.get(index)
        span = None
        if tel.recording:
            span = tel.spans.open(
                "view_switch",
                cpu=cpu,
                cycles=vcpu.cycles,
                from_view=previous,
                app=target.config.app if target is not None else "<full>",
            )
        cost = EPT_SWITCH_BASE_COST
        if target is not None:
            # Delta switch: entries both views agree on (canonical UD2
            # frame, adopted originals) are no-op remaps inside the EPT,
            # preserving cached translations for untouched pages.  The
            # charged cost model is unchanged -- the paper's pointer
            # flip is what we're simulating either way.
            if current is not None:
                target.install_over(current, ept)
            else:
                target.install(ept)
            cost += EPT_SWITCH_MODULE_COST * max(0, len(target.regions) - 1)
        elif current is not None:
            current.uninstall(ept)
        self.current_index[cpu] = (
            index if target is not None else FULL_KERNEL_VIEW_INDEX
        )
        self._switches.value += 1
        self._ept_cycles.observe(cost)
        self.machine.hypervisor.charge(vcpu, cost)
        if span is not None:
            tel.spans.close(
                span,
                cycles=vcpu.cycles,
                to_view=self.current_index[cpu],
                cost=cost,
            )

    # -- resume trap management ----------------------------------------------------------

    def disarm_resume_traps(self, cpu: Optional[int] = None) -> None:
        """Cancel pending deferred switches (one CPU, or all of them).

        Public API for lifecycle owners (e.g. ``FaceChange.disable``):
        any armed ``resume_userspace`` trap is disarmed and the deferred
        EPT update it carried is dropped.
        """
        self._disarm_resume_trap(cpu)

    def _resume_address(self) -> int:
        return self.machine.image.address_of("resume_userspace")

    def _arm_resume_trap(self, cpu: int) -> None:
        if not self._resume_armed[cpu]:
            self.machine.hypervisor.register_address_trap(
                self._resume_address(),
                self.handle_resume_userspace_trap,
                vcpu=self.machine.vcpus[cpu],
            )
            self._resume_armed[cpu] = True

    def _disarm_resume_trap(self, cpu: Optional[int] = None) -> None:
        cpus = range(self.machine.vcpu_count) if cpu is None else (cpu,)
        for each in cpus:
            if self._resume_armed[each]:
                self.machine.hypervisor.unregister_address_trap(
                    self._resume_address(), vcpu=self.machine.vcpus[each]
                )
                self._resume_armed[each] = False
