"""The FACE-CHANGE facade: enable/disable, load/unload, statistics.

Typical runtime-phase usage::

    fc = FaceChange(machine)
    fc.enable()
    index = fc.load_view(config)          # per-app customized view
    ...run workloads...
    print(fc.log.report())                # recovery provenance
    fc.unload_view(index)                 # hot-unplug (III-B4)
    fc.disable()

Everything is driven from the hypervisor: address traps on
``context_switch``/``resume_userspace``, the ``#UD`` handler for code
recovery, and per-view EPT overrides.  The guest is never modified.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.core.kernel_view import KernelViewConfig
from repro.core.provenance import RecoveryLog
from repro.core.recovery import RecoveryEngine
from repro.core.switching import FULL_KERNEL_VIEW_INDEX, ViewSwitcher
from repro.core.view_manager import KernelView, ViewBuilder
from repro.guest.machine import Machine
from repro.hypervisor.vcpu import Vcpu
from repro.hypervisor.vmexit import VmExit


class FaceChangeStats:
    """Read-only aggregate view over the telemetry registry.

    Keeps the field names the performance evaluation has always used
    while the actual accounting lives in ``machine.telemetry``.
    """

    def __init__(self, facechange: "FaceChange") -> None:
        self._fc = facechange
        self._telemetry = facechange.machine.telemetry

    @property
    def context_switch_traps(self) -> int:
        return self._telemetry.counter("switch.context_switch_traps").value

    @property
    def resume_traps(self) -> int:
        return self._telemetry.counter("switch.resume_traps").value

    @property
    def view_switches(self) -> int:
        return self._telemetry.counter("switch.switches").value

    @property
    def skipped_switches(self) -> int:
        return self._telemetry.counter("switch.skipped_switches").value

    @property
    def recoveries(self) -> int:
        return self._telemetry.counter("recovery.recoveries").value

    @property
    def instant_recoveries(self) -> int:
        return self._telemetry.counter("recovery.instant_recoveries").value

    @property
    def loaded_views(self) -> int:
        return len(self._fc.switcher.views)


class FaceChange:
    """Application-driven dynamic kernel view switching."""

    def __init__(self, machine: Machine, widen_views: bool = True) -> None:
        if machine.runtime is None:
            raise ValueError("machine must be booted")
        self.machine = machine
        self.telemetry = machine.telemetry
        self.log = RecoveryLog()
        self.builder = ViewBuilder(machine, widen=widen_views)
        self.recovery = RecoveryEngine(machine, self.log)
        selector_map: Dict[str, int] = {}
        self._selector_map = selector_map
        # KERNEL_VIEW_SELECTOR: closes over the map, not over self, so
        # the switcher holds no reference back to this object
        self.switcher = ViewSwitcher(
            machine,
            lambda comm: selector_map.get(comm, FULL_KERNEL_VIEW_INDEX),
        )
        self._next_index = 0
        self.enabled = False
        #: statistical observability attached via environment knobs
        #: (``REPRO_SAMPLE_INTERVAL``, ``REPRO_PROBE_FUNCS``) on enable()
        self.sampler = None
        self.probe_engine = None
        machine.runtime.module_load_listeners.append(self._on_module_loaded)

    # -- enable / disable ------------------------------------------------------------

    def enable(self) -> None:
        if self.enabled:
            return
        hv = self.machine.hypervisor
        hv.register_address_trap(
            self.machine.image.address_of("context_switch"),
            self.switcher.handle_context_switch_trap,
        )
        hv.set_invalid_opcode_handler(self._handle_invalid_opcode)
        self._attach_env_observability()
        self.enabled = True

    def disable(self) -> None:
        """Disable FACE-CHANGE, reverting to the full kernel view."""
        if not self.enabled:
            return
        for cpu in range(self.machine.vcpu_count):
            self.switcher.switch_kernel_view(FULL_KERNEL_VIEW_INDEX, cpu)
        self.switcher.disarm_resume_traps()
        hv = self.machine.hypervisor
        hv.unregister_address_trap(self.machine.image.address_of("context_switch"))
        hv.set_invalid_opcode_handler(None)
        self._detach_env_observability()
        self.enabled = False

    def _attach_env_observability(self) -> None:
        """Install the sampler/probes the environment asks for.

        ``REPRO_SAMPLE_INTERVAL=<cycles>`` installs the sampling
        profiler wired to this instance's view switcher;
        ``REPRO_PROBE_FUNCS=<sym>[,<sym>...]`` arms observer probes;
        ``REPRO_JIT=0`` forces block translation off (guest state is
        bit-identical either way, see :mod:`repro.hypervisor.jit`).
        All are how the benchmark suite and fleet workers turn these
        layers on without touching call sites.
        """
        if "REPRO_JIT" in os.environ:
            from repro.hypervisor.jit import env_jit_enabled

            self.machine.set_jit(env_jit_enabled())
        interval = os.environ.get("REPRO_SAMPLE_INTERVAL", "")
        if interval:
            from repro.obs.profiling.sampler import SamplingProfiler

            self.sampler = SamplingProfiler(
                self.machine,
                interval=int(interval),
                view_provider=lambda cpu: self.switcher.current_index[cpu],
            )
            self.sampler.install()
        probe_funcs = os.environ.get("REPRO_PROBE_FUNCS", "")
        if probe_funcs:
            from repro.obs.profiling.probes import ProbeEngine

            self.probe_engine = ProbeEngine(self.machine)
            for symbol in probe_funcs.split(","):
                symbol = symbol.strip()
                if symbol:
                    self.probe_engine.arm(symbol)

    def _detach_env_observability(self) -> None:
        if self.sampler is not None:
            self.sampler.uninstall()
            self.sampler = None
        if self.probe_engine is not None:
            self.probe_engine.disarm_all()
            self.probe_engine = None

    # -- view lifecycle ----------------------------------------------------------------

    def load_view(self, config: KernelViewConfig, comm: Optional[str] = None) -> int:
        """Build a view from ``config`` and bind it to a process name.

        Returns the view index.  Loading happens without interrupting the
        guest; the view takes effect at the bound process' next schedule.
        """
        index = self._next_index
        self._next_index += 1
        view = self.builder.build(index, config)
        self.switcher.register_view(view)
        self._selector_map[comm if comm is not None else config.app] = index
        if self.telemetry.recording:
            self.telemetry.emit(
                "view_load",
                cycles=self.machine.cycles,
                view=index,
                app=config.app,
                loaded_bytes=view.loaded_bytes,
            )
        return index

    def unload_view(self, index: int) -> None:
        """Hot-unplug a view: de-allocate its pages, fall back to full view."""
        view = self.switcher.views.get(index)
        if view is None:
            return
        self.switcher.remove_view(index)
        for comm in [c for c, i in self._selector_map.items() if i == index]:
            del self._selector_map[comm]
        view.free()
        if self.telemetry.recording:
            self.telemetry.emit(
                "view_unload",
                cycles=self.machine.cycles,
                view=index,
                app=view.config.app,
            )

    def view_for(self, comm: str) -> Optional[KernelView]:
        index = self._selector_map.get(comm)
        return self.switcher.views.get(index) if index is not None else None

    @property
    def loaded_views(self) -> List[KernelView]:
        return list(self.switcher.views.values())

    # -- handlers ---------------------------------------------------------------------

    def _handle_invalid_opcode(self, vcpu: Vcpu, exit_: VmExit) -> bool:
        view = self.switcher.current_view_for(vcpu.cpu_id)
        return self.recovery.handle(vcpu, exit_, view)

    def _on_module_loaded(self, name: str) -> None:
        """Cover a newly loaded module in every existing view."""
        for view in self.switcher.views.values():
            self.builder.extend_for_module(view, name)
            for ept in list(view.installed_epts):
                view.install(ept)  # map the new frames too
        if self.telemetry.recording:
            self.telemetry.emit(
                "module_load",
                cycles=self.machine.cycles,
                module=name,
                views=len(self.switcher.views),
            )

    # -- stats -----------------------------------------------------------------------

    @property
    def stats(self) -> FaceChangeStats:
        return FaceChangeStats(self)
