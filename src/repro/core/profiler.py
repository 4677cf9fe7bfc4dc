"""The profiling-phase component (Section III-A).

Implemented as the simulated analogue of the paper's QEMU 1.6.0 plugin:
it hooks the virtual CPU's translation-block execution (the same
granularity QEMU exposes) and records every *kernel* basic block executed
in a tracked application's context.  Process context and module load
addresses are obtained via VMI-equivalent channels, never by asking the
application.

Interrupt-context blocks are recorded into a separate profile that is
merged into **every** exported view, per the paper's design decision to
include interrupt handler code in all views rather than repeatedly
recover it at run time (III-A3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile
from repro.guest.machine import Machine
from repro.memory.layout import is_kernel_address


class Profiler:
    """Basic-block profiler for a booted machine.

    Parameters
    ----------
    machine:
        The (QEMU-platform) machine to profile.
    track_all:
        Record every process without explicit ``track`` calls.
    """

    def __init__(self, machine: Machine, track_all: bool = False) -> None:
        if machine.runtime is None or machine.vcpu is None:
            raise ValueError("machine must be booted before profiling")
        self.machine = machine
        self.track_all = track_all
        self._tracked: set = set()
        self.profiles: Dict[str, KernelProfile] = {}
        self.interrupt_profile = KernelProfile()
        self.blocks_recorded = 0
        self._module_ranges: List[Tuple[int, int, str]] = []
        self._installed = False
        self._refresh_module_ranges(None)
        machine.runtime.module_load_listeners.append(self._refresh_module_ranges)

    # -- configuration --------------------------------------------------------

    def track(self, comm: str) -> None:
        """Profile processes whose command name is ``comm``."""
        self._tracked.add(comm)

    def install(self) -> None:
        """Attach the block tracer to the VCPU."""
        if not self._installed:
            self.machine.vcpu.block_tracer = self._on_block
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            self.machine.vcpu.block_tracer = None
            self._installed = False

    # -- recording ----------------------------------------------------------------

    def _refresh_module_ranges(self, _name: Optional[str]) -> None:
        """Re-read the guest module list (VMI) after a module (un)load."""
        introspector = self.machine.introspector
        if introspector is None:
            return
        self._module_ranges = [
            (mod.base, mod.base + mod.size, mod.name)
            for mod in introspector.read_module_list()
        ]

    def _classify(self, addr: int) -> Tuple[str, int]:
        """Map an absolute kernel address to (segment, segment-relative)."""
        for begin, end, name in self._module_ranges:
            if begin <= addr < end:
                return name, addr - begin
        return BASE_KERNEL, addr

    def _on_block(self, start: int, end: int) -> None:
        if not is_kernel_address(start):
            return
        runtime = self.machine.runtime
        if runtime.in_interrupt:
            profile = self.interrupt_profile
        else:
            comm = runtime.current.comm
            if not self.track_all and comm not in self._tracked:
                return
            profile = self.profiles.get(comm)
            if profile is None:
                profile = KernelProfile()
                self.profiles[comm] = profile
        segment, rel_start = self._classify(start)
        profile.add(segment, rel_start, rel_start + (end - start))
        self.blocks_recorded += 1

    # -- export ---------------------------------------------------------------------

    def export(self, comm: str, include_interrupts: bool = True) -> KernelViewConfig:
        """Build the kernel view configuration for one application."""
        profile = self.profiles.get(comm)
        if profile is None:
            raise KeyError(f"no profile recorded for {comm!r}")
        merged = profile.copy()
        if include_interrupts:
            merged.update(self.interrupt_profile)
        return KernelViewConfig(app=comm, profile=merged)
