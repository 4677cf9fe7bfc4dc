"""Machine builder: physical memory + EPT + VCPU + kernel image + runtime.

``boot_machine()`` produces a fully wired guest: the synthetic kernel is
assembled into guest memory, the configured boot modules are loaded, the
kernel page table covers text/data/stacks/module space, the idle task is
running, and the hypervisor exit loop is connected.  From there,
``spawn()`` adds user processes and ``run()`` advances the world.

Which kernel gets built is governed by a :class:`repro.guest.config.
GuestConfig` (module subset, scheduler/timer variant, vCPU count,
platform); the default config reproduces the historical hard-coded build
bit-identically.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.view_manager import FunctionBoundaryFinder
    from repro.fleet.snapshot import MachineSnapshot

from repro.guest.config import GuestConfig, resolve_guest
from repro.hypervisor.jit import env_jit_enabled
from repro.hypervisor.kvm import Hypervisor
from repro.hypervisor.vcpu import Vcpu
from repro.hypervisor.vmi import Introspector
from repro.isa.assembler import Assembler, NameRegistry
from repro.kernel.image import KernelImage
from repro.kernel.objects import Packet, Task
from repro.kernel.runtime import KernelRuntime
from repro.memory.ept import ExtendedPageTable
from repro.memory.layout import (
    KERNEL_BASE,
    KERNEL_STACK_BASE,
    KERNEL_TEXT_BASE,
    MODULE_SPACE_BASE,
    PAGE_SIZE,
)
from repro.memory.mmu import Mmu
from repro.memory.paging import GuestPageTable
from repro.memory.physmem import PhysicalMemory
from repro.telemetry import Journal, Telemetry

#: Guest-physical frame backing the shared user-mode stub page.
_USER_STUB_GPA = 0x00090000
#: The user stub: a few filler instructions, ``int 0x80``, jump back.
_USER_STUB = bytes(
    [0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0xCD, 0x80, 0xE9]
) + (-13 & 0xFFFFFFFF).to_bytes(4, "little")

_KERNEL_TEXT_MAP = 0x00400000  # 4 MiB of text mapping
_KERNEL_DATA_BASE = 0xC1000000
_KERNEL_DATA_MAP = 0x00040000  # 256 KiB of introspectable data
_KERNEL_STACK_MAP = 0x00800000  # 8 MiB of kernel stacks
_MODULE_SPACE_MAP = 0x00400000  # 4 MiB of module heap


class Machine:
    """A booted guest VM plus its hypervisor.

    ``vcpu_count > 1`` boots an SMP guest (the paper's §V-C future work):
    each vCPU owns its own EPT, so FACE-CHANGE performs *per-vCPU* kernel
    view switching.

    The guest build comes from ``config`` (a :class:`GuestConfig`, a
    named variant string, an inline dict, or ``None`` for the default
    build).  ``platform`` and ``vcpu_count`` remain as overrides layered
    on top of the config, so existing callers keep working.
    """

    def __init__(
        self,
        platform: Optional[str] = None,
        vcpu_count: Optional[int] = None,
        config: Union[None, str, dict, GuestConfig] = None,
        jit: Optional[bool] = None,
    ) -> None:
        guest = resolve_guest(config)
        overrides: dict = {}
        if vcpu_count is not None and vcpu_count != guest.vcpus:
            overrides["vcpus"] = max(1, vcpu_count)
        if overrides:
            guest = replace(guest, name="", **overrides)
        if platform is not None and guest.runtime_platform() != platform:
            guest = guest.with_platform(platform)
        self.config = guest
        self.platform = guest.runtime_platform()
        self.vcpu_count = guest.vcpus
        self.physmem = PhysicalMemory()
        self.hypervisor = Hypervisor(self.physmem)
        self.epts: List[ExtendedPageTable] = [
            ExtendedPageTable() for _ in range(self.vcpu_count)
        ]
        self.names = NameRegistry()
        self.assembler = Assembler(self.names)
        self.image = KernelImage(self.physmem, self.assembler)
        self.kernel_page_table = GuestPageTable()
        self.runtime: Optional[KernelRuntime] = None
        self.vcpus: List[Vcpu] = []
        self.introspector: Optional[Introspector] = None
        self.jit_enabled = env_jit_enabled() if jit is None else bool(jit)
        self._boundary_finder: Optional["FunctionBoundaryFinder"] = None

    @property
    def ept(self) -> ExtendedPageTable:
        """CPU 0's EPT (the only one on a uniprocessor guest)."""
        return self.epts[0]

    @property
    def guest_digest(self) -> str:
        """Full config digest (machine identity, platform included)."""
        return self.config.digest()

    @property
    def build_digest(self) -> str:
        """Kernel-build digest (platform excluded; profiles pin to this)."""
        return self.config.build_digest()

    @property
    def boundary_finder(self) -> "FunctionBoundaryFinder":
        """The machine's function-boundary finder, whose prologue index
        every kernel view built on it shares (snapshot capture fills
        it, so forks inherit it)."""
        if self._boundary_finder is None:
            from repro.core.view_manager import FunctionBoundaryFinder

            self._boundary_finder = FunctionBoundaryFinder(self.physmem)
        return self._boundary_finder

    @property
    def telemetry(self) -> Telemetry:
        """The machine-wide telemetry registry (owned by the hypervisor)."""
        return self.hypervisor.telemetry

    def start_recording(
        self,
        path=None,
        capacity=None,
        keep=None,
        meta=None,
    ) -> "Journal":
        """Attach a forensic flight recorder: the record of guest events.

        With ``path``, spans and events stream to a JSONL journal
        file; without, they accumulate in memory (``capacity``-bounded
        with drop accounting) for segment streaming -- see
        :mod:`repro.telemetry.journal`.  Recording charges zero guest
        cycles either way.
        """
        journal = Journal(path=path, capacity=capacity, keep=keep, meta=meta)
        self.telemetry.attach_journal(journal)
        if meta and meta.get("trace"):
            # bind the request trace id for the recording window: root
            # spans get a ``trace`` attribute linking the guest span
            # forest to the daemon-side submission (attrs only; cycle
            # accounting is untouched)
            self.telemetry.spans.trace_id = str(meta["trace"])
        return journal

    def stop_recording(self) -> Optional["Journal"]:
        """Detach and close the flight recorder; returns it (if any)."""
        journal = self.telemetry.detach_journal()
        self.telemetry.spans.trace_id = None
        if journal is not None:
            journal.close()
        return journal

    @property
    def vcpu(self) -> Optional[Vcpu]:
        return self.vcpus[0] if self.vcpus else None

    def set_jit(self, enabled: bool) -> None:
        """Toggle block translation on every vCPU (see ``hypervisor.jit``).

        Safe at any point: disabling drops the translation caches, and
        re-enabling rebuilds them lazily from the hotness counters.
        Guest-visible state is bit-identical either way.
        """
        self.jit_enabled = bool(enabled)
        for vcpu in self.vcpus:
            vcpu.set_jit(self.jit_enabled)

    # -- boot -----------------------------------------------------------------

    def boot(self) -> "Machine":
        self.image.build_base(self.config.base_functions())
        for name, functions in self.config.module_functions():
            self.image.load_module(name, functions)
        self._map_kernel_regions()
        self._install_user_stub()
        self.runtime = KernelRuntime(
            self.image,
            self.names,
            self.kernel_page_table,
            platform=self.platform,
            num_cpus=self.vcpu_count,
            timer_period=self.config.timer_period,
            timeslice_ticks=self.config.timeslice_ticks,
        )
        self.hypervisor.set_idle_handler(self.runtime.on_idle)
        for cpu_id in range(self.vcpu_count):
            mmu = Mmu(self.physmem, self.epts[cpu_id])
            vcpu = Vcpu(cpu_id, mmu, self.runtime)
            self.vcpus.append(vcpu)
            self.hypervisor.attach_vcpu(vcpu, self.epts[cpu_id])
            self.runtime.attach_vcpu(vcpu)
            vcpu.set_jit(self.jit_enabled)
        self.runtime.set_active_vcpu(self.vcpus[0])
        self.introspector = Introspector(self.vcpus[0].mmu)
        return self

    def _map_linear(self, gva_start: int, length: int) -> None:
        for offset in range(0, length, PAGE_SIZE):
            gva = gva_start + offset
            self.kernel_page_table.map_page(gva, gva - KERNEL_BASE)

    def _map_kernel_regions(self) -> None:
        self._map_linear(KERNEL_TEXT_BASE, _KERNEL_TEXT_MAP)
        self._map_linear(_KERNEL_DATA_BASE, _KERNEL_DATA_MAP)
        self._map_linear(KERNEL_STACK_BASE, _KERNEL_STACK_MAP)
        self._map_linear(MODULE_SPACE_BASE, _MODULE_SPACE_MAP)

    def _install_user_stub(self) -> None:
        self.physmem.write(_USER_STUB_GPA, _USER_STUB)

    # -- snapshot / fork -------------------------------------------------------

    def flush_caches(self) -> None:
        """Drop every host-side cache holding direct frame references.

        Semantically invisible (they are caches); required before the
        machine's frames are re-based under a copy-on-write snapshot.
        """
        for vcpu in self.vcpus:
            vcpu.invalidate_translation_caches()
        self.hypervisor.decode_cache.flush()

    def snapshot(self) -> "MachineSnapshot":
        """Capture this booted machine for copy-on-write forking.

        Convenience wrapper over
        :meth:`repro.fleet.snapshot.MachineSnapshot.capture`; the machine
        must be pristine (booted, no user tasks, no FACE-CHANGE attached).
        """
        from repro.fleet.snapshot import MachineSnapshot

        return MachineSnapshot.capture(self)

    def close(self) -> None:
        """Break the back-references that make a finished machine cyclic.

        Drops the hypervisor's trap entries and its ``#UD`` and idle
        handlers, the runtime's module-load listeners and vCPU
        back-references, and the shared-frame store's owner lists, so a
        dropped machine -- and the FACE-CHANGE instance attached to it
        -- is freed by reference counting rather than waiting for the
        cyclic collector.  The machine cannot run afterwards.

        A sampler or probes installed from the environment
        (``REPRO_SAMPLE_INTERVAL``, ``REPRO_PROBE_FUNCS``) still form a
        few small cycles; those are left to the collector.
        """
        hv = self.hypervisor
        hv._trap_entries.clear()
        hv.set_invalid_opcode_handler(None)
        hv.set_idle_handler(None)
        if self.runtime is not None:
            self.runtime.module_load_listeners.clear()
            self.runtime.vcpus.clear()
            self.runtime.active_vcpu = None
        self.physmem.shared._owners.clear()

    # -- conveniences ------------------------------------------------------------

    @property
    def cycles(self) -> int:
        assert self.vcpu is not None
        return self.vcpu.cycles

    def spawn(
        self,
        comm: str,
        driver_factory: Callable[[], Generator[Any, Any, None]],
        cpu: Optional[int] = None,
    ) -> Task:
        assert self.runtime is not None
        return self.runtime.create_task(comm, driver_factory, cpu=cpu)

    def inject_packet(
        self,
        port: int,
        nbytes: int,
        delay: int = 0,
        kind: str = "dgram",
        conn_id: Optional[int] = None,
    ) -> None:
        """Queue an inbound packet ``delay`` cycles from now."""
        assert self.runtime is not None
        packet = Packet(
            port=port,
            nbytes=nbytes,
            arrival_cycles=self.cycles + delay,
            kind=kind,
        )
        if conn_id is not None:
            packet.conn_id = conn_id  # type: ignore[attr-defined]
        self.runtime.net.inject(packet)
        self.runtime.refresh_next_event()

    def inject_keystrokes(self, nchars: int, delay: int = 0) -> None:
        assert self.runtime is not None
        self.runtime.tty.inject_keystrokes(self.cycles + delay, nchars)
        self.runtime.refresh_next_event()

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        max_cycles: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
        step_budget: int = 200_000,
        max_steps: int = 100_000,
    ) -> None:
        """Run the guest until ``until()`` or the cycle bound is reached.

        On an SMP guest the vCPUs execute in interleaved time slices
        (round-robin, ``step_budget`` instructions each).
        """
        assert self.vcpus and self.runtime is not None
        budget = max(1000, step_budget // self.vcpu_count)
        for _ in range(max_steps):
            if until is not None and until():
                return
            if max_cycles is not None and self.vcpus[0].cycles >= max_cycles:
                return
            for vcpu in self.vcpus:
                self.runtime.set_active_vcpu(vcpu)
                self.hypervisor.run(vcpu, budget=budget)
            self.runtime.set_active_vcpu(self.vcpus[0])
        raise RuntimeError("machine run exceeded max_steps")

    def run_until_finished(self, tasks, max_cycles: int = 500_000_000) -> None:
        """Run until every task in ``tasks`` has exited."""
        self.run(
            max_cycles=max_cycles,
            until=lambda: all(t.finished for t in tasks),
        )


def boot_machine(
    platform: Optional[str] = None,
    vcpu_count: Optional[int] = None,
    config: Union[None, str, dict, GuestConfig] = None,
    jit: Optional[bool] = None,
) -> Machine:
    """Build and boot a guest VM from a guest config (optionally SMP)."""
    return Machine(
        platform=platform, vcpu_count=vcpu_count, config=config, jit=jit
    ).boot()
