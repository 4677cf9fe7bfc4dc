"""Virtual-cycle sampling profiler (hypervisor-side, guest-transparent).

The profiler installs a :data:`~repro.hypervisor.vcpu.CycleSampler`
callback on every vCPU.  The run loop invokes it at block boundaries
once the virtual clock crosses the due mark; the callback captures EIP
plus an ebp frame-chain backtrace (the same walk recovery's
``BACK_TRACE`` performs, §III-B3), resolves addresses against the
kernel catalog and the VMI-parsed module list, and accumulates folded
stacks per ``(comm, view, cpu)``.

Determinism contract: sampling *reads* vCPU state and guest memory and
charges **zero** cycles -- virtual-cycle scores are bit-identical with
the sampler on or off (the ``profiling`` scenario of
``benchmarks/gates.py`` gates this).  Due cycles are aligned to the interval grid
(``((cycles // interval) + 1) * interval``), so two runs of the same
deterministic workload sample at identical virtual instants and the
profile itself is reproducible.

Fleet transport: every sample is mirrored into telemetry labelled
counters (``profile.stacks``, ``profile.functions``) and the
``profile.samples`` counter, so :func:`repro.telemetry.merge.merge_snapshots`
aggregates per-worker profiles with no special cases, and
:meth:`SampleProfile.from_snapshot` rebuilds a profile from any solo or
fleet-merged snapshot.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.rangelist import BASE_KERNEL
from repro.memory.layout import is_kernel_address
from repro.memory.mmu import TranslationError
from repro.obs.profiling.flame import encode_folded, render_flame, top_table

#: Default sampling period in virtual cycles.
DEFAULT_SAMPLE_INTERVAL = 20_000

#: Cap on ebp-chain depth, mirroring recovery's MAX_BACKTRACE_DEPTH.
MAX_SAMPLE_DEPTH = 64

#: View index reported when no view provider is wired (full kernel).
NO_VIEW = -1

STACKS_COUNTER = "profile.stacks"
FUNCTIONS_COUNTER = "profile.functions"
SAMPLES_COUNTER = "profile.samples"

#: Label field separator (symbols are identifier-like; '\t' never occurs).
SEP = "\t"

#: Length of the guest-digest prefix carried in sample labels.
GUEST_PREFIX_LEN = 12


def split_stack_label(label: str) -> Tuple[str, str, str, str, str]:
    """``(guest, comm, view, cpu, folded)`` from a stacks label.

    New labels carry a leading guest-digest field; legacy labels (four
    fields) parse with ``guest == ""``.  Field counts are unambiguous
    because ``SEP`` never occurs inside a field.
    """
    parts = label.split(SEP)
    if len(parts) >= 5:
        return parts[0], parts[1], parts[2], parts[3], SEP.join(parts[4:])
    comm, view, cpu, folded = parts
    return "", comm, view, cpu, folded


def split_function_key(key: str) -> Tuple[str, str, str, str, str, str]:
    """``(guest, comm, segment, rel_start, rel_end, symbol)`` from a key."""
    parts = key.split(SEP)
    if len(parts) >= 6:
        return parts[0], parts[1], parts[2], parts[3], parts[4], parts[5]
    comm, segment, rel_start, rel_end, symbol = parts
    return "", comm, segment, rel_start, rel_end, symbol


class SampleProfile:
    """Accumulated samples, keyed the way the telemetry snapshot keys them.

    ``stacks`` maps ``guest\\tcomm\\tview\\tcpu\\tfolded`` to a sample
    count; ``functions`` maps
    ``guest\\tcomm\\tsegment\\trel_start\\trel_end\\tsymbol`` to the
    number of samples whose *leaf* frame fell inside that function while
    that application was current.  ``guest`` is the 12-hex guest-config
    digest prefix of the kernel variant the sample came from (legacy
    labels omit it), so merging fleet snapshots never folds samples from
    different kernel variants into one row.
    Both are plain count maps, so :meth:`merge` is associative and
    commutative -- merging per-worker profiles in any grouping equals
    one profile of the concatenated samples (property-tested).
    """

    def __init__(self) -> None:
        self.samples = 0
        self.stacks: Dict[str, int] = {}
        self.functions: Dict[str, int] = {}

    # -- accumulation --------------------------------------------------------

    def add_sample(
        self,
        comm: str,
        view: int,
        cpu: int,
        frames: List[str],
        function_key: Optional[str] = None,
        count: int = 1,
        guest: str = "",
    ) -> None:
        """Record one sample: root-first ``frames`` under (comm, view, cpu).

        ``guest`` (a guest-digest prefix) keys the sample to its kernel
        variant; omitted, the label takes the legacy unlabelled form.
        """
        label = f"{comm}{SEP}{view}{SEP}{cpu}{SEP}{encode_folded(frames)}"
        if guest:
            label = f"{guest}{SEP}{label}"
        self.stacks[label] = self.stacks.get(label, 0) + count
        if function_key is not None:
            self.functions[function_key] = (
                self.functions.get(function_key, 0) + count
            )
        self.samples += count

    def merge(self, other: "SampleProfile") -> "SampleProfile":
        """Fold ``other`` into this profile (in place; returns self)."""
        self.samples += other.samples
        for label, count in other.stacks.items():
            self.stacks[label] = self.stacks.get(label, 0) + count
        for key, count in other.functions.items():
            self.functions[key] = self.functions.get(key, 0) + count
        return self

    @classmethod
    def merged(cls, profiles: Iterable["SampleProfile"]) -> "SampleProfile":
        out = cls()
        for profile in profiles:
            out.merge(profile)
        return out

    # -- snapshot round-trip -------------------------------------------------

    @classmethod
    def from_snapshot(cls, snapshot: Dict) -> "SampleProfile":
        """Rebuild a profile from a telemetry snapshot (solo or merged)."""
        out = cls()
        labelled = snapshot.get("labelled_counters", {})
        out.stacks = dict(labelled.get(STACKS_COUNTER, {}))
        out.functions = dict(labelled.get(FUNCTIONS_COUNTER, {}))
        out.samples = snapshot.get("counters", {}).get(SAMPLES_COUNTER, 0)
        return out

    # -- views over the data -------------------------------------------------

    def folded(
        self,
        comm: Optional[str] = None,
        view: Optional[int] = None,
        guest: Optional[str] = None,
    ) -> Dict[str, int]:
        """Aggregate folded stacks, optionally filtered by comm/view/guest."""
        out: Dict[str, int] = {}
        for label, count in self.stacks.items():
            l_guest, l_comm, l_view, _cpu, folded = split_stack_label(label)
            if comm is not None and l_comm != comm:
                continue
            if view is not None and l_view != str(view):
                continue
            if guest is not None and l_guest != guest:
                continue
            out[folded] = out.get(folded, 0) + count
        return out

    def function_rows(
        self, comm: Optional[str] = None, guest: Optional[str] = None
    ) -> List[Tuple[str, str, int, int, int]]:
        """(symbol, segment, count, rel_start, rel_end), hottest first.

        Aggregates over applications unless ``comm`` filters to one, and
        over guest variants unless ``guest`` filters to one -- pass it
        when the profile mixes kernel variants, since segment-relative
        ranges are only comparable within one build.
        """
        merged: Dict[Tuple[str, str, int, int], int] = {}
        for key, count in self.functions.items():
            l_guest, l_comm, segment, rel_start, rel_end, symbol = (
                split_function_key(key)
            )
            if comm is not None and l_comm != comm:
                continue
            if guest is not None and l_guest != guest:
                continue
            mkey = (symbol, segment, int(rel_start), int(rel_end))
            merged[mkey] = merged.get(mkey, 0) + count
        rows = [
            (symbol, segment, count, rel_start, rel_end)
            for (symbol, segment, rel_start, rel_end), count in merged.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows

    def comms(self) -> List[str]:
        return sorted(
            {split_stack_label(label)[1] for label in self.stacks}
        )

    def guests(self) -> List[str]:
        """Guest-digest prefixes present in the profile ("" = legacy)."""
        return sorted(
            {split_stack_label(label)[0] for label in self.stacks}
        )

    # -- rendering -----------------------------------------------------------

    def render_flame(
        self, comm: Optional[str] = None, width: int = 40
    ) -> str:
        return render_flame(self.folded(comm=comm), width=width)

    def render_top(self, limit: int = 10) -> str:
        rows = [(sym, seg, count) for sym, seg, count, _, _ in
                self.function_rows()]
        return top_table(rows, limit=limit)


class SamplingProfiler:
    """Drives the vCPU sampler hooks for one machine.

    Parameters
    ----------
    machine:
        A booted machine.
    interval:
        Sampling period in virtual cycles.
    view_provider:
        Optional ``cpu -> view index`` callable (wired to FACE-CHANGE's
        switcher when attached); defaults to :data:`NO_VIEW`.
    """

    def __init__(
        self,
        machine,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        view_provider=None,
    ) -> None:
        if machine.runtime is None:
            raise ValueError("machine must be booted before profiling")
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.machine = machine
        self.interval = interval
        self.view_provider = view_provider
        #: guest-config digest prefix stamped on every sample label
        self.guest = machine.guest_digest[:GUEST_PREFIX_LEN]
        self.profile = SampleProfile()
        self._module_ranges: List[Tuple[int, int, str]] = []
        self._installed = False
        self._refresh_module_ranges(None)

    # -- lifecycle -----------------------------------------------------------

    def install(self) -> None:
        """Attach the sampler callback to every vCPU."""
        if self._installed:
            return
        for vcpu in self.machine.hypervisor.vcpus:
            vcpu.cycle_sampler = self._on_sample
            vcpu._sample_due = self._next_due(vcpu.cycles)
        self.machine.runtime.module_load_listeners.append(
            self._refresh_module_ranges
        )
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        for vcpu in self.machine.hypervisor.vcpus:
            if vcpu.cycle_sampler is self._on_sample:
                vcpu.cycle_sampler = None
        listeners = self.machine.runtime.module_load_listeners
        if self._refresh_module_ranges in listeners:
            listeners.remove(self._refresh_module_ranges)
        self._installed = False

    # -- classification ------------------------------------------------------

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
        """Absolute kernel address -> (segment, segment-relative offset)."""
        for begin, end, name in self._module_ranges:
            if begin <= addr < end:
                return name, addr - begin
        return BASE_KERNEL, addr

    def _frame_name(self, addr: int) -> str:
        symbol = self.machine.image.symbol_at(addr)
        if symbol is None:
            return "UNKNOWN"
        if symbol.module is not None:
            module = self.machine.image.modules.get(symbol.module)
            if module is not None and module.hidden:
                return "UNKNOWN"
        return symbol.name

    def _function_key(self, addr: int, comm: str) -> Optional[str]:
        symbol = self.machine.image.symbol_at(addr)
        if symbol is None:
            return None
        segment, rel = self._classify(symbol.address)
        return (
            f"{self.guest}{SEP}{comm}{SEP}{segment}{SEP}{rel}{SEP}"
            f"{rel + symbol.size}{SEP}{self._frame_name(addr)}"
        )

    # -- the hook ------------------------------------------------------------

    def _next_due(self, cycles: int) -> int:
        return ((cycles // self.interval) + 1) * self.interval

    def _backtrace(self, vcpu) -> List[str]:
        """Leaf-to-root ebp walk; read-only, same shape as BACK_TRACE."""
        frames: List[str] = []
        iter_rbp = vcpu.ebp
        for _ in range(MAX_SAMPLE_DEPTH):
            if iter_rbp == 0 or not is_kernel_address(iter_rbp):
                break
            try:
                words = vcpu.mmu.read(iter_rbp, 8)
            except TranslationError:
                break
            prev_rbp = int.from_bytes(words[0:4], "little")
            prev_rip = int.from_bytes(words[4:8], "little")
            if prev_rip == 0 or not is_kernel_address(prev_rip):
                break
            frames.append(self._frame_name(prev_rip))
            iter_rbp = prev_rbp
        return frames

    def _on_sample(self, vcpu) -> int:
        eip = vcpu.eip
        if is_kernel_address(eip):
            leaf = self._frame_name(eip)
            frames = [leaf] + self._backtrace(vcpu)
            frames.reverse()  # folded stacks are root-first
            cpu = vcpu.cpu_id
            introspector = self.machine.introspector
            comm = (
                introspector.read_current_process(cpu).comm
                if introspector is not None
                else "?"
            )
            view = (
                self.view_provider(cpu)
                if self.view_provider is not None
                else NO_VIEW
            )
            key = self._function_key(eip, comm)
            self.profile.add_sample(
                comm, view, cpu, frames, key, guest=self.guest
            )
            telemetry = self.machine.telemetry
            telemetry.counter(SAMPLES_COUNTER).inc()
            stack_label = (
                f"{self.guest}{SEP}{comm}{SEP}{view}{SEP}{cpu}{SEP}"
                f"{encode_folded(frames)}"
            )
            telemetry.labelled_counter(STACKS_COUNTER).inc(stack_label)
            if key is not None:
                telemetry.labelled_counter(FUNCTIONS_COUNTER).inc(key)
        return self._next_due(vcpu.cycles)
