"""The virtual CPU: fetch/decode/execute with a decoded-block cache.

Execution is byte-accurate: every instruction is fetched through the
guest page table and the EPT, so swapping EPT entries (kernel view
switching) or writing recovered code into a view frame takes effect on
the very next fetch.  Blocks are decoded once per (host frame, frame
version, offset) and cached, mirroring how QEMU's translation-block
cache works -- and mirroring why the paper's profiler operates at basic
block granularity.

Data-dependent control flow (predicate evaluation, dispatch-slot
resolution, semantic actions, the architectural context-switch point and
interrupt entry/exit) is delegated to a :class:`SemanticsBridge`
implemented by the guest kernel runtime.  On real hardware these are
ordinary register/memory-driven branches; the bridge is the simulation
seam that keeps the byte-level machinery honest while the OS logic lives
in Python.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.isa.decoder import decode
from repro.isa.opcodes import Instr, Op
from repro.memory.layout import PAGE_SIZE, is_kernel_address
from repro.memory.mmu import Mmu, TranslationError
from repro.hypervisor import jit as jit_module
from repro.hypervisor.jit import BAIL as _JIT_BAIL
from repro.hypervisor.jit import STALE as _JIT_STALE
from repro.hypervisor.jit import JitState, intern_page
from repro.hypervisor.vmexit import VmExit, VmExitReason
from repro.telemetry import Counter, Telemetry

#: Hard cap on instructions decoded into a single block.  Filler runs are
#: fused into a single step at decode time, so a large cap keeps big
#: synthetic function bodies cheap to execute.
_MAX_BLOCK_INSNS = 4096
#: Process-wide ``(page bytes, offset, limit) -> block`` memo.  The
#: per-machine decode cache fronts this for the interpreter, and the
#: translator decodes through it directly, so identical guest builds
#: (benchmark reboots, fleet workers) share one decode of every page.
#: Blocks are treated as immutable everywhere (the per-machine cache
#: already shares them between vCPUs).  Keys hold interned page bytes
#: (``jit.intern_page``), one copy per distinct page.
_block_memo: Dict[tuple, "_Block"] = {}
_MAX_BLOCK_MEMO = 8192
#: Ops that terminate a decoded block (control transfer or host interaction).
_BLOCK_TERMINATORS = frozenset(
    {
        Op.CALL,
        Op.JMP,
        Op.JZ,
        Op.DISPATCH,
        Op.RET,
        Op.IRET,
        Op.INT,
        Op.UD2,
        Op.INVALID,
        Op.HLT,
        Op.CTXSW,
    }
)


class VcpuError(Exception):
    """Internal inconsistency (bad bridge wiring, broken guest image)."""


class SemanticsBridge:
    """Interface the guest kernel runtime provides to the VCPU.

    The default implementations raise, so a partially wired machine fails
    loudly instead of silently misbehaving.
    """

    def eval_pred(self, pred_id: int) -> bool:
        raise VcpuError(f"unhandled predicate {pred_id}")

    def do_act(self, act_id: int) -> None:
        raise VcpuError(f"unhandled action {act_id}")

    def resolve_slot(self, slot_id: int) -> int:
        raise VcpuError(f"unhandled dispatch slot {slot_id}")

    def on_ctxsw(self, vcpu: "Vcpu") -> None:
        raise VcpuError("unhandled context switch")

    def on_software_interrupt(self, vcpu: "Vcpu", vector: int) -> None:
        raise VcpuError(f"unhandled software interrupt {vector:#x}")

    def on_iret(self, vcpu: "Vcpu") -> None:
        raise VcpuError("unhandled iret")

    def interrupt_pending(self, vcpu: "Vcpu") -> bool:
        return False

    def deliver_interrupt(self, vcpu: "Vcpu") -> None:
        raise VcpuError("unhandled interrupt delivery")


#: A decoded block: the non-terminal steps plus the terminator.
#: Steps are ("fill", n_insns, n_bytes) fusions or plain Instr objects.
_Block = Tuple[List[object], Optional[Instr], int]


class DecodeCache:
    """Machine-level decoded-block cache shared by all vCPUs.

    Blocks are keyed ``(hpfn, frame version, offset, trap limit)`` --
    host-frame based, so SMP vCPUs running the same application (or two
    views sharing the canonical UD2 frame) reuse each other's decodes.
    Cross-page instructions are cached too, keyed by both pages'
    ``(hpfn, version)``.

    Eviction is segmented LRU: entries are inserted into (or promoted
    to) the ``hot`` dict; when ``hot`` reaches capacity it is demoted
    wholesale to ``cold`` and the previous cold generation -- everything
    not touched for a full generation -- is dropped.  Total residency is
    bounded by ``2 * capacity`` entries.
    """

    __slots__ = ("hot", "cold", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 32768) -> None:
        self.hot: Dict[tuple, object] = {}
        self.cold: Dict[tuple, object] = {}
        self.capacity = max(2, capacity)
        self.hits = Counter("decode.hits")
        self.misses = Counter("decode.misses")
        self.evictions = Counter("decode.evictions")

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        for attr in ("hits", "misses", "evictions"):
            standalone = getattr(self, attr)
            registered = telemetry.counter(standalone.name)
            if registered is not standalone:
                registered.value += standalone.value
                setattr(self, attr, registered)

    def lookup(self, key: tuple):
        block = self.hot.get(key)
        if block is None:
            cold = self.cold
            block = cold.get(key)
            if block is None:
                self.misses.value += 1
                return None
            del cold[key]
            self.hot[key] = block
        self.hits.value += 1
        return block

    def insert(self, key: tuple, block: object) -> None:
        hot = self.hot
        if len(hot) >= self.capacity:
            self.evictions.value += len(self.cold)
            self.cold = hot
            self.hot = hot = {}
        hot[key] = block

    def flush(self) -> None:
        self.hot.clear()
        self.cold.clear()

#: Optional per-block execution tracer: (start_gva, end_gva) of the block
#: about to execute.  Used by the profiling-phase component.
BlockTracer = Callable[[int, int], None]

#: Optional virtual-cycle sampler, checked at block boundaries once the
#: virtual clock reaches the due cycle; returns the next due cycle.  The
#: callback only *reads* vCPU state -- it must never advance the clock,
#: arm traps or touch guest memory through writing paths, so execution
#: is bit-identical with or without it (the sampling-profiler contract).
CycleSampler = Callable[["Vcpu"], int]

#: ``_sample_due`` sentinel while no sampler is installed: a cycle count
#: the virtual clock can never reach, so the run loop's due check stays
#: a single integer comparison in the common (unprofiled) case.
_NEVER_DUE = 1 << 63


class Vcpu:
    """A single virtual CPU."""

    def __init__(self, cpu_id: int, mmu: Mmu, bridge: SemanticsBridge) -> None:
        self.cpu_id = cpu_id
        self.mmu = mmu
        self.bridge = bridge
        # architectural state
        self.eip = 0
        self.esp = 0
        self.ebp = 0
        self.eax = 0
        self.zf = False
        self.if_enabled = True
        self.user_mode = True
        # accounting
        self.cycles = 0
        self.instructions = 0
        #: telemetry registry, bound when the hypervisor attaches us
        self.telemetry: Optional[Telemetry] = None
        #: count of silently executed ``0b 0f`` misdecodes -- the corruption
        #: instant recovery exists to prevent; observable only by tests.
        #: A standalone counter until :meth:`attach_telemetry` rebinds it
        #: to the machine-wide registry.
        self.misdecodes = Counter(f"vcpu.misdecode.cpu{cpu_id}")
        self._stack_hits = Counter("vcpu.stack.hits")
        self._stack_misses = Counter("vcpu.stack.misses")
        self._stack_evictions = Counter("vcpu.stack.evictions")
        # hypervisor wiring
        self.trap_addresses: Set[int] = set()
        self._sorted_traps: List[int] = []
        #: bumped on every trap arm/disarm; translated page tables pin
        #: the epoch they were built under (fused successors are proven
        #: trap-free at build time, valid only while the set is stable)
        self._trap_epoch = 0
        self._skip_trap_once: Optional[int] = None
        self.block_tracer: Optional[BlockTracer] = None
        #: virtual-cycle sampler hook; ``None`` until a profiler installs
        #: one.  Fired at block boundaries once ``cycles`` crosses the
        #: due mark; the callback returns the next due cycle count.
        self._cycle_sampler: Optional[CycleSampler] = None
        self._sample_due = _NEVER_DUE
        #: the bridge's per-CPU interrupt source (set by the kernel
        #: runtime at attach); lets hot paths read ``next_event``
        #: directly instead of calling ``bridge.interrupt_pending``
        self.irq_state = None
        # decoded-block cache: private until the hypervisor swaps in the
        # machine-level shared cache via use_block_cache()
        self.block_cache = DecodeCache()
        # one-entry stack page cache:
        # (vfn, cr3, pt_gen, epoch cell, epoch, frame)
        self._stack_cache = None
        # one-entry code page cache, same shape plus (hpfn, frame)
        self._code_cache = None
        self._frame_versions = mmu.physmem._versions
        #: block-translation state; ``None`` runs the pure interpreter
        #: (the default for directly constructed vCPUs -- machines wire
        #: it through ``Machine.set_jit`` / the ``REPRO_JIT`` env var)
        self._jit: Optional[JitState] = None

    # -- register/stack helpers ----------------------------------------------
    #
    # push/pop are the hottest memory operations (every call/ret/frame).
    # They use a one-entry stack-page cache, invalidated by generation
    # checks, and fall back to the full MMU path on page misses/crossings.

    def _stack_frame(self, addr: int):
        mmu = self.mmu
        vfn = addr >> 12
        cache = self._stack_cache
        if (
            cache is not None
            and cache[0] == vfn
            and cache[1] is mmu.cr3
            and cache[2] == mmu.cr3.generation
            and cache[3][0] == cache[4]
        ):
            self._stack_hits.value += 1
            return cache[5]
        if cache is not None:
            self._stack_evictions.value += 1
        self._stack_misses.value += 1
        entry = mmu.resolve_entry(addr)
        # validated against the *scoped* EPT epoch of the stack page's
        # level-2 table: kernel-view switches (which remap only the
        # kernel-code range) no longer thrash this cache
        self._stack_cache = (
            vfn, mmu.cr3, mmu.cr3.generation, entry[2], entry[3], entry[1],
        )
        return entry[1]

    def push(self, value: int) -> None:
        esp = (self.esp - 4) & 0xFFFFFFFF
        self.esp = esp
        offset = esp & 0xFFF
        if offset <= 0xFFC:
            frame = self._stack_frame(esp)
            value &= 0xFFFFFFFF
            frame[offset] = value & 0xFF
            frame[offset + 1] = (value >> 8) & 0xFF
            frame[offset + 2] = (value >> 16) & 0xFF
            frame[offset + 3] = (value >> 24) & 0xFF
        else:
            self.mmu.write_u32(esp, value)

    def pop(self) -> int:
        esp = self.esp
        self.esp = (esp + 4) & 0xFFFFFFFF
        offset = esp & 0xFFF
        if offset <= 0xFFC:
            frame = self._stack_frame(esp)
            return (
                frame[offset]
                | (frame[offset + 1] << 8)
                | (frame[offset + 2] << 16)
                | (frame[offset + 3] << 24)
            )
        return self.mmu.read_u32(esp)

    def read_stack_u32(self, addr: int) -> int:
        """Aligned stack read used by the hypervisor's backtracer."""
        return self.mmu.read_u32(addr)

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Rebind this vCPU's instruments to the machine-wide registry."""
        registered = telemetry.counter(self.misdecodes.name)
        registered.value += self.misdecodes.value
        self.misdecodes = registered
        for attr in ("_stack_hits", "_stack_misses", "_stack_evictions"):
            standalone = getattr(self, attr)
            shared = telemetry.counter(standalone.name)
            if shared is not standalone:
                shared.value += standalone.value
                setattr(self, attr, shared)
        self.mmu.attach_telemetry(telemetry)
        if self._jit is not None:
            self._jit.attach_telemetry(telemetry)
        self.telemetry = telemetry

    def use_block_cache(self, cache: DecodeCache) -> None:
        """Adopt the machine-level shared decode cache."""
        self.block_cache = cache
        self._code_cache = None
        if self._jit is not None:
            self._jit.code_pages.clear()

    def set_jit(self, enabled: bool) -> None:
        """Enable or disable block translation for this vCPU.

        Enabling installs a fresh :class:`JitState`; disabling drops it
        (translations rebuild from scratch on re-enable).  Either way
        execution semantics are bit-identical -- only wall-clock speed
        and the ``jit.*`` counters change.
        """
        if enabled:
            if self._jit is None:
                self._jit = JitState()
                if self.telemetry is not None:
                    self._jit.attach_telemetry(self.telemetry)
        else:
            self._jit = None

    @property
    def jit_enabled(self) -> bool:
        return self._jit is not None

    @property
    def corruption_executed(self) -> int:
        """Legacy name for the silent-misdecode tally."""
        return self.misdecodes.value

    def snapshot_exit(self, reason: VmExitReason, detail: str = None) -> VmExit:
        return VmExit(
            reason=reason, rip=self.eip, rbp=self.ebp, rsp=self.esp, detail=detail
        )

    @property
    def cycle_sampler(self) -> Optional[CycleSampler]:
        return self._cycle_sampler

    @cycle_sampler.setter
    def cycle_sampler(self, sampler: Optional[CycleSampler]) -> None:
        """Installing a sampler arms the due check; removing it parks the
        due mark at a cycle count the clock can never reach."""
        self._cycle_sampler = sampler
        self._sample_due = 0 if sampler is not None else _NEVER_DUE

    def arm_trap(self, address: int) -> None:
        """Register a fetch trap at ``address`` (hypervisor interception)."""
        if address not in self.trap_addresses:
            self.trap_addresses.add(address)
            insort(self._sorted_traps, address)
            self._trap_epoch += 1

    def disarm_trap(self, address: int) -> None:
        if address in self.trap_addresses:
            self.trap_addresses.discard(address)
            self._sorted_traps.remove(address)
            self._trap_epoch += 1

    def resume_past_trap(self) -> None:
        """Resume after an ADDRESS_TRAP without immediately re-trapping."""
        self._skip_trap_once = self.eip

    def _page_trap_sig(self, vfn: int) -> Tuple[int, ...]:
        """Armed trap addresses that shape translations of page ``vfn``.

        Covers ``[page, page + 2*PAGE_SIZE)``: a trap up to one page
        *beyond* still truncates blocks near the page end (the decode
        limit looks ahead ``PAGE_SIZE`` bytes), and fused-successor
        decisions only concern targets inside the page itself.
        """
        traps = self._sorted_traps
        if not traps:
            return ()
        base = vfn << 12
        lo = bisect_left(traps, base)
        hi = bisect_left(traps, base + 2 * PAGE_SIZE)
        return tuple(traps[lo:hi])

    def invalidate_translation_caches(self) -> None:
        """Drop the stack/code page caches, the MMU's TLB and the
        translated page tables.

        Host-side administrative flush (snapshot capture/fork): these
        caches hold direct frame bytearray references that must not
        survive a CoW re-basing of physical memory.  Translated members
        hold no frame references (only constants), but their tables'
        ``(hpfn, version)`` keys are meaningless across a re-based
        physical memory, so the tables are dropped too; forks refill
        them from the process-wide translation cache.
        """
        self._stack_cache = None
        self._code_cache = None
        self.mmu.invalidate_cache()
        if self._jit is not None:
            self._jit.flush()

    # -- block decode ----------------------------------------------------------

    def _decode_block(
        self, frame: bytearray, offset: int, limit: Optional[int] = None
    ) -> _Block:
        data = intern_page(frame)
        mkey = (data, offset, limit)
        memo = _block_memo.get(mkey)
        if memo is not None:
            return memo
        steps: List[object] = []
        terminator: Optional[Instr] = None
        pos = offset
        fill_insns = 0
        fill_bytes = 0
        count = 0
        stop_at = PAGE_SIZE if limit is None else min(PAGE_SIZE, offset + limit)
        while count < _MAX_BLOCK_INSNS:
            if pos >= stop_at:
                break
            if pos + 8 > PAGE_SIZE:
                # Near the page end a truncated buffer cannot be decoded
                # reliably (an instruction may span pages, as the paper
                # notes for split kernel functions); leave the tail to the
                # cross-page slow path.
                break
            instr = decode(data, pos)
            if instr.op is Op.FILL:
                ln = instr.length
                fill_insns += 1
                fill_bytes += ln
                pos += ln
                count += 1
                # Filler decodes depend only on the instruction's own
                # bytes, so a run of identical encodings (the common
                # shape of synthesized function bodies) can be consumed
                # without re-decoding; the run re-checks every loop-head
                # bound, and any differing bytes fall back to decode().
                if ln == 1:
                    b = data[pos - 1]
                    while (
                        count < _MAX_BLOCK_INSNS
                        and pos < stop_at
                        and pos + 8 <= PAGE_SIZE
                        and data[pos] == b
                    ):
                        fill_insns += 1
                        fill_bytes += 1
                        pos += 1
                        count += 1
                else:
                    enc = data[pos - ln:pos]
                    while (
                        count < _MAX_BLOCK_INSNS
                        and pos < stop_at
                        and pos + 8 <= PAGE_SIZE
                        and data[pos:pos + ln] == enc
                    ):
                        fill_insns += 1
                        fill_bytes += ln
                        pos += ln
                        count += 1
                continue
            if fill_insns:
                steps.append(("fill", fill_insns, fill_bytes))
                fill_insns = 0
                fill_bytes = 0
            if instr.op in _BLOCK_TERMINATORS:
                terminator = instr
                pos += instr.length
                break
            steps.append(instr)
            pos += instr.length
            count += 1
        if fill_insns:
            steps.append(("fill", fill_insns, fill_bytes))
        # block_len covers the terminator too, so tracers see the full
        # basic-block byte range; terminator execution advances eip itself.
        block_len = pos - offset
        block = (steps, terminator, block_len)
        if len(_block_memo) > _MAX_BLOCK_MEMO:
            _block_memo.clear()
        _block_memo[mkey] = block
        return block

    def _fetch_block(self) -> Tuple[_Block, bool]:
        """Return (block, is_kernel) for the current ``eip``."""
        eip = self.eip
        mmu = self.mmu
        vfn = eip >> 12
        cache = self._code_cache
        if (
            cache is not None
            and cache[0] == vfn
            and cache[1] is mmu.cr3
            and cache[2] == mmu.cr3.generation
            and cache[3][0] == cache[4]
        ):
            hpfn = cache[5]
            frame = cache[6]
        else:
            entry = mmu.resolve_entry(eip)
            hpfn = entry[0]
            frame = entry[1]
            self._code_cache = (
                vfn, mmu.cr3, mmu.cr3.generation, entry[2], entry[3],
                hpfn, frame,
            )
        version = self._frame_versions.get(hpfn, 0)
        offset = eip & (PAGE_SIZE - 1)
        # A block must end *before* any armed trap address so the trap
        # check at the next block boundary can fire mid-stream (the same
        # reason QEMU splits translation blocks at breakpoints).
        limit = None
        traps = self._sorted_traps
        if traps:
            i = bisect_right(traps, eip)
            if i < len(traps):
                distance = traps[i] - eip
                if distance < PAGE_SIZE:
                    limit = distance
        key = (hpfn, version, offset, limit)
        # inlined DecodeCache.lookup/insert -- this is the hottest path
        shared = self.block_cache
        block = shared.hot.get(key)
        if block is None:
            cold = shared.cold
            block = cold.get(key)
            if block is not None:
                del cold[key]
                shared.hot[key] = block
                shared.hits.value += 1
            else:
                shared.misses.value += 1
                block = self._decode_block(frame, offset, limit)
                shared.insert(key, block)
        else:
            shared.hits.value += 1
        return block, is_kernel_address(eip)

    def _fetch_cross_page(self) -> Instr:
        """Slow path: decode one instruction that may span two pages.

        Cached keyed by both pages' ``(hpfn, version)`` -- the key shape
        (5-tuple) cannot collide with block keys (4-tuples).
        """
        eip = self.eip
        mmu = self.mmu
        offset = eip & (PAGE_SIZE - 1)
        first = PAGE_SIZE - offset
        if first >= 8:
            # Eight bytes available on the first page: every encoding
            # fits, so decode straight from a linear read (no second
            # page to validate; not cached -- block decode covers these
            # offsets on the normal path).
            return decode(mmu.read(eip, 8), 0)
        entry1 = mmu.resolve_entry(eip)
        entry2 = mmu.resolve_entry((eip + first) & 0xFFFFFFFF)
        versions = self._frame_versions
        key = (
            entry1[0], versions.get(entry1[0], 0),
            offset,
            entry2[0], versions.get(entry2[0], 0),
        )
        shared = self.block_cache
        instr = shared.lookup(key)
        if instr is None:
            raw = bytes(entry1[1][offset:]) + bytes(entry2[1][: 8 - first])
            instr = decode(raw, 0)
            shared.insert(key, instr)
        return instr

    # -- execution --------------------------------------------------------------

    def run(self, budget: int = 1_000_000) -> VmExit:
        """Execute until a VM exit occurs or ``budget`` instructions run.

        The budget counts *retired instructions* (``self.instructions``),
        the same quantity the hypervisor's exit loop uses when it resumes
        a slice after an exit.  Counting anything else (blocks, decoded
        steps) would make the accounting restart from a different total
        after an exit, so a zero-cost exit -- an observer probe trap --
        would shift every later slice boundary and break bit-identity.
        """
        if self._jit is not None:
            return self._run_jit(budget)
        start = self.instructions
        while self.instructions - start < budget:
            # statistical sampler, checked at block boundaries; reads
            # state only and charges nothing, so the virtual clock is
            # bit-identical with or without it (due mark is _NEVER_DUE
            # while no sampler is installed)
            if self.cycles >= self._sample_due:
                self._sample_due = self._cycle_sampler(self)
            # interrupt window, checked at block boundaries
            if self.if_enabled and self.bridge.interrupt_pending(self):
                self.bridge.deliver_interrupt(self)
            if self.eip in self.trap_addresses:
                if self._skip_trap_once == self.eip:
                    self._skip_trap_once = None
                else:
                    return self.snapshot_exit(VmExitReason.ADDRESS_TRAP)
            else:
                self._skip_trap_once = None
            try:
                block, _in_kernel = self._fetch_block()
            except TranslationError as exc:
                return self.snapshot_exit(VmExitReason.ERROR, detail=str(exc))
            steps, terminator, block_len = block
            if self.block_tracer is not None:
                self.block_tracer(self.eip, self.eip + block_len)
            try:
                exit_ = self._execute_block(steps, terminator, block_len)
            except TranslationError as exc:
                return self.snapshot_exit(VmExitReason.ERROR, detail=str(exc))
            if exit_ is not None:
                return exit_
        return self.snapshot_exit(VmExitReason.BUDGET)

    def _run_jit(self, budget: int) -> VmExit:
        """The translated run loop (see :mod:`repro.hypervisor.jit`).

        The outer iteration replicates :meth:`run`'s boundary checks in
        the same order (budget, sampler due-mark, interrupt window,
        trap), then resolves the code page and dispatches a translated
        member if the page is hot, falling back to one interpreted block
        otherwise.  The inner loop chains members of the same page
        ("superblock executor"), re-checking the boundary conditions
        between members; cold blocks count heat toward promotion.
        """
        jit = self._jit
        stop = self.instructions + budget
        mmu = self.mmu
        bridge = self.bridge
        traps = self.trap_addresses
        versions = self._frame_versions
        tables = jit.tables
        heat = jit.heat
        code_pages = jit.code_pages
        promoted = jit_module.PROMOTED
        irq = self.irq_state
        while self.instructions < stop:
            if self.cycles >= self._sample_due:
                self._sample_due = self._cycle_sampler(self)
            if self.if_enabled and (
                self.cycles >= irq.next_event
                if irq is not None
                else bridge.interrupt_pending(self)
            ):
                bridge.deliver_interrupt(self)
            eip = self.eip
            if eip in traps:
                if self._skip_trap_once == eip:
                    self._skip_trap_once = None
                else:
                    return self.snapshot_exit(VmExitReason.ADDRESS_TRAP)
            else:
                self._skip_trap_once = None
            # resolve the code page; validated like _fetch_block's
            # one-entry cache but per-vfn, because translated execution
            # ping-pongs between the user stub page and kernel handler
            # pages every interrupt/syscall
            vfn = eip >> 12
            ckey = (id(mmu.cr3), vfn)
            cache = code_pages.get(ckey)
            if (
                cache is not None
                and cache[0] is mmu.cr3
                and cache[1] == mmu.cr3.generation
                and cache[2][0] == cache[3]
            ):
                hpfn = cache[4]
                frame = cache[5]
            else:
                try:
                    entry = mmu.resolve_entry(eip)
                except TranslationError as exc:
                    return self.snapshot_exit(VmExitReason.ERROR, detail=str(exc))
                hpfn = entry[0]
                frame = entry[1]
                if len(code_pages) > 2048:
                    code_pages.clear()
                code_pages[ckey] = (
                    mmu.cr3, mmu.cr3.generation, entry[2], entry[3],
                    hpfn, frame,
                )
            version = versions.get(hpfn, 0)
            key = (hpfn, version)
            group = tables.get(key)
            fn = None
            members = None
            if group is not None:
                table = group.active
                if table.epoch != self._trap_epoch or table.vfn != vfn:
                    table = jit.revalidate(self, group, vfn)
                members = table.members
                fn = members.get(eip & 0xFFF)
                if fn is None and len(members) < jit.max_members:
                    fn = jit.translate(self, eip, table)
            else:
                n = heat.get(key, 0) + 1
                if n >= jit.threshold or key in promoted:
                    table = jit.promote(self, frame, hpfn, version, vfn)
                    members = table.members
                    fn = jit.translate(self, eip, table)
                else:
                    if len(heat) > 8192:
                        heat.clear()
                    heat[key] = n
            if fn is not None:
                # superblock executor: chain members of this page until
                # a boundary condition or a non-member target
                r = None
                try:
                    while True:
                        r = fn(self, stop)
                        if r is not None:
                            break
                        if (
                            self.instructions >= stop
                            or self.cycles >= self._sample_due
                            or (
                                self.if_enabled
                                and (
                                    self.cycles >= irq.next_event
                                    if irq is not None
                                    else bridge.interrupt_pending(self)
                                )
                            )
                        ):
                            break
                        nip = self.eip
                        if nip in traps:
                            break
                        nvfn = nip >> 12
                        if nvfn != vfn:
                            # cross-page chain: swap to the target
                            # page's table without re-running the
                            # boundary checks (they just ran above);
                            # any cache/table miss defers to the
                            # outer loop's slow path
                            cr3 = mmu.cr3
                            c2 = code_pages.get((id(cr3), nvfn))
                            if (
                                c2 is None
                                or c2[0] is not cr3
                                or c2[1] != cr3.generation
                                or c2[2][0] != c2[3]
                            ):
                                break
                            nhpfn = c2[4]
                            nversion = versions.get(nhpfn, 0)
                            ngroup = tables.get((nhpfn, nversion))
                            if ngroup is None:
                                break
                            ntable = ngroup.active
                            if (
                                ntable.epoch != self._trap_epoch
                                or ntable.vfn != nvfn
                            ):
                                break
                            vfn = nvfn
                            table = ntable
                            members = ntable.members
                        fn = members.get(nip & 0xFFF)
                        if fn is None:
                            if len(members) < jit.max_members:
                                fn = jit.translate(self, nip, table)
                            if fn is None:
                                break
                except TranslationError as exc:
                    return self.snapshot_exit(VmExitReason.ERROR, detail=str(exc))
                if r is _JIT_STALE:
                    # stale cross-page guard: the member made no
                    # progress; drop it and interpret this block (the
                    # boundary checks for it already ran)
                    members.pop(self.eip & 0xFFF, None)
                    jit.invalidations.inc("cross-page")
                elif r is None or r is _JIT_BAIL:
                    continue
                else:
                    return r
            # interpreted fallback: cold page, untranslatable entry, or
            # a dropped stale member -- one block, exactly as run() does
            try:
                block, _in_kernel = self._fetch_block()
            except TranslationError as exc:
                return self.snapshot_exit(VmExitReason.ERROR, detail=str(exc))
            steps, terminator, block_len = block
            if self.block_tracer is not None:
                self.block_tracer(self.eip, self.eip + block_len)
            try:
                exit_ = self._execute_block(steps, terminator, block_len)
            except TranslationError as exc:
                return self.snapshot_exit(VmExitReason.ERROR, detail=str(exc))
            if exit_ is not None:
                return exit_
        return self.snapshot_exit(VmExitReason.BUDGET)

    def _execute_block(
        self, steps: List[object], terminator: Optional[Instr], block_len: int
    ) -> Optional[VmExit]:
        for step in steps:
            if isinstance(step, tuple):
                _, n_insns, n_bytes = step
                self.eip = (self.eip + n_bytes) & 0xFFFFFFFF
                self.cycles += n_insns
                self.instructions += n_insns
                continue
            self._execute_simple(step)
        if terminator is None:
            if block_len == 0:
                # Could not decode anything within this page: the
                # instruction spans pages.  Execute it via the slow path.
                instr = self._fetch_cross_page()
                if instr.op in _BLOCK_TERMINATORS:
                    return self._execute_terminator(instr)
                self._execute_simple(instr)
            return None
        return self._execute_terminator(terminator)

    def _execute_simple(self, instr: Instr) -> None:
        op = instr.op
        self.cycles += 1
        self.instructions += 1
        if op is Op.PUSH_EBP:
            self.push(self.ebp)
        elif op is Op.MOV_EBP_ESP:
            self.ebp = self.esp
        elif op is Op.PUSH_IMM:
            self.push(instr.operand or 0)
        elif op is Op.PRED:
            # ZF set => the JZ that follows skips the guarded body.
            self.zf = not self.bridge.eval_pred(instr.operand or 0)
        elif op is Op.ACT:
            self.bridge.do_act(instr.operand or 0)
        elif op is Op.LEAVE:
            self.esp = self.ebp
            self.ebp = self.pop()
        elif op is Op.OR_MIS:
            # The silent misdecode of a split UD2 stream.
            self.misdecodes.value += 1
            tel = self.telemetry
            if tel is not None and tel.recording:
                tel.emit(
                    "misdecode", cycles=self.cycles, cpu=self.cpu_id, rip=self.eip
                )
        elif op is Op.CLI:
            self.if_enabled = False
        elif op is Op.STI:
            self.if_enabled = True
        elif op is Op.FILL:
            pass
        else:  # pragma: no cover - decoder/terminator partition is fixed
            raise VcpuError(f"non-simple op in block body: {op}")
        self.eip = (self.eip + instr.length) & 0xFFFFFFFF

    def _execute_terminator(self, instr: Instr) -> Optional[VmExit]:
        op = instr.op
        self.cycles += 1
        self.instructions += 1
        if op is Op.CALL:
            self.push((self.eip + instr.length) & 0xFFFFFFFF)
            self.eip = (self.eip + instr.length + (instr.operand or 0)) & 0xFFFFFFFF
            return None
        if op is Op.JMP:
            self.eip = (self.eip + instr.length + (instr.operand or 0)) & 0xFFFFFFFF
            return None
        if op is Op.JZ:
            if self.zf:
                self.eip = (
                    self.eip + instr.length + (instr.operand or 0)
                ) & 0xFFFFFFFF
            else:
                self.eip = (self.eip + instr.length) & 0xFFFFFFFF
            return None
        if op is Op.DISPATCH:
            target = self.bridge.resolve_slot(instr.operand or 0)
            self.push((self.eip + instr.length) & 0xFFFFFFFF)
            self.eip = target & 0xFFFFFFFF
            return None
        if op is Op.RET:
            self.eip = self.pop()
            return None
        if op is Op.IRET:
            self.bridge.on_iret(self)
            return None
        if op is Op.INT:
            self.eip = (self.eip + instr.length) & 0xFFFFFFFF
            self.bridge.on_software_interrupt(self, instr.operand or 0)
            return None
        if op is Op.CTXSW:
            self.eip = (self.eip + instr.length) & 0xFFFFFFFF
            self.bridge.on_ctxsw(self)
            return None
        if op is Op.HLT:
            self.eip = (self.eip + instr.length) & 0xFFFFFFFF
            return self.snapshot_exit(VmExitReason.HLT)
        if op in (Op.UD2, Op.INVALID):
            # #UD: eip stays at the faulting instruction, like hardware.
            return self.snapshot_exit(VmExitReason.INVALID_OPCODE)
        raise VcpuError(f"unexpected terminator {op}")  # pragma: no cover
