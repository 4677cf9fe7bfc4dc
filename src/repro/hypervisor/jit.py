"""Block translation: superblock JIT over the decode cache.

The interpreter in :mod:`repro.hypervisor.vcpu` dispatches every decoded
step through Python ``if``-ladders.  This module compiles *hot* decoded
blocks into specialized Python closures -- straight-line source generated
per block, ``compile``/``exec``-ed once -- and fuses fall-through chains
(CALL/JMP/JZ with static targets) into **superblocks** that run until the
next trap boundary, interrupt-window check, sampler due-mark, or page
crossing.  It is QEMU's TB-chaining transplanted onto the existing
decode-cache key scheme.

Keying and invalidation
-----------------------

Translated members live in per-vCPU :class:`JitPageTable` objects keyed
``(hpfn, frame version)`` -- the same identity the decode cache uses --
so every invalidation source carries over unchanged:

* **CoW writes / module hot-load** bump the frame version
  (``PhysicalMemory.bump_version``), so the stale table simply stops
  being found; no explicit invalidation hook is needed.
* **View switches** (``install_over`` delta-switch) remap the virtual
  page to a *different* host frame; the outer loop re-resolves ``eip``
  every iteration and looks up the new frame's table.  Switching back
  re-finds the old table, so the A/B working set stays translated.
* **Trap arm/disarm** bumps the vCPU's ``_trap_epoch``.  Each table is
  pinned to its page's *trap signature* -- the armed addresses within
  ``[page, page + 2*PAGE_SIZE)``, exactly the range that shapes decode
  limits and fused-boundary decisions (the reason QEMU splits TBs at
  breakpoints).  The epoch is only a fast-path stamp: on mismatch the
  signature is recomputed and the table re-stamped if unchanged, so
  arming a probe in an unrelated page costs one tuple compare per
  table, not a retranslation.  Pages whose signature actually toggles
  (the deferred-switch ``resume_userspace`` trap) keep one table per
  signature in a small group, flipping between them instead of
  retranslating.
* A table is also pinned to the **virtual page** it was built for
  (``vfn``): constituent limits are derived from virtual trap addresses,
  so an aliased mapping of the same frame at another address falls back
  to the interpreter rather than reusing the wrong truncation.

Fusion never crosses a page, so the ``(hpfn, version)`` table key alone
covers every constituent block: a member is invalidated exactly when
its table stops being found.

Process-wide translation cache
------------------------------

Tables are per vCPU, but the code in them is not: a member's code is
a pure function of its page's bytes (interned once per table), the
table's ``vfn`` and trap signature, whether the vCPU has an
``irq_state`` and the entry offset -- everything :class:`_Codegen`
reads.  A member whose instruction spans into the next page also bakes
that page's ``(hpfn, version)`` into its guard, so its key carries the
next page's ``(hpfn, version, first bytes)`` as well.  ``translate``
looks that key up in one bounded process-wide cache of compiled code
objects and generates, compiles and stores only on a miss, so forks of
one snapshot, reboots of one build and the daemon's worker threads
translate each page once per process.  Views that map the next page
differently get different keys, so they neither evict nor misuse each
other's members.

Promotion is remembered per process too: a process-wide set holds the
``(hpfn, version)`` of every page a vCPU promoted, and a later machine
-- the next fork of a snapshot, a serve worker's next job, which
inherits what the daemon's offline profiles warmed -- promotes such a
page at its first execution instead of after ``PROMOTE_THRESHOLD``
interpreted runs.  The key is only a hint (another fork's private view
frame may reuse it with other bytes); the code still comes from the
content-keyed cache, so promoting early is always safe.  Host counters
(``jit.*``, ``decode.*``, ``mmu.tlb.*``) therefore depend on what the
process ran before, as wall time does; scores and guest-visible state
do not.

Bit-identity contract
---------------------

Virtual-cycle scores must be identical with translation on or off.  The
generated code therefore:

* batches ``cycles``/``instructions`` increments only across *pure* runs
  (fills, ``mov ebp,esp``, ``cli``/``sti``) and flushes the exact totals
  before anything observable: bridge calls, ``push``/``pop`` (which can
  raise :class:`TranslationError`), misdecode telemetry, and every block
  boundary;
* flushes the exact ``eip`` before every can-raise operation so an
  ``ERROR`` exit snapshots the same ``rip`` the interpreter would;
* re-checks the interpreter's boundary conditions *in the same order*
  (budget, sampler due-mark, interrupt window) between fused blocks, and
  re-reads ``eip`` after every bridge call (a bridge that moved ``eip``
  mid-block ends translation at the next boundary with exact state);
* returns :data:`BAIL` after any operation that may write guest memory
  or switch address spaces (ACT, INT, IRET, CTXSW, DISPATCH), forcing
  the outer loop to re-resolve the page and re-validate the table.

Generated code captures **no** per-machine state -- only integer
constants baked into the source and the immutable sentinels of
``_EXEC_GLOBALS`` -- so one code object serves every machine and
thread in the process, and the functions made from it are safe under
the ``deepcopy`` used by ``MachineSnapshot``.  Snapshot capture
flushes the tables anyway (``Machine.flush_caches``); forks re-promote
their pages (at first touch, see above) and refill the tables from the
translation cache.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from types import CodeType, FunctionType
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.isa.decoder import decode
from repro.isa.opcodes import Instr, Op
from repro.memory.layout import PAGE_SIZE
from repro.memory.mmu import TranslationError
from repro.hypervisor.vmexit import VmExitReason
from repro.telemetry import Counter, LabelledCounter, Telemetry

#: Executions of a ``(hpfn, version)`` code page before it is promoted
#: to a translated page table.
PROMOTE_THRESHOLD = 4
#: Maximum constituent blocks fused into one superblock closure (JZ arms
#: may duplicate a successor; the cap bounds total emissions).
MAX_FUSED_BLOCKS = 32
#: Maximum translated members per page table.
MAX_MEMBERS = 256
#: Maximum resident page tables per vCPU (stale versions are swept
#: first when the cap is hit).
MAX_TABLES = 512
#: Heat-map bound; the map is heuristic, so clearing it only delays
#: promotion of still-warm pages.
_MAX_HEAT = 8192

#: Process-wide translation cache: member key (see ``translate``) ->
#: ``(code object, constituent block count)``.  It holds only immutable
#: values, so it adds nothing for the cyclic collector to track; each
#: table member is a fresh function around the shared code and dies
#: with its machine.  Cleared wholesale when full; a serve mix of four
#: apps on two guest variants, offline profiling included, fills about
#: 1,700 entries.  Worker threads race on it harmlessly: a lost insert
#: only costs rebuilding equal code.
_TRANSLATIONS: Dict[tuple, Tuple[CodeType, int]] = {}
_MAX_TRANSLATIONS = 8192
#: Process-wide ``(hpfn, frame version)`` keys of every page a vCPU of
#: this process promoted.  A later machine -- the next fork of a
#: snapshot, a worker's next job -- promotes such a page on its first
#: execution instead of after ``PROMOTE_THRESHOLD`` interpreted runs.
#: The key is only a hint: code is still looked up by page content, so a
#: frame that reuses a key with other bytes (another job's private view
#: frame) merely promotes early.  Cleared wholesale when full; sets are
#: safe to race on under the interpreter lock.
PROMOTED: Set[Tuple[int, int]] = set()
_MAX_PROMOTED = 8192
#: Interned page bytes: one copy of each distinct code page, shared by
#: the translation cache's keys and the vCPU's block-decode memo (a
#: racing thread may keep an equal second copy; keys compare by value).
_PAGES: Dict[bytes, bytes] = {}
_MAX_PAGES = 2048
#: Entries at or past this page offset hold one instruction spanning
#: into the next page (encodings are up to 8 bytes long, and the block
#: decoder leaves such tails to the cross-page path).
_SPAN_FROM = PAGE_SIZE - 7

#: Sentinel: the member made progress but may have changed memory or
#: address-space state; the caller must re-validate everything.
BAIL = object()
#: Sentinel: the member made *no* progress (stale cross-page guard); the
#: caller must drop the member and interpret the block.
STALE = object()

_MASK = 0xFFFFFFFF


def intern_page(frame) -> bytes:
    """The process's one copy of ``frame``'s current bytes."""
    data = bytes(frame)
    page = _PAGES.get(data)
    if page is None:
        if len(_PAGES) >= _MAX_PAGES:
            _PAGES.clear()
        _PAGES[data] = page = data
    return page


def env_jit_enabled(default: bool = True) -> bool:
    """Resolve the ``REPRO_JIT`` environment toggle."""
    raw = os.environ.get("REPRO_JIT")
    if raw is None:
        return default
    return raw.strip().lower() not in ("", "0", "off", "false", "no")


class _Untranslatable(Exception):
    """An op the code generator cannot compile (defensive; the op set
    is closed, so this should never fire outside decoder changes)."""


class JitPageTable:
    """Translated members of one ``(hpfn, version)`` code page.

    ``members`` maps page offset -> compiled function; ``data`` is the
    page's interned bytes.  ``vfn``/``sig`` pin the virtual mapping and
    trap layout the translations assumed; ``epoch`` is the fast-path
    validity stamp (re-stamped whenever the recomputed signature still
    matches).
    """

    __slots__ = ("members", "data", "epoch", "vfn", "sig")

    def __init__(
        self, vfn: int, epoch: int, sig: Tuple[int, ...], data: bytes
    ) -> None:
        self.members: Dict[int, object] = {}
        self.data = data
        self.epoch = epoch
        self.vfn = vfn
        self.sig = sig


class JitPageGroup:
    """All translations of one ``(hpfn, version)`` page: the active
    table plus alternates keyed ``(vfn, trap signature)``, so a trap
    that toggles (deferred-switch resume traps) flips between cached
    tables instead of retranslating the page each time."""

    __slots__ = ("active", "alternates")

    #: alternates kept per page before the group is reset wholesale
    MAX_ALTERNATES = 4

    def __init__(self, table: JitPageTable) -> None:
        self.active = table
        self.alternates: Dict[Tuple[int, Tuple[int, ...]], JitPageTable] = {
            (table.vfn, table.sig): table
        }


class JitState:
    """Per-vCPU translation state: page tables, heat map, counters."""

    __slots__ = (
        "tables",
        "heat",
        "code_pages",
        "threshold",
        "max_members",
        "max_tables",
        "blocks",
        "superblocks",
        "promotions",
        "invalidations",
    )

    def __init__(self, threshold: int = PROMOTE_THRESHOLD) -> None:
        self.tables: Dict[Tuple[int, int], JitPageGroup] = {}
        self.heat: Dict[Tuple[int, int], int] = {}
        # (id(cr3), vfn) -> code-page resolution (the JIT loop's
        # analogue of the interpreter's one-entry ``_code_cache``; a
        # dict because the user stub <-> kernel handler ping-pong of
        # every interrupt/syscall thrashes a single entry)
        self.code_pages: Dict[Tuple[int, int], tuple] = {}
        self.threshold = threshold
        self.max_members = MAX_MEMBERS
        self.max_tables = MAX_TABLES
        self.blocks = Counter("jit.blocks")
        self.superblocks = Counter("jit.superblocks")
        self.promotions = Counter("jit.promotions")
        self.invalidations = LabelledCounter("jit.invalidations")

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Rebind the jit counters to the machine-wide registry."""
        for attr in ("blocks", "superblocks", "promotions"):
            standalone = getattr(self, attr)
            shared = telemetry.counter(standalone.name)
            if shared is not standalone:
                shared.value += standalone.value
                setattr(self, attr, shared)
        standalone = self.invalidations
        shared = telemetry.labelled_counter(standalone.name)
        if shared is not standalone:
            for label, n in standalone.values.items():
                shared.inc(label, n)
            self.invalidations = shared

    def promote(
        self, vcpu, frame, hpfn: int, version: int, vfn: int
    ) -> JitPageTable:
        """Create a (still empty) table for a page that crossed the
        hotness threshold."""
        tables = self.tables
        if len(tables) >= self.max_tables:
            versions = vcpu._frame_versions
            stale = [k for k in tables if versions.get(k[0], 0) != k[1]]
            for k in stale:
                del tables[k]
            if stale:
                self.invalidations.inc("version", len(stale))
            if len(tables) >= self.max_tables:
                self.invalidations.inc("capacity", len(tables))
                tables.clear()
        key = (hpfn, version)
        self.heat.pop(key, None)
        if len(PROMOTED) >= _MAX_PROMOTED:
            PROMOTED.clear()
        PROMOTED.add(key)
        table = JitPageTable(
            vfn, vcpu._trap_epoch, vcpu._page_trap_sig(vfn), intern_page(frame)
        )
        tables[key] = JitPageGroup(table)
        self.promotions.inc()
        return table

    def revalidate(self, vcpu, group: JitPageGroup, vfn: int) -> JitPageTable:
        """Slow path after a trap-epoch bump (or vfn change): re-pin the
        group's active table to the current trap signature.

        Returns a valid (possibly freshly created, empty) table -- the
        caller re-stamps nothing; tables matching the recomputed
        signature are stamped with the current epoch here so the next
        lookup takes the fast path.
        """
        sig = vcpu._page_trap_sig(vfn)
        epoch = vcpu._trap_epoch
        table = group.active
        if table.vfn == vfn and table.sig == sig:
            table.epoch = epoch
            return table
        alt = group.alternates.get((vfn, sig))
        if alt is not None:
            alt.epoch = epoch
            group.active = alt
            return alt
        self.invalidations.inc("trap" if table.vfn == vfn else "remap")
        if len(group.alternates) >= JitPageGroup.MAX_ALTERNATES:
            group.alternates.clear()
        table = JitPageTable(vfn, epoch, sig, table.data)
        group.alternates[(vfn, sig)] = table
        group.active = table
        return table

    def translate(self, vcpu, eip: int, table: JitPageTable) -> Optional[object]:
        """Translate the chain starting at ``eip`` into ``table``.

        Returns a function around the member's code from the
        process-wide cache, generating the code on a miss, or ``None``
        when the entry cannot be translated (the next page of a spanning
        instruction does not resolve); failures leave all guest state
        untouched so the interpreter path stays bit-identical.
        """
        off = eip & (PAGE_SIZE - 1)
        irq = vcpu.irq_state is not None
        span = None
        if off >= _SPAN_FROM:
            # the member's guard names the next page's frame and version
            try:
                entry2 = vcpu.mmu.resolve_entry(((table.vfn + 1) << 12) & _MASK)
            except TranslationError:
                return None
            hpfn2 = entry2[0]
            span = (
                hpfn2,
                vcpu._frame_versions.get(hpfn2, 0),
                bytes(entry2[1][: off + 8 - PAGE_SIZE]),
            )
        key = (table.data, table.vfn, table.sig, irq, off, span)
        hit = _TRANSLATIONS.get(key)
        if hit is None:
            gen = _Codegen(
                vcpu._decode_block, table.data, table.vfn, table.sig, irq, span
            )
            try:
                hit = gen.build(off)
            except _Untranslatable:
                return None
            if len(_TRANSLATIONS) >= _MAX_TRANSLATIONS:
                _TRANSLATIONS.clear()
            _TRANSLATIONS[key] = hit
        code, nblocks = hit
        fn = FunctionType(code, _EXEC_GLOBALS)
        table.members[off] = fn
        self.blocks.inc(nblocks)
        if nblocks > 1:
            self.superblocks.inc()
        return fn

    def flush(self, cause: str = "flush") -> None:
        """Drop every table (host-side flush: snapshot/fork, explicit
        cache invalidation)."""
        n = len(self.tables)
        if n:
            self.invalidations.inc(cause, n)
        self.tables.clear()
        self.heat.clear()
        self.code_pages.clear()


#: Ops that terminate a decoded block; mirrored from the vcpu module to
#: classify single spanning instructions (import cycle avoidance).
_TERMINATORS = frozenset(
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

#: Globals shared by every generated closure: sentinels, exit reasons
#: and the translation-fault type.  Nothing per-machine lives here, so
#: closures stay safe to share across deepcopied machines.
_EXEC_GLOBALS = {
    "_BAIL": BAIL,
    "_STALE": STALE,
    "_HLT": VmExitReason.HLT,
    "_UD": VmExitReason.INVALID_OPCODE,
    "_TE": TranslationError,
    "__builtins__": {},
}


class _Codegen:
    """Emits and compiles the Python source of one translated member.

    All addresses are build-time integer constants: the owning table is
    pinned to one virtual page (``vfn``), the executor only dispatches
    members for that page, and fusion never crosses a page -- so every
    ``eip`` value a chain can produce is known statically (bridge calls
    are re-read and guarded, see the module docstring).  The generator
    reads nothing but its arguments, which is what lets ``translate``
    key the process-wide cache on them.
    """

    def __init__(
        self,
        decode_block,
        data: bytes,
        vfn: int,
        sig: Tuple[int, ...],
        irq: bool,
        span: Optional[Tuple[int, int, bytes]],
    ) -> None:
        self.decode_block = decode_block
        self.data = data
        self.vfn = vfn
        self.sig = sig
        self.span = span
        self.page_base = (vfn << 12) & _MASK
        self.lines: List[str] = []
        self.budget = MAX_FUSED_BLOCKS
        self.nblocks = 0
        self.entry_off = -1
        # interrupt-window check: read the per-CPU deadline directly
        # when the bridge published one (``irq_state`` never changes
        # after attach)
        if irq:
            self.irq_check = "if v.if_enabled and v.cycles >= v.irq_state.next_event:"
        else:
            self.irq_check = "if v.if_enabled and v.bridge.interrupt_pending(v):"

    # -- decode helpers -----------------------------------------------------

    def _addr(self, off: int) -> int:
        return (self.page_base + off) & _MASK

    def _block_at(self, off: int):
        """Decode the block at ``off`` with the trap-limit truncation
        ``Vcpu._fetch_block`` applies; the table's trap signature holds
        every trap that can truncate a block of this page."""
        vaddr = self._addr(off)
        sig = self.sig
        limit = None
        i = bisect_right(sig, vaddr)
        if i < len(sig) and sig[i] - vaddr < PAGE_SIZE:
            limit = sig[i] - vaddr
        return self.decode_block(self.data, off, limit)

    # -- top level ----------------------------------------------------------

    def build(self, entry_off: int):
        """Return ``(code, n_blocks)`` for the chain entered at page
        offset ``entry_off``."""
        name = f"_jit_{self.vfn:05x}_{entry_off:03x}"
        self.entry_off = entry_off
        L = self.lines
        L.append(f"def {name}(v, stop):")
        if self.span is not None:
            # Instruction spanning into the next page: a guarded
            # single-instruction member.
            self._build_cross_page(entry_off)
        else:
            # The body is a loop so a back-edge targeting the entry
            # (the common shape once a loop head becomes a member) can
            # ``continue`` instead of returning to the executor.
            L.append("    tr = v.block_tracer")
            L.append("    while True:")
            self._emit_block(entry_off, 2, frozenset((entry_off,)))
        src = "\n".join(L) + "\n"
        module = compile(src, f"<jit:{self.vfn:05x}+{entry_off:03x}>", "exec")
        ns: dict = {}
        exec(module, _EXEC_GLOBALS, ns)
        return ns[name].__code__, self.nblocks

    # -- block emission -----------------------------------------------------

    def _emit_block(self, off: int, indent: int, visited: FrozenSet[int]) -> None:
        self.budget -= 1
        self.nblocks += 1
        steps, term, block_len = self._block_at(off)
        pad = "    " * indent
        S = self._addr(off)
        emit = self.lines.append
        emit(f"{pad}if tr is not None:")
        emit(f"{pad}    tr({S}, {S + block_len})")
        self._emit_body(off, steps, term, block_len, indent, visited, True)

    def _build_cross_page(self, off: int) -> None:
        """Emit the guarded single-instruction member for a spanning
        fetch (the interpreter's ``_fetch_cross_page`` path)."""
        hpfn2, v2, head = self.span
        vaddr2 = (self.page_base + PAGE_SIZE) & _MASK
        instr = decode(self.data[off:] + head, 0)
        self.nblocks += 1
        S = self._addr(off)
        emit = self.lines.append
        # The second-page guard must not raise (the interpreter fires
        # the tracer before its resolve would), so a build-time-valid
        # mapping that later faults degrades to STALE + interpretation.
        emit("    try:")
        emit(f"        _e2 = v.mmu.resolve_entry({vaddr2})")
        emit("    except _TE:")
        emit("        _e2 = None")
        emit(
            f"    if _e2 is None or _e2[0] != {hpfn2} "
            f"or v._frame_versions.get({hpfn2}, 0) != {v2}:"
        )
        emit("        return _STALE")
        emit("    tr = v.block_tracer")
        emit("    if tr is not None:")
        emit(f"        tr({S}, {S})")
        if instr.op in _TERMINATORS:
            steps: List[object] = []
            term: Optional[Instr] = instr
            block_len = instr.length
        else:
            steps = [instr]
            term = None
            block_len = instr.length
        self._emit_body(off, steps, term, block_len, 1, frozenset((off,)), False)

    def _emit_push(self, pad: str, value: str) -> None:
        """Inline ``Vcpu.push``'s stack-page fast path (same arithmetic,
        same hit counter); misses and page crossings call the method."""
        emit = self.lines.append
        emit(f"{pad}_sp = (v.esp - 4) & 0xFFFFFFFF")
        emit(f"{pad}_o = _sp & 0xFFF")
        emit(f"{pad}_c = v._stack_cache")
        emit(f"{pad}_p = v.mmu.cr3")
        emit(
            f"{pad}if _o <= 0xFFC and _c is not None and _c[0] == _sp >> 12 "
            f"and _c[1] is _p and _c[2] == _p.generation and _c[3][0] == _c[4]:"
        )
        emit(f"{pad}    v.esp = _sp")
        emit(f"{pad}    v._stack_hits.value += 1")
        emit(f"{pad}    _f = _c[5]")
        emit(f"{pad}    _x = {value}")
        emit(f"{pad}    _f[_o] = _x & 0xFF")
        emit(f"{pad}    _f[_o + 1] = (_x >> 8) & 0xFF")
        emit(f"{pad}    _f[_o + 2] = (_x >> 16) & 0xFF")
        emit(f"{pad}    _f[_o + 3] = (_x >> 24) & 0xFF")
        emit(f"{pad}else:")
        emit(f"{pad}    v.push({value})")

    def _emit_pop(self, pad: str, dest: str) -> None:
        """Inline ``Vcpu.pop``'s stack-page fast path into ``dest``."""
        emit = self.lines.append
        emit(f"{pad}_sp = v.esp")
        emit(f"{pad}_o = _sp & 0xFFF")
        emit(f"{pad}_c = v._stack_cache")
        emit(f"{pad}_p = v.mmu.cr3")
        emit(
            f"{pad}if _o <= 0xFFC and _c is not None and _c[0] == _sp >> 12 "
            f"and _c[1] is _p and _c[2] == _p.generation and _c[3][0] == _c[4]:"
        )
        emit(f"{pad}    v.esp = (_sp + 4) & 0xFFFFFFFF")
        emit(f"{pad}    v._stack_hits.value += 1")
        emit(f"{pad}    _f = _c[5]")
        emit(
            f"{pad}    {dest} = _f[_o] | (_f[_o + 1] << 8) "
            f"| (_f[_o + 2] << 16) | (_f[_o + 3] << 24)"
        )
        emit(f"{pad}else:")
        emit(f"{pad}    {dest} = v.pop()")

    def _emit_body(
        self,
        off: int,
        steps: List[object],
        term: Optional[Instr],
        block_len: int,
        indent: int,
        visited: FrozenSet[int],
        allow_fuse: bool,
    ) -> None:
        pad = "    " * indent
        emit = self.lines.append
        cur = off
        pend = 0
        eip_at = off  # page offset currently materialized in v.eip
        poisoned = False  # an ACT ran: memory/versions may have changed

        def flush_counts(extra: int = 0) -> None:
            nonlocal pend
            n = pend + extra
            if n:
                emit(f"{pad}v.cycles += {n}")
                emit(f"{pad}v.instructions += {n}")
            pend = 0

        def flush_eip() -> None:
            nonlocal eip_at
            if eip_at != cur:
                emit(f"{pad}v.eip = {self._addr(cur)}")
                eip_at = cur

        for step in steps:
            if type(step) is tuple:
                _, n_insns, n_bytes = step
                pend += n_insns
                cur += n_bytes
                continue
            op = step.op
            ln = step.length
            if op is Op.MOV_EBP_ESP:
                pend += 1
                emit(f"{pad}v.ebp = v.esp")
            elif op is Op.PUSH_EBP:
                flush_counts(1)
                flush_eip()
                self._emit_push(pad, "v.ebp")
            elif op is Op.PUSH_IMM:
                flush_counts(1)
                flush_eip()
                self._emit_push(pad, str((step.operand or 0) & _MASK))
            elif op is Op.PRED:
                flush_counts(1)
                flush_eip()
                emit(f"{pad}v.zf = not v.bridge.eval_pred({step.operand or 0})")
                emit(f"{pad}v.eip = (v.eip + {ln}) & 0xFFFFFFFF")
                emit(f"{pad}if v.eip != {self._addr(cur + ln)}:")
                emit(f"{pad}    return None")
                eip_at = cur + ln
            elif op is Op.ACT:
                flush_counts(1)
                flush_eip()
                emit(f"{pad}v.bridge.do_act({step.operand or 0})")
                emit(f"{pad}v.eip = (v.eip + {ln}) & 0xFFFFFFFF")
                emit(f"{pad}if v.eip != {self._addr(cur + ln)}:")
                emit(f"{pad}    return _BAIL")
                eip_at = cur + ln
                poisoned = True
            elif op is Op.LEAVE:
                flush_counts(1)
                flush_eip()
                emit(f"{pad}v.esp = v.ebp")
                self._emit_pop(pad, "v.ebp")
            elif op is Op.OR_MIS:
                flush_counts(1)
                flush_eip()
                emit(f"{pad}v.misdecodes.value += 1")
                emit(f"{pad}_t = v.telemetry")
                emit(f"{pad}if _t is not None and _t.recording:")
                emit(
                    f"{pad}    _t.emit('misdecode', cycles=v.cycles, "
                    f"cpu=v.cpu_id, rip=v.eip)"
                )
            elif op is Op.CLI:
                pend += 1
                emit(f"{pad}v.if_enabled = False")
            elif op is Op.STI:
                pend += 1
                emit(f"{pad}v.if_enabled = True")
            elif op is Op.FILL:
                pend += 1
            else:
                raise _Untranslatable(str(op))
            cur += ln

        end = "_BAIL" if poisoned else "None"
        if term is None:
            flush_counts(0)
            self._emit_transfer(
                off + block_len, indent, visited, poisoned, eip_at, allow_fuse
            )
            return
        op = term.op
        ln = term.length
        rel = term.operand or 0
        if op is Op.CALL:
            flush_counts(1)
            flush_eip()
            self._emit_push(pad, str(self._addr(cur + ln)))
            self._emit_transfer(
                cur + ln + rel, indent, visited, poisoned, eip_at, allow_fuse
            )
        elif op is Op.JMP:
            flush_counts(1)
            self._emit_transfer(
                cur + ln + rel, indent, visited, poisoned, eip_at, allow_fuse
            )
        elif op is Op.JZ:
            flush_counts(1)
            emit(f"{pad}if v.zf:")
            self._emit_transfer(
                cur + ln + rel, indent + 1, visited, poisoned, eip_at, allow_fuse
            )
            emit(f"{pad}else:")
            self._emit_transfer(
                cur + ln, indent + 1, visited, poisoned, eip_at, allow_fuse
            )
        elif op is Op.RET:
            flush_counts(1)
            flush_eip()
            self._emit_pop(pad, "v.eip")
            emit(f"{pad}return {end}")
        elif op is Op.DISPATCH:
            flush_counts(1)
            flush_eip()
            emit(f"{pad}_d = v.bridge.resolve_slot({term.operand or 0})")
            emit(f"{pad}v.push((v.eip + {ln}) & 0xFFFFFFFF)")
            emit(f"{pad}v.eip = _d & 0xFFFFFFFF")
            emit(f"{pad}return _BAIL")
        elif op is Op.INT:
            flush_counts(1)
            emit(f"{pad}v.eip = {self._addr(cur + ln)}")
            emit(f"{pad}v.bridge.on_software_interrupt(v, {term.operand or 0})")
            emit(f"{pad}return _BAIL")
        elif op is Op.IRET:
            flush_counts(1)
            flush_eip()
            emit(f"{pad}v.bridge.on_iret(v)")
            emit(f"{pad}return _BAIL")
        elif op is Op.CTXSW:
            flush_counts(1)
            emit(f"{pad}v.eip = {self._addr(cur + ln)}")
            emit(f"{pad}v.bridge.on_ctxsw(v)")
            emit(f"{pad}return _BAIL")
        elif op is Op.HLT:
            flush_counts(1)
            emit(f"{pad}v.eip = {self._addr(cur + ln)}")
            emit(f"{pad}return v.snapshot_exit(_HLT)")
        elif op in (Op.UD2, Op.INVALID):
            flush_counts(1)
            flush_eip()
            emit(f"{pad}return v.snapshot_exit(_UD)")
        else:  # pragma: no cover - terminator partition is fixed
            raise _Untranslatable(str(op))

    def _emit_transfer(
        self,
        t: int,
        indent: int,
        visited: FrozenSet[int],
        poisoned: bool,
        eip_at: int,
        allow_fuse: bool,
    ) -> None:
        """Emit the control transfer to page offset ``t``: either fuse
        the successor block inline (superblock) or end the member."""
        pad = "    " * indent
        emit = self.lines.append
        target = self._addr(t)
        back_edge = (
            allow_fuse
            and not poisoned
            and t == self.entry_off
            and target not in self.sig
        )
        # (a spanning instruction past _SPAN_FROM is left to the executor)
        fuse = (
            not back_edge
            and allow_fuse
            and not poisoned
            and self.budget > 0
            and 0 <= t < _SPAN_FROM
            and t not in visited
            and target not in self.sig
        )
        if eip_at != t:
            emit(f"{pad}v.eip = {target}")
        if not (fuse or back_edge):
            emit(f"{pad}return {'_BAIL' if poisoned else 'None'}")
            return
        # The interpreter's boundary checks, in its order (budget,
        # sampler due-mark, interrupt window); the trap check is folded
        # into the build-time `target not in sig` above, valid while
        # the table's trap epoch holds.
        emit(f"{pad}if v.instructions >= stop:")
        emit(f"{pad}    return None")
        emit(f"{pad}if v.cycles >= v._sample_due:")
        emit(f"{pad}    return None")
        emit(f"{pad}{self.irq_check}")
        emit(f"{pad}    return None")
        if back_edge:
            # Loop back to the member's own entry without leaving the
            # closure; re-read the tracer the way the interpreter does
            # at every block boundary.
            emit(f"{pad}tr = v.block_tracer")
            emit(f"{pad}continue")
            return
        self._emit_block(t, indent, visited | {t})
