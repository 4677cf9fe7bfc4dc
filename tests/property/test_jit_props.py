"""Property tests: block translation is bit-identical to interpretation.

The translation layer's hard gate (see :mod:`repro.hypervisor.jit`): for
*any* program, guest-visible state -- registers, virtual clock, memory,
bridge side effects, sampler firings -- evolves bit-identically with
translation on or off.  Random programs are run slice by slice on two
otherwise identical worlds, with host-side events (trap arm/disarm
mid-superblock, CoW-style code writes, sampler installation) injected
between slices, and every observable compared after every slice.  A
second translated world then replays the scenario from the
process-wide translation cache and must match slice by slice too, and so
must a world that starts warm: the process already holds another
program's pages at the same virtual addresses and frame keys.
"""

import struct
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hypervisor.jit as jit_mod
from repro.hypervisor.vcpu import SemanticsBridge, Vcpu
from repro.hypervisor.vmexit import VmExitReason
from repro.isa.opcodes import OP_ACT_SECOND, OP_CTXSW
from repro.memory.ept import ExtendedPageTable
from repro.memory.layout import PAGE_SIZE
from repro.memory.mmu import Mmu
from repro.memory.paging import GuestPageTable
from repro.memory.physmem import PhysicalMemory

CODE_BASE = 0x00010000
STACK_TOP = 0x00020FF0
NSLOTS = 16
SLOT = 64


class TableBridge(SemanticsBridge):
    """Semantic callbacks driven by pre-drawn tables (deterministic)."""

    def __init__(self, preds, slots):
        self.preds = preds
        self.slots = slots
        self.acts = []
        self.ctxsw_count = 0

    def eval_pred(self, pred_id):
        return self.preds.get(pred_id, False)

    def do_act(self, act_id):
        self.acts.append(act_id)

    def resolve_slot(self, slot_id):
        return self.slots.get(slot_id, CODE_BASE + PAGE_SIZE)

    def on_ctxsw(self, vcpu):
        self.ctxsw_count += 1

    def interrupt_pending(self, vcpu):
        return False


def _u32(value):
    return struct.pack("<I", value & 0xFFFFFFFF)


def _body_bytes(kind, imm):
    if kind == 0:
        return b"\x90"  # nop
    if kind == 1:
        return b"\x31\xc0"  # xor eax,eax (2-byte filler)
    if kind == 2:
        return b"\x83\xc0\x2a"  # add eax,imm8 (3-byte filler)
    if kind == 3:
        return b"\x89\x44\x24\x04"  # mov [esp+4],eax (4-byte filler)
    if kind == 4:
        return b"\x55"  # push ebp
    if kind == 5:
        return b"\x89\xe5"  # mov ebp,esp
    if kind == 6:
        return b"\x68" + _u32(imm)  # push imm32
    if kind == 7:
        return b"\x3d" + _u32(imm & 7)  # pred
    if kind == 8:
        return b"\xfa"  # cli
    if kind == 9:
        return b"\xfb"  # sti
    if kind == 10:
        return b"\x0f" + bytes([OP_ACT_SECOND]) + _u32(imm & 15)  # act
    if kind == 11:
        return b"\x0b\xc0"  # or r,r/m (silent misdecode)
    return b"\xc9"  # leave


def _assemble(slot_specs):
    """Lay the drawn slots out in one page; pad is executable filler."""
    page = bytearray(b"\x90" * PAGE_SIZE)
    for i, (body, term, target) in enumerate(slot_specs):
        off = i * SLOT
        code = bytearray()
        for kind, imm in body:
            code += _body_bytes(kind, imm)
        t = target * SLOT
        cur = off + len(code)
        if term == "jmp":
            code += b"\xe9" + _u32(t - (cur + 5))
        elif term == "jz":
            code += b"\x0f\x84" + _u32(t - (cur + 6))
        elif term == "call":
            code += b"\xe8" + _u32(t - (cur + 5))
        elif term == "dispatch":
            code += b"\xff\x14\x85" + _u32(target & 3)
        elif term == "ret":
            code += b"\xc3"
        elif term == "ctxsw":
            code += bytes([OP_CTXSW])
        else:  # hlt
            code += b"\xf4"
        assert len(code) <= SLOT
        page[off : off + len(code)] = code
    return bytes(page)


def _make_world(page, jit, preds, slots_tbl, threshold=1):
    physmem = PhysicalMemory()
    ept = ExtendedPageTable()
    pt = GuestPageTable()
    for gva in range(0x10000, 0x22000, PAGE_SIZE):
        pt.map_page(gva, gva)
    mmu = Mmu(physmem, ept)
    mmu.set_cr3(pt)
    bridge = TableBridge(dict(preds), dict(slots_tbl))
    vcpu = Vcpu(0, mmu, bridge)
    vcpu.esp = STACK_TOP
    vcpu.ebp = STACK_TOP
    vcpu.eip = CODE_BASE
    physmem.write(CODE_BASE, page)
    physmem.write(CODE_BASE + PAGE_SIZE, b"\xf4")  # parking hlt
    if jit:
        vcpu.set_jit(True)
        # translate eagerly under tiny budgets, by default
        vcpu._jit.threshold = threshold
    return physmem, vcpu, bridge


def _install_sampler(vcpu, record, interval):
    def sampler(v):
        record.append((v.cycles, v.eip))
        return v.cycles + interval

    vcpu.cycle_sampler = sampler


def _state(vcpu, bridge, exit_):
    return (
        exit_.reason,
        exit_.rip,
        vcpu.eip,
        vcpu.esp,
        vcpu.ebp,
        vcpu.zf,
        vcpu.if_enabled,
        vcpu.cycles,
        vcpu.instructions,
        tuple(bridge.acts),
        bridge.ctxsw_count,
        vcpu.misdecodes.value,
    )


_TERMS = ["jmp"] * 4 + ["jz"] * 3 + ["call"] * 2 + [
    "dispatch", "ret", "ctxsw", "hlt",
]


@st.composite
def scenarios(draw):
    preds = {i: draw(st.booleans()) for i in range(8)}
    slots_tbl = {
        i: CODE_BASE + draw(st.integers(0, NSLOTS - 1)) * SLOT for i in range(4)
    }
    slot_specs = []
    for _ in range(NSLOTS):
        body = draw(
            st.lists(
                st.tuples(st.integers(0, 12), st.integers(0, 0xFFFF)),
                max_size=4,
            )
        )
        term = draw(st.sampled_from(_TERMS))
        target = draw(st.integers(0, NSLOTS - 1))
        slot_specs.append((body, term, target))
    events = draw(
        st.lists(
            st.sampled_from(["none", "arm", "disarm", "cow"]),
            min_size=2,
            max_size=4,
        )
    )
    arm_slot = draw(st.integers(0, NSLOTS - 1))
    cow_slot = draw(st.integers(0, NSLOTS - 1))
    budgets = draw(st.lists(st.integers(60, 500), min_size=3, max_size=5))
    interval = draw(st.sampled_from([None, 64, 257]))
    return preds, slots_tbl, slot_specs, events, arm_slot, cow_slot, budgets, interval


def _drive(worlds, scenario):
    """Run ``worlds`` slice by slice through ``scenario``, injecting its
    host-side events into each; assert that they agree after every
    slice and return the per-slice observations and final memory."""
    events, arm_slot, cow_slot, budgets, interval = scenario[3:]
    samples = [[] for _ in worlds]
    if interval is not None:
        for (_, vcpu, _), record in zip(worlds, samples):
            _install_sampler(vcpu, record, interval)
    observed = []
    for i, budget in enumerate(budgets):
        exits = [vcpu.run(budget=budget) for _, vcpu, _ in worlds]
        slices = [
            (_state(vcpu, bridge, exit_), tuple(record))
            for (_, vcpu, bridge), exit_, record in zip(worlds, exits, samples)
        ]
        assert all(s == slices[0] for s in slices)
        observed.append(slices[0])
        reason = exits[0].reason
        if reason is VmExitReason.ADDRESS_TRAP:
            for _, vcpu, _ in worlds:
                vcpu.resume_past_trap()
        elif reason is not VmExitReason.BUDGET:
            break  # parked (hlt), faulted, or #UD -- all agreed above
        event = events[i % len(events)]
        addr = CODE_BASE + arm_slot * SLOT
        if event == "arm":
            for _, vcpu, _ in worlds:
                vcpu.arm_trap(addr)
        elif event == "disarm":
            for _, vcpu, _ in worlds:
                vcpu.disarm_trap(addr)
        elif event == "cow":
            # A host-side code write (the CoW shape): same bytes, same
            # version bump, in every world.
            for physmem, _, _ in worlds:
                physmem.write(CODE_BASE + cow_slot * SLOT, b"\x90")
                physmem.bump_version(CODE_BASE >> 12)
    mem = [physmem.read(0x10000, 0x12000) for physmem, _, _ in worlds]
    assert all(m == mem[0] for m in mem)
    return observed, mem[0]


@contextmanager
def _counting_builds():
    """Empty process-wide caches (promoted pages, translated code), and
    the entry offset of every member generated inside the block."""
    calls = []
    real = jit_mod._Codegen.build

    def counting(self, entry_off):
        calls.append(entry_off)
        return real(self, entry_off)

    with mock.patch.object(jit_mod, "PROMOTED", set()):
        with mock.patch.object(jit_mod, "_TRANSLATIONS", {}):
            with mock.patch.object(jit_mod._Codegen, "build", counting):
                yield calls


@settings(max_examples=30, deadline=None)
@given(scenarios())
def test_translated_equals_interpreted(scenario):
    preds, slots_tbl, slot_specs = scenario[:3]
    page = _assemble(slot_specs)
    with _counting_builds() as builds:
        worlds = [_make_world(page, jit, preds, slots_tbl) for jit in (False, True)]
        reference = _drive(worlds, scenario)
        # a second translated world is served from the translation
        # cache the first one filled, and must match just as exactly
        del builds[:]
        replay = _drive([_make_world(page, True, preds, slots_tbl)], scenario)
    assert builds == []
    assert replay == reference


@settings(max_examples=30, deadline=None)
@given(scenarios(), scenarios())
def test_warm_process_cache_equals_interpreted(scenario, other):
    """Another program first runs at the same virtual addresses, so the
    process cache holds its pages under the very ``(hpfn, version)``
    keys and ``(vfn, trap signature)`` this world's pages get.  At the
    default promotion threshold those keys promote this world's pages at
    first touch; it must still run its own bytes, slice by slice."""
    preds, slots_tbl, slot_specs = scenario[:3]
    page = _assemble(slot_specs)
    with _counting_builds():
        _drive(
            [_make_world(_assemble(other[2]), True, other[0], other[1])], other
        )
        worlds = [
            _make_world(page, jit, preds, slots_tbl, jit_mod.PROMOTE_THRESHOLD)
            for jit in (False, True)
        ]
        _drive(worlds, scenario)
