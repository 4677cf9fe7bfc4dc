"""Unit tests for the block-translation layer (repro.hypervisor.jit)."""

import sys
import threading
from types import SimpleNamespace

import pytest

import repro.hypervisor.jit as jit_mod
from repro.core.facechange import FaceChange
from repro.fleet.jobs import (
    execute_job,
    profile_app_offline,
    run_job_on_fresh_machine,
)
from repro.fleet.spec import FleetJob
from repro.guest.machine import boot_machine
from repro.hypervisor.jit import env_jit_enabled
from repro.hypervisor.vcpu import SemanticsBridge, Vcpu
from repro.hypervisor.vmexit import VmExitReason
from repro.kernel.runtime import Platform
from repro.memory.ept import ExtendedPageTable
from repro.memory.layout import PAGE_SIZE
from repro.memory.mmu import Mmu
from repro.memory.paging import GuestPageTable
from repro.memory.physmem import PhysicalMemory
from repro.telemetry import Journal, Telemetry

CODE_BASE = 0x00010000
STACK_TOP = 0x00020FF0


class NullBridge(SemanticsBridge):
    def interrupt_pending(self, vcpu):
        return False


def make_world(jit=True, threshold=1, next_gpa=None):
    """A one-vCPU world with identity-mapped code and stack pages;
    ``next_gpa`` maps the page after the first code page elsewhere."""
    physmem = PhysicalMemory()
    ept = ExtendedPageTable()
    pt = GuestPageTable()
    for gva in range(0x10000, 0x22000, PAGE_SIZE):
        pt.map_page(gva, gva)
    if next_gpa is not None:
        pt.map_page(CODE_BASE + PAGE_SIZE, next_gpa)
    mmu = Mmu(physmem, ept)
    mmu.set_cr3(pt)
    vcpu = Vcpu(0, mmu, NullBridge())
    vcpu.esp = STACK_TOP
    vcpu.ebp = STACK_TOP
    vcpu.eip = CODE_BASE
    if jit:
        vcpu.set_jit(True)
        vcpu._jit.threshold = threshold
    return physmem, vcpu


def write_loop(physmem, base=CODE_BASE):
    """Two basic blocks jumping at each other: a fused superblock whose
    final transfer is a back-edge to the member entry."""
    a = b"\x90" * 4 + b"\xe9" + (0x17).to_bytes(4, "little")  # 0x0 -> 0x20
    b = b"\x90" * 4 + b"\xe9" + (-0x29 & 0xFFFFFFFF).to_bytes(4, "little")
    physmem.write(base, a)
    physmem.write(base + 0x20, b)


@pytest.fixture(autouse=True)
def cold_process(monkeypatch):
    """Every test starts from empty process-wide caches (no promoted
    pages, no translated code): they outlive machines by design, so
    counters here would otherwise depend on the tests run before."""
    monkeypatch.setattr(jit_mod, "PROMOTED", set())
    monkeypatch.setattr(jit_mod, "_TRANSLATIONS", {})


# -- env toggle ------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        (None, True),
        ("1", True),
        ("on", True),
        ("yes", True),
        ("0", False),
        ("off", False),
        ("false", False),
        ("no", False),
        ("", False),
        ("  OFF  ", False),
    ],
)
def test_env_jit_enabled(monkeypatch, raw, expected):
    if raw is None:
        monkeypatch.delenv("REPRO_JIT", raising=False)
    else:
        monkeypatch.setenv("REPRO_JIT", raw)
    assert env_jit_enabled() is expected


def test_env_jit_enabled_custom_default(monkeypatch):
    monkeypatch.delenv("REPRO_JIT", raising=False)
    assert env_jit_enabled(default=False) is False


# -- misdecode events --------------------------------------------------------


@pytest.mark.parametrize("jit", [False, True])
def test_misdecodes_are_journaled_only_while_recording(jit):
    physmem, vcpu = make_world(jit=jit)
    physmem.write(CODE_BASE, b"\x0b\x0f" * 3 + b"\xf4")  # odd UD2 entries
    tel = Telemetry()
    vcpu.attach_telemetry(tel)
    journal = tel.attach_journal(Journal())
    assert vcpu.run(budget=100).reason is VmExitReason.HLT
    assert vcpu.misdecodes.value == 3
    rips = [r["fields"]["rip"] for r in journal.records() if r["kind"] == "misdecode"]
    assert rips == [CODE_BASE, CODE_BASE + 2, CODE_BASE + 4]
    if jit:
        assert vcpu._jit.promotions.value == 1  # the generated code ran
    tel.detach_journal()
    vcpu.eip = CODE_BASE
    assert vcpu.run(budget=100).reason is VmExitReason.HLT
    assert vcpu.misdecodes.value == 6
    assert len(journal.records()) == 3


# -- promotion and counters ------------------------------------------------


def test_cold_page_is_interpreted_then_promoted():
    physmem, vcpu = make_world(threshold=3)
    write_loop(physmem)
    jit = vcpu._jit
    vcpu.run(budget=1)
    assert jit.promotions.value == 0  # heat 1 of 3
    vcpu.run(budget=1)
    assert jit.promotions.value == 0
    vcpu.run(budget=50)
    assert jit.promotions.value == 1
    assert jit.blocks.value >= 1
    assert len(jit.tables) == 1


def test_superblock_fuses_loop_and_counts():
    physmem, vcpu = make_world()
    write_loop(physmem)
    exit_ = vcpu.run(budget=200)
    jit = vcpu._jit
    assert exit_.reason is VmExitReason.BUDGET
    # budget overshoot is block-granular, exactly like the interpreter
    physmem2, ref = make_world(jit=False)
    write_loop(physmem2)
    ref.run(budget=200)
    assert vcpu.instructions == ref.instructions
    assert vcpu.cycles == ref.cycles
    assert jit.superblocks.value >= 1
    # the loop body became a member of the page's table
    group = next(iter(jit.tables.values()))
    assert 0 in group.active.members


def test_set_jit_off_drops_state_and_stays_identical():
    physmem, vcpu = make_world()
    write_loop(physmem)
    vcpu.run(budget=100)
    vcpu.set_jit(False)
    assert vcpu._jit is None and not vcpu.jit_enabled
    vcpu.run(budget=100)  # interpreted continuation
    assert vcpu.instructions == 200
    physmem2, ref = make_world(jit=False)
    write_loop(physmem2)
    ref.run(budget=200)
    assert (ref.eip, ref.cycles, ref.instructions) == (
        vcpu.eip,
        vcpu.cycles,
        vcpu.instructions,
    )


# -- invalidation sources --------------------------------------------------


def test_trap_arming_revalidates_with_alternates():
    physmem, vcpu = make_world()
    write_loop(physmem)
    vcpu.run(budget=100)
    jit = vcpu._jit
    group = next(iter(jit.tables.values()))
    first = group.active
    # arm a trap inside the page: signature changes, new table
    trap = CODE_BASE + 4
    vcpu.arm_trap(trap)
    exit_ = vcpu.run(budget=100)
    assert exit_.reason is VmExitReason.ADDRESS_TRAP
    assert exit_.rip == trap
    assert group.active is not first
    assert jit.invalidations.values.get("trap") == 1
    # disarm: the original table is an alternate, no re-translation
    vcpu.resume_past_trap()
    vcpu.disarm_trap(trap)
    vcpu.run(budget=100)
    assert group.active is first
    assert jit.invalidations.values.get("trap") == 1  # unchanged


def test_version_bump_orphans_the_old_table():
    physmem, vcpu = make_world()
    write_loop(physmem)
    vcpu.run(budget=100)
    jit = vcpu._jit
    (old_key,) = jit.tables.keys()
    physmem.bump_version(CODE_BASE >> 12)
    vcpu.run(budget=100)
    assert jit.promotions.value == 2  # re-promoted under the new version
    new_keys = set(jit.tables)
    assert old_key in new_keys  # orphaned until capacity sweep
    assert any(k != old_key for k in new_keys)


def test_flush_counts_invalidations():
    physmem, vcpu = make_world()
    write_loop(physmem)
    vcpu.run(budget=100)
    jit = vcpu._jit
    assert jit.tables
    vcpu.invalidate_translation_caches()
    assert not jit.tables and not jit.heat and not jit.code_pages
    assert jit.invalidations.values.get("flush", 0) >= 1


# -- cross-page fetch (first >= 8 fast path + spanning offsets) ------------


def test_fetch_cross_page_boundary_offsets():
    """decode via _fetch_cross_page at every offset near the page end:
    >= 8 bytes left takes the linear-read fast path, < 8 the two-page
    stitch; both must yield the same instruction."""
    for off in range(PAGE_SIZE - 16, PAGE_SIZE - 4):
        physmem, vcpu = make_world(jit=False)
        imm = 0xDEAD0000 | off
        instr_bytes = b"\x68" + imm.to_bytes(4, "little")  # push imm32
        physmem.write(CODE_BASE + off, instr_bytes)
        vcpu.eip = CODE_BASE + off
        instr = vcpu._fetch_cross_page()
        assert instr.length == 5
        assert instr.operand == imm, hex(off)


def test_spanning_instruction_executes_identically():
    results = []
    for jit in (False, True):
        physmem, vcpu = make_world(jit=jit)
        off = PAGE_SIZE - 2  # push imm32 spanning the page boundary
        imm = 0x11223344
        physmem.write(CODE_BASE + off, b"\x68" + imm.to_bytes(4, "little"))
        physmem.write(CODE_BASE + off + 5, b"\xf4")  # hlt on page 2
        # jump from the entry straight to the spanning instruction
        rel = off - 5
        physmem.write(CODE_BASE, b"\xe9" + (rel & 0xFFFFFFFF).to_bytes(4, "little"))
        for _ in range(6):  # heat + translated re-execution
            exit_ = vcpu.run(budget=100)
            assert exit_.reason is VmExitReason.HLT
            vcpu.eip = CODE_BASE
        results.append((vcpu.esp, vcpu.cycles, vcpu.instructions))
        assert vcpu.read_stack_u32(vcpu.esp) == imm
    assert results[0] == results[1]


# -- process-wide translation cache ----------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The entry offset of every member generated while the test runs
    (the process-wide caches start empty, see ``cold_process``)."""
    calls = []
    real = jit_mod._Codegen.build

    def counting(self, entry_off):
        calls.append(entry_off)
        return real(self, entry_off)

    monkeypatch.setattr(jit_mod._Codegen, "build", counting)
    return calls


def test_spanning_member_is_keyed_by_the_next_frame(builds):
    """The same spanning instruction with the next virtual page on a
    different frame: the second machine must build its own member (the
    first one's guard names the other frame), and a third machine with
    the first mapping still finds the first member."""
    off = PAGE_SIZE - 2  # push imm32 spanning the page boundary
    imm = 0x11223344
    spans = []
    for next_gpa in (CODE_BASE + PAGE_SIZE, 0x30000, CODE_BASE + PAGE_SIZE):
        results = []
        for jit in (False, True):
            del builds[:]
            _, vcpu = make_world(jit=jit, next_gpa=next_gpa)
            mmu = vcpu.mmu
            mmu.write(CODE_BASE + off, b"\x68" + imm.to_bytes(4, "little"))
            mmu.write(CODE_BASE + off + 5, b"\xf4")  # hlt on page 2
            rel = off - 5
            mmu.write(CODE_BASE, b"\xe9" + (rel & 0xFFFFFFFF).to_bytes(4, "little"))
            for _ in range(6):
                exit_ = vcpu.run(budget=100)
                assert exit_.reason is VmExitReason.HLT
                vcpu.eip = CODE_BASE
            assert vcpu.read_stack_u32(vcpu.esp) == imm
            results.append((vcpu.esp, vcpu.cycles, vcpu.instructions))
            if jit:
                assert not vcpu._jit.invalidations.values.get("cross-page")
                spans.append(builds.count(off))
        assert results[0] == results[1]
    assert spans == [1, 1, 0]


def test_members_are_keyed_by_virtual_page_and_irq_state(builds):
    """The same loop bytes at another virtual page, or on a vCPU with a
    published interrupt deadline, must get members of their own: both
    bake the difference into the generated code."""

    def run(base, irq_state, jit):
        physmem, vcpu = make_world(jit=jit)
        vcpu.irq_state = irq_state
        vcpu.eip = base
        write_loop(physmem, base)
        vcpu.run(budget=200)
        return vcpu.eip, vcpu.cycles, vcpu.instructions

    never = SimpleNamespace(next_event=1 << 62)
    worlds = [(CODE_BASE, None), (CODE_BASE + 2 * PAGE_SIZE, None), (CODE_BASE, never)]
    for base, irq_state in worlds:
        del builds[:]
        assert run(base, irq_state, True) == run(base, irq_state, False)
        assert 0 in builds


def test_known_page_promotes_at_first_touch(builds):
    """A second machine promotes a page the first one promoted on its
    first execution: nothing is interpreted, and the member's code comes
    from the translation cache."""
    states = []
    for _ in range(2):
        physmem, vcpu = make_world(threshold=3)
        write_loop(physmem)
        del builds[:]
        vcpu.run(budget=50)
        assert vcpu._jit.promotions.value == 1
        states.append((vcpu.eip, vcpu.cycles, vcpu.instructions))
    assert states[0] == states[1]
    assert builds == []
    (group,) = vcpu._jit.tables.values()
    assert 0 in group.active.members
    # a cold page needs two interpreted runs first (threshold 3)
    assert vcpu.block_cache.hits.value + vcpu.block_cache.misses.value == 0


def test_same_key_with_other_bytes_gets_its_own_members(builds):
    """A frame that reuses a promoted ``(hpfn, version)`` with other
    bytes promotes early but never runs the other page's code."""
    physmem, vcpu = make_world(threshold=3)
    write_loop(physmem)
    vcpu.run(budget=50)
    # write_loop's layout and writes (so the same frame version), with
    # cli/sti and a frame-pointer move where write_loop has fillers
    a = b"\xfa" * 4 + b"\xe9" + (0x17).to_bytes(4, "little")
    b = b"\x89\xe5\xfa\xfb\xe9" + (-0x29 & 0xFFFFFFFF).to_bytes(4, "little")
    results = []
    for jit in (True, False):
        physmem2, other = make_world(jit=jit, threshold=3)
        physmem2.write(CODE_BASE, a)
        physmem2.write(CODE_BASE + 0x20, b)
        del builds[:]
        other.run(budget=50)
        results.append(
            (other.eip, other.esp, other.cycles, other.instructions, other.if_enabled)
        )
        if jit:
            assert other._jit.promotions.value == 1
            assert builds == [0]
    assert results[0] == results[1]


@pytest.fixture(scope="module")
def top_record():
    return profile_app_offline("top", scale=1)


def _fetches(result):
    """Interpreted block fetches (the decode cache's lookups)."""
    counters = result.telemetry["counters"]
    return counters["decode.hits"] + counters["decode.misses"]


def test_second_fork_is_served_from_the_translation_cache(
    builds, monkeypatch, top_record
):
    """Against an empty process cache, a second fork of one snapshot
    running the same job promotes the first fork's pages at first touch
    and reuses their code: far fewer interpreted blocks, the same score.
    It still generates the members for entries the first fork ran only
    while their page was cold; a third fork generates none."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    snapshot = boot_machine(platform=Platform.KVM).snapshot()
    job = FleetJob(app="top", scale=1, name="top#0")
    first = execute_job(snapshot.fork(), job, top_record)
    first_builds = len(builds)
    assert first_builds
    del builds[:]
    second = execute_job(snapshot.fork(), job, top_record)
    assert len(builds) < first_builds / 2
    assert second.score == first.score
    assert _fetches(second) <= _fetches(first) / 5
    promotions = first.telemetry["counters"]["jit.promotions"]
    assert promotions > 0
    assert second.telemetry["counters"]["jit.promotions"] == promotions
    del builds[:]
    third = execute_job(snapshot.fork(), job, top_record)
    assert builds == []
    assert third.score == first.score


def test_forks_reusing_view_frame_keys_score_like_fresh_machines(
    monkeypatch, top_record
):
    """top, then gzip, then top on forks of one snapshot.  Every fork
    allocates its private view frames at the same hpfns, so top's and
    gzip's share ``(hpfn, version)`` keys with different bytes; each
    score must still equal a fresh machine's."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    records = {"top": top_record, "gzip": profile_app_offline("gzip", scale=1)}
    jobs = [FleetJob(app=app, scale=1, name=app) for app in ("top", "gzip", "top")]
    expected = [
        run_job_on_fresh_machine(job, records[job.app]).score for job in jobs
    ]
    monkeypatch.setattr(jit_mod, "PROMOTED", set())
    monkeypatch.setattr(jit_mod, "_TRANSLATIONS", {})
    snapshot = boot_machine().snapshot()
    scores = []
    pages = []
    for job in jobs:
        clone = snapshot.fork()
        scores.append(execute_job(clone, job, records[job.app]).score)
        tables = clone.vcpu._jit.tables
        pages.append({key: group.active.data for key, group in tables.items()})
        clone.close()
    assert scores == expected
    shared_keys = set(pages[0]) & set(pages[1])
    assert any(pages[0][key] != pages[1][key] for key in shared_keys)


def test_threads_racing_on_an_empty_cache_match_a_serial_run(
    builds, monkeypatch, top_record
):
    """More worker threads than cores fill one empty cache at once, with
    a short switch interval: every job scores exactly like a serial run
    and promotes the same pages (a lost insert may only cost a rebuild;
    how many members each one generates depends on the race)."""
    monkeypatch.delenv("REPRO_JIT", raising=False)
    snapshot = boot_machine(platform=Platform.KVM).snapshot()
    job = FleetJob(app="top", scale=1, name="top#0")

    def score_and_promotions(result):
        return result.score, result.telemetry["counters"]["jit.promotions"]

    expected = score_and_promotions(execute_job(snapshot.fork(), job, top_record))
    monkeypatch.setattr(jit_mod, "PROMOTED", set())
    monkeypatch.setattr(jit_mod, "_TRANSLATIONS", {})
    forks = [snapshot.fork() for _ in range(4)]
    results = [None] * len(forks)

    def work(i):
        results[i] = score_and_promotions(execute_job(forks[i], job, top_record))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(forks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * len(forks)


# -- machine / facechange / fork wiring ------------------------------------


def test_machine_jit_default_and_override(monkeypatch):
    monkeypatch.delenv("REPRO_JIT", raising=False)
    machine = boot_machine(platform=Platform.KVM)
    assert machine.jit_enabled
    assert all(v.jit_enabled for v in machine.vcpus)
    off = boot_machine(platform=Platform.KVM, jit=False)
    assert not off.jit_enabled
    assert not any(v.jit_enabled for v in off.vcpus)
    off.set_jit(True)
    assert all(v.jit_enabled for v in off.vcpus)


def test_machine_jit_env_toggle(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    machine = boot_machine(platform=Platform.KVM)
    assert not machine.jit_enabled


def test_facechange_enable_picks_up_env(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    machine = boot_machine(platform=Platform.KVM, jit=True)
    fc = FaceChange(machine)
    fc.enable()
    assert not machine.jit_enabled
    assert not any(v.jit_enabled for v in machine.vcpus)


def test_fork_keeps_jit_enabled_with_flushed_tables(monkeypatch):
    monkeypatch.delenv("REPRO_JIT", raising=False)
    machine = boot_machine(platform=Platform.KVM)
    clone = machine.snapshot().fork()
    vcpu = clone.vcpu
    assert vcpu.jit_enabled
    assert not vcpu._jit.tables and not vcpu._jit.code_pages
