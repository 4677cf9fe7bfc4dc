"""Exit-dispatch pipeline tests: stages, instrumentation, trap arming."""

import pytest

from repro.hypervisor.kvm import (
    ExitStage,
    GuestCrash,
    Hypervisor,
    VMEXIT_COST_CYCLES,
)
from repro.hypervisor.vcpu import SemanticsBridge, Vcpu
from repro.hypervisor.vmexit import VmExitReason
from repro.memory.ept import ExtendedPageTable
from repro.memory.mmu import Mmu
from repro.memory.paging import GuestPageTable
from repro.memory.physmem import PhysicalMemory
from repro.telemetry import Journal

CODE = 0x00010000
#: park: hlt; jmp back to the hlt (keeps idle exits flowing until budget)
PARK = b"\xf4\xe9\xfa\xff\xff\xff"


class IdleBridge(SemanticsBridge):
    def interrupt_pending(self, vcpu):
        return False


def make_world(vcpu_count=1):
    physmem = PhysicalMemory()
    hv = Hypervisor(physmem)
    pt = GuestPageTable()
    pt.map_page(CODE, CODE)
    pt.map_page(0x00020000, 0x00020000)
    vcpus = []
    for cpu_id in range(vcpu_count):
        ept = ExtendedPageTable()
        mmu = Mmu(physmem, ept)
        mmu.set_cr3(pt)
        vcpu = Vcpu(cpu_id, mmu, IdleBridge())
        vcpu.eip = CODE
        vcpu.esp = 0x00020FF0 - cpu_id * 64
        hv.attach_vcpu(vcpu, ept)
        vcpus.append(vcpu)
    return physmem, hv, vcpus


class TestPipelineShape:
    def test_default_stage_order(self):
        _, hv, _ = make_world()
        assert [s.reason for s in hv.pipeline] == [
            VmExitReason.ADDRESS_TRAP,
            VmExitReason.INVALID_OPCODE,
            VmExitReason.HLT,
            VmExitReason.ERROR,
        ]

    def test_stage_for(self):
        _, hv, _ = make_world()
        stage = hv.stage_for(VmExitReason.HLT)
        assert stage is hv.pipeline[2]
        assert hv.stage_for(VmExitReason.BUDGET) is None

    def test_replacing_a_stage_keeps_position(self):
        _, hv, _ = make_world()
        handled = []

        class CountingHlt(ExitStage):
            reason = VmExitReason.HLT
            name = "hlt"

            def handle(self, hv_, vcpu, exit_):
                handled.append(exit_.rip)

        hv.add_stage(CountingHlt())
        assert [s.reason for s in hv.pipeline].count(VmExitReason.HLT) == 1
        physmem, vcpu = hv.physmem, hv.vcpus[0]
        physmem.write(CODE, PARK)
        hv.run(vcpu, budget=2)
        assert handled  # the plugged stage handled the HLT exit


class TestInstrumentation:
    def test_per_reason_counters_and_histograms(self):
        physmem, hv, (vcpu,) = make_world()
        physmem.write(CODE, b"\x90" + PARK)
        hv.register_address_trap(CODE, lambda v, e: None)
        hv.set_idle_handler(lambda v: None)
        hv.run(vcpu, budget=40)
        tel = hv.telemetry
        assert tel.counter("hv.exits.address_trap").value == 1
        assert tel.counter("hv.exits.hlt").value >= 1
        hist = tel.histogram("hv.exit_cycles.address_trap")
        assert hist.count == 1
        assert hist.min >= VMEXIT_COST_CYCLES

    def test_histogram_includes_handler_charges(self):
        physmem, hv, (vcpu,) = make_world()
        physmem.write(CODE, b"\x90" + PARK)
        hv.register_address_trap(
            CODE, lambda v, e: hv.charge(v, 10_000)
        )
        hv.set_idle_handler(lambda v: None)
        hv.run(vcpu, budget=40)
        hist = hv.telemetry.histogram("hv.exit_cycles.address_trap")
        assert hist.max >= VMEXIT_COST_CYCLES + 10_000

    def test_stats_view_reads_registry(self):
        physmem, hv, (vcpu,) = make_world()
        physmem.write(CODE, b"\x90" + PARK)
        hv.register_address_trap(CODE, lambda v, e: None)
        hv.set_idle_handler(lambda v: None)
        hv.run(vcpu, budget=40)
        assert hv.stats.address_traps == 1
        assert hv.stats.per_trap_address[CODE] == 1
        assert hv.stats.hlt_exits == hv.telemetry.counter("hv.exits.hlt").value

    def test_vmexit_trace_events(self):
        physmem, hv, (vcpu,) = make_world()
        physmem.write(CODE, b"\x90" + PARK)
        journal = hv.telemetry.attach_journal(Journal())
        hv.register_address_trap(CODE, lambda v, e: None)
        hv.set_idle_handler(lambda v: None)
        hv.run(vcpu, budget=40)
        reasons = [
            r["attrs"]["reason"]
            for r in journal.records()
            if r["t"] == "span" and r["kind"] == "vmexit"
        ]
        assert "ADDRESS_TRAP" in reasons
        assert "HLT" in reasons


class TestTrapArming:
    """Regression tests for mixed global/per-vCPU trap consumers."""

    def test_global_unregister_keeps_per_vcpu_arming(self):
        _, hv, (v0, v1) = make_world(vcpu_count=2)
        hv.register_address_trap(CODE, lambda v, e: None)
        hv.register_address_trap(CODE, lambda v, e: None, vcpu=v1)
        hv.unregister_address_trap(CODE)  # drop only the global consumer
        assert CODE not in v0.trap_addresses
        assert CODE in v1.trap_addresses  # per-vCPU arming survives
        assert hv.trap_consumers(CODE)  # handler entry survives too

    def test_per_vcpu_unregister_keeps_global_arming(self):
        _, hv, (v0, v1) = make_world(vcpu_count=2)
        hv.register_address_trap(CODE, lambda v, e: None)
        hv.register_address_trap(CODE, lambda v, e: None, vcpu=v1)
        hv.unregister_address_trap(CODE, vcpu=v1)
        # the global consumer still needs the trap on every vCPU
        assert CODE in v0.trap_addresses
        assert CODE in v1.trap_addresses
        assert hv.trap_consumers(CODE)

    def test_handler_dropped_once_all_consumers_gone(self):
        _, hv, (v0, v1) = make_world(vcpu_count=2)
        hv.register_address_trap(CODE, lambda v, e: None)
        hv.register_address_trap(CODE, lambda v, e: None, vcpu=v1)
        hv.unregister_address_trap(CODE)
        hv.unregister_address_trap(CODE, vcpu=v1)
        assert CODE not in v0.trap_addresses
        assert CODE not in v1.trap_addresses
        assert not hv.trap_consumers(CODE)
        assert CODE not in hv._trap_entries

    def test_unregister_unknown_address_is_noop(self):
        _, hv, (v0,) = make_world()
        hv.unregister_address_trap(0xDEAD)  # must not raise
        hv.unregister_address_trap(0xDEAD, vcpu=v0)

    def test_surviving_per_vcpu_trap_still_fires(self):
        physmem, hv, (v0, v1) = make_world(vcpu_count=2)
        physmem.write(CODE, b"\x90" + PARK)
        seen = []
        hv.register_address_trap(CODE, lambda v, e: seen.append(("g", v.cpu_id)))
        hv.register_address_trap(
            CODE, lambda v, e: seen.append(("p", v.cpu_id)), vcpu=v1
        )
        hv.unregister_address_trap(CODE)  # global consumer leaves
        hv.set_idle_handler(lambda v: None)
        hv.run(v0, budget=30)  # not armed here any more
        hv.run(v1, budget=30)  # still armed here
        assert [cpu for _, cpu in seen] == [1]

    def test_error_exit_crashes_and_counts(self):
        physmem, hv, (vcpu,) = make_world()
        vcpu.eip = 0x00050000  # unmapped -> translation error exit
        with pytest.raises(GuestCrash):
            hv.run(vcpu, budget=10)
        assert hv.telemetry.counter("hv.exits.error").value == 1
