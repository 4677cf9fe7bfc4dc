"""The quickstart run as causal chains read from its span journal.

The acceptance shape for the flight recorder: one enforced run must
journal at least a context-switch trap, a view switch and a code
recovery -- and every recovery span must hold the provenance verdict of
its provenance-log entry as a child span, linked at runtime rather than
joined after the fact.
"""

from repro.core.facechange import FaceChange
from repro.guest.machine import boot_machine
from repro.kernel.objects import Compute, Syscall
from repro.kernel.runtime import Platform
from repro.obs import chains_for_app, render_journal_narrative
from repro.telemetry import Journal, build_span_trees, format_counters

Sys = Syscall


def top_workload(iters=8):
    def driver():
        tty = yield Sys("open", path="/dev/tty1")
        for _ in range(iters):
            fd = yield Sys("open", path="/proc/stat")
            yield Sys("read", fd=fd, count=2048)
            yield Sys("close", fd=fd)
            yield Sys("write", fd=tty, count=512)
            yield Compute(450_000)
            yield Sys("nanosleep", cycles=100_000)
    return driver


def recorded_run(top_config):
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording()
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(top_config, comm="top")
    task = machine.spawn("top", top_workload())
    machine.run(until=lambda: task.finished, max_cycles=80_000_000_000)
    assert task.finished
    machine.stop_recording()
    return machine, fc, journal


def _events(records, kind):
    return [r for r in records if r["t"] == "event" and r["kind"] == kind]


def _spans(records, kind):
    return [r for r in records if r["t"] == "span" and r["kind"] == kind]


def test_timeline_contains_the_causal_chain(top_config):
    machine, fc, journal = recorded_run(top_config)
    records = journal.records()

    ctxsw = _events(records, "ctxsw_trap")
    switches = _spans(records, "view_switch")
    recoveries = _spans(records, "recovery")
    assert ctxsw, "no context-switch trap journaled"
    assert switches, "no view switch span journaled"
    assert recoveries, "no code-recovery span journaled"

    # the deferred-switch chain is causally ordered: the trap selecting
    # the top view precedes the EPT flip that installs it
    first_trap = next(e for e in ctxsw if e["fields"]["comm"] == "top")
    first_install = next(s for s in switches if s["attrs"]["to_view"] == 0)
    assert first_trap["seq"] < first_install["seq"]
    assert first_trap["cycles"] <= first_install["start"]

    # view switches carry the charged EPT cost
    assert all(s["attrs"]["cost"] > 0 for s in switches)


def test_no_event_repeats_a_span(top_config):
    machine, fc, journal = recorded_run(top_config)
    records = journal.records()
    kinds = {r["kind"] for r in records if r["t"] == "event"}
    assert kinds, "no events journaled"
    assert not kinds & {"vmexit", "view_switch", "recovery", "probe"}
    # those four are spans, and every span opened was journaled
    assert _spans(records, "vmexit") and _spans(records, "view_switch")


def test_recovery_events_match_provenance_log(top_config):
    machine, fc, journal = recorded_run(top_config)
    recoveries = [
        node
        for tree in build_span_trees(journal.records())
        for node in tree.find("recovery")
        if node.record["status"] == "ok"
    ]
    assert recoveries
    assert len(recoveries) == len(fc.log)
    for node, entry in zip(recoveries, fc.log):
        (verdict,) = [c for c in node.children if c.kind == "provenance"]
        assert node.attrs["rip"] == entry.rip
        assert node.attrs["recovered"] == entry.recovered
        assert verdict.record["start"] == entry.cycles
        for field in ("pid", "comm", "view_app", "in_interrupt"):
            assert verdict.attrs[field] == getattr(entry, field), field


def test_counters_agree_with_trace(top_config):
    machine, fc, journal = recorded_run(top_config)
    tel = machine.telemetry
    records = journal.records()
    # nothing was dropped, so journal and counters agree
    assert journal.dropped == 0
    assert len(_events(records, "ctxsw_trap")) == fc.stats.context_switch_traps
    assert len(_spans(records, "view_switch")) == fc.stats.view_switches
    handled = [
        s for s in _spans(records, "recovery") if s["status"] == "ok"
    ]
    assert len(handled) == fc.stats.recoveries
    # every journaled vmexit reason was counted by its pipeline stage
    by_reason = {}
    for span in _spans(records, "vmexit"):
        reason = span["attrs"]["reason"]
        by_reason[reason] = by_reason.get(reason, 0) + 1
    assert by_reason.get("ADDRESS_TRAP", 0) == tel.counter(
        "hv.exits.address_trap"
    ).value
    assert by_reason.get("INVALID_OPCODE", 0) == tel.counter(
        "hv.exits.invalid_opcode"
    ).value


def test_per_app_timeline_filter(top_config):
    machine, fc, journal = recorded_run(top_config)
    trees = build_span_trees(chains_for_app(journal.data(), "top").records)
    assert trees
    assert len(trees) < len(build_span_trees(journal.records()))
    events = [e for tree in trees for node in _walk(tree) for e in node.events]
    kinds = {e["kind"] for e in events}
    kinds |= {node.kind for tree in trees for node in _walk(tree)}
    assert "ctxsw_trap" in kinds
    assert "recovery" in kinds or "view_switch" in kinds
    # idle task events are not attributed to top
    assert all(
        e["fields"]["comm"] != "swapper"
        for e in events
        if e["kind"] == "ctxsw_trap"
    )


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def test_trace_report_renders_all_sections(top_config):
    machine, fc, journal = recorded_run(top_config)
    text = format_counters(machine.telemetry) + "\n" + render_journal_narrative(
        journal.data(), limit=0
    )
    assert "switch.context_switch_traps" in text
    assert "== causal chains ==" in text
    assert "ctxsw_trap" in text
    assert "view switch:" in text
    assert "[no footer" not in text
    # every recovery is narrated with its provenance verdict beneath it
    assert text.count("recovery: filled") == len(fc.log)
    assert text.count("provenance: verdict=") == len(fc.log)


def test_tracing_off_records_nothing_but_counters_still_work(
    top_config, monkeypatch
):
    appended = []
    monkeypatch.setattr(
        Journal, "append", lambda self, kind, /, **payload: appended.append(kind)
    )
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(top_config, comm="top")
    task = machine.spawn("top", top_workload(iters=3))
    machine.run(until=lambda: task.finished, max_cycles=80_000_000_000)
    assert task.finished
    assert not machine.telemetry.recording
    assert appended == []
    assert fc.stats.context_switch_traps > 0
    assert machine.telemetry.counter("hv.exits.address_trap").value > 0
