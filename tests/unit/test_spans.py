"""Causal span recorder: parenting, per-CPU stacks, journaling."""

from repro.obs import chains_for_app, render_journal_narrative
from repro.telemetry import Journal, SpanRecorder, Telemetry, build_span_trees


def test_auto_parenting_from_open_stack():
    rec = SpanRecorder()
    root = rec.open("vmexit", cycles=10)
    child = rec.open("recovery", cycles=20)
    grandchild = rec.open("backtrace", cycles=30)
    assert root.parent_id is None
    assert child.parent_id == root.span_id
    assert grandchild.parent_id == child.span_id
    rec.close(grandchild, cycles=35)
    # after closing, the stack top is the child again
    sibling = rec.open("backtrace", cycles=40)
    assert sibling.parent_id == child.span_id
    rec.close(sibling, cycles=45)
    rec.close(child, cycles=50)
    rec.close(root, cycles=60)
    assert rec.current(0) is None


def test_per_cpu_stacks_are_independent():
    rec = SpanRecorder()
    a = rec.open("vmexit", cpu=0, cycles=1)
    b = rec.open("vmexit", cpu=1, cycles=2)
    child1 = rec.open("recovery", cpu=1, cycles=3)
    assert b.parent_id is None, "cpu1 root must not parent under cpu0"
    assert child1.parent_id == b.span_id
    assert rec.current(0) is a
    assert rec.current(1) is child1


def test_explicit_parent_overrides_stack():
    rec = SpanRecorder()
    root = rec.open("vmexit", cycles=1)
    other = rec.open("detour", cycles=2)
    explicit = rec.open("recovery", cycles=3, parent=root.span_id)
    assert explicit.parent_id == root.span_id
    assert other.parent_id == root.span_id
    explicit2 = rec.open("recovery", cycles=4, parent=None)
    assert explicit2.parent_id is None


def test_close_journals_the_record():
    journal = Journal()
    rec = SpanRecorder()
    rec.bind(journal)
    span = rec.open("vmexit", cycles=5, reason="INVALID_OPCODE")
    rec.close(span, cycles=9, charged=4)
    records = journal.records()
    assert len(records) == 1
    (record,) = records
    assert record["t"] == "span"
    assert record["kind"] == "vmexit"
    assert record["start"] == 5 and record["end"] == 9
    assert record["attrs"] == {"reason": "INVALID_OPCODE", "charged": 4}
    assert record["parent"] is None


def test_event_attaches_zero_duration_child():
    journal = Journal()
    rec = SpanRecorder()
    rec.bind(journal)
    span = rec.open("recovery", cycles=5)
    rec.event(span, "provenance", cycles=7, verdict="benign")
    rec.close(span, cycles=9)
    trees = build_span_trees(journal.records())
    assert len(trees) == 1
    (root,) = trees
    assert root.kind == "recovery"
    assert [c.kind for c in root.children] == ["provenance"]
    child = root.children[0]
    assert child.record["start"] == child.record["end"] == 7
    assert child.attrs["verdict"] == "benign"
    # the zero-duration child never occupied the open stack
    assert rec.current(0) is None


def test_children_precede_parents_in_journal_order():
    journal = Journal()
    rec = SpanRecorder()
    rec.bind(journal)
    root = rec.open("vmexit", cycles=1)
    child = rec.open("recovery", cycles=2)
    rec.close(child, cycles=3)
    rec.close(root, cycles=4)
    kinds = [r["kind"] for r in journal.records()]
    assert kinds == ["recovery", "vmexit"]
    trees = build_span_trees(journal.records())
    assert [t.kind for t in trees] == ["vmexit"]
    assert [c.kind for c in trees[0].children] == ["recovery"]


def test_reset_clears_open_stacks():
    rec = SpanRecorder()
    rec.open("vmexit", cycles=1)
    rec.reset()
    assert rec.current(0) is None
    fresh = rec.open("vmexit", cycles=2)
    assert fresh.parent_id is None


def _recorded_journal():
    """A recovery chain and two events outside any span, in cycle order:
    a view load at 1, the chain at 5..9, a module load at 20."""
    tel = Telemetry()
    journal = tel.attach_journal(Journal())
    tel.emit("view_load", cycles=1, view=0, app="top")
    span = tel.spans.open("vmexit", cycles=5, reason="INVALID_OPCODE", rip=0x10)
    tel.emit("ctxsw_trap", cycles=6, comm="top", pid=7, view=0)
    tel.spans.close(span, cycles=9)
    tel.emit("module_load", cycles=20, module="kbeast", views=1)
    return journal


def test_events_outside_any_span_become_roots_in_cycle_order():
    trees = build_span_trees(_recorded_journal().records())
    assert [t.kind for t in trees] == ["view_load", "vmexit", "module_load"]
    assert [t.is_event for t in trees] == [True, False, True]
    # the trap inside the span attaches to it, not to the roots
    assert [e["kind"] for e in trees[1].events] == ["ctxsw_trap"]
    assert trees[2].to_dict()["fields"] == {"module": "kbeast", "views": 1}


def test_narrative_limit_omits_later_chains():
    journal = _recorded_journal()
    journal.close()
    text = render_journal_narrative(journal.data(), limit=2)
    lines = text.splitlines()
    view_load = next(i for i, line in enumerate(lines) if "view_load:" in line)
    vmexit = next(i for i, line in enumerate(lines) if "vmexit " in line)
    assert view_load < vmexit
    assert "module_load" not in text
    assert "(1 further chains omitted)" in text
    assert "module_load: module=kbeast views=1 [cpu0 cycles 20]" in (
        render_journal_narrative(journal.data(), limit=0)
    )


def test_chains_for_app_keeps_chains_naming_the_app():
    journal = _recorded_journal()
    kept = chains_for_app(journal.data(), "top")
    # the view load names top by ``app``, the exit holds top's trap by
    # ``comm``; the module load names no application
    assert [t.kind for t in build_span_trees(kept.records)] == [
        "view_load", "vmexit",
    ]
    assert [r["seq"] for r in kept.records] == [1, 2, 3]
    assert chains_for_app(journal.data(), "gzip").records == []
