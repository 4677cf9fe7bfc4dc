"""Unit tests for the persistent observability archive (repro.obs.store).

Covers the durability rules the module docstring promises: segment
rotation by size and age, restart-safe numbering, torn-tail tolerance,
retention deletion, 60s-exact compaction, per-request trace journals,
and the query/trace/capacity read paths.
"""

import json

import pytest

from repro.obs.metrics import AlertTransition, SeriesBank
from repro.obs.store import (
    ObsStore,
    ObsStoreError,
    query_series,
    read_archive,
    read_trace_journal,
    rebuild_alerts,
    rebuild_bank,
    rebuild_export,
    render_query_prom,
    render_query_table,
    render_trace,
)
from repro.telemetry.journal import parse_journal


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt
        return self.now


def make_store(tmp_path, clock=None, **kwargs):
    kwargs.setdefault("rotate_bytes", 1 << 20)
    kwargs.setdefault("rotate_seconds", 1e9)
    kwargs.setdefault("retain_seconds", 1e12)
    kwargs.setdefault("compact_after", 1e12)
    return ObsStore(
        tmp_path / "obs", clock=clock or FakeClock(), **kwargs
    )


def feed(store, bank, clock, ticks, names=("a", "b"), labels=("", "x")):
    """Drive identical observations into the live bank and the store."""
    for i in range(ticks):
        t = clock.advance(1.0)
        points = []
        for name in names:
            for label in labels:
                value = float(i * 7 + hash((name, label)) % 13)
                bank.observe(name, t, value, label=label, label_key="tenant")
                points.append((name, label, "tenant", t, value))
        store.append_sample(t, points)


# -- write / read round trip ---------------------------------------------------


def test_round_trip_rebuild_is_bit_equal(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=30)
    store.close()
    archive = read_archive(tmp_path / "obs")
    assert archive.torn_segments == 0
    rebuilt = rebuild_bank(archive)
    assert rebuilt.export() == bank.export()


def test_rebuild_export_carries_recorder_meta(tmp_path):
    clock = FakeClock()
    store = ObsStore(
        tmp_path / "obs",
        meta={"interval": 0.25, "resolutions": [1.0, 10.0, 60.0],
              "capacity": 120},
        clock=clock,
    )
    bank = SeriesBank()
    feed(store, bank, clock, ticks=3)
    store.close()
    export = rebuild_export(read_archive(tmp_path / "obs"))
    assert export["interval"] == 0.25
    assert export["samples"] == 3
    assert export["series"] == bank.export()


def test_alert_round_trip(tmp_path):
    store = make_store(tmp_path)
    original = AlertTransition(
        rule="queue_saturated",
        label="",
        state="firing",
        value=0.97,
        threshold=0.9,
        at=1003.0,
        description="queue is nearly full",
    )
    store.append_alert(original)
    store.close()
    transitions = rebuild_alerts(read_archive(tmp_path / "obs"))
    assert [t.to_dict() for t in transitions] == [original.to_dict()]


def test_events_are_archived_with_store_timestamps(tmp_path):
    clock = FakeClock(500.0)
    store = make_store(tmp_path, clock)
    store.append_event({"type": "queued", "id": "job-1", "trace": "abc"})
    store.close()
    archive = read_archive(tmp_path / "obs")
    assert len(archive.events) == 1
    assert archive.events[0]["at"] == 500.0
    assert archive.events[0]["event"]["trace"] == "abc"


# -- rotation / restart --------------------------------------------------------


def test_rotation_by_size(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock, rotate_bytes=1024)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=50)
    store.close()
    archive = read_archive(tmp_path / "obs")
    assert archive.segments > 1
    # rotation is invisible to reconstruction
    assert rebuild_bank(archive).export() == bank.export()


def test_rotation_by_age(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock, rotate_seconds=5.0)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=12)
    store.close()
    archive = read_archive(tmp_path / "obs")
    assert archive.segments >= 2
    assert rebuild_bank(archive).export() == bank.export()


def test_restart_continues_segment_numbering(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock)
    store.append_event({"type": "serve-started"})
    store.close()
    again = make_store(tmp_path, clock)
    again.append_event({"type": "serve-started"})
    again.close()
    names = sorted(
        p.name for p in (tmp_path / "obs" / "segments").iterdir()
    )
    assert names == ["seg-000001.jsonl", "seg-000002.jsonl"]
    archive = read_archive(tmp_path / "obs")
    assert archive.segments == 2
    assert len(archive.events) == 2


def test_rejects_tiny_rotate_bytes(tmp_path):
    with pytest.raises(ObsStoreError):
        ObsStore(tmp_path / "obs", rotate_bytes=10)


def test_read_archive_rejects_non_archive_dir(tmp_path):
    with pytest.raises(ObsStoreError):
        read_archive(tmp_path)


# -- torn tails ----------------------------------------------------------------


def _truncate_last_line(path, keep_bytes=7):
    raw = path.read_bytes()
    cut = raw.rstrip(b"\n").rfind(b"\n")
    path.write_bytes(raw[: cut + 1 + keep_bytes])


def test_torn_tail_recovers_records_before_the_tear(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=10)
    # crash: no close(), then the last line is half-written
    segment = next((tmp_path / "obs" / "segments").iterdir())
    _truncate_last_line(segment)
    archive = read_archive(tmp_path / "obs")
    store.close()  # only after the read, which saw no footer
    assert archive.torn_segments == 1
    assert archive.sample_count() == 9  # everything before the tear
    expected = SeriesBank()
    replayed = 0
    for record in archive.samples:
        for name, label, label_key, t, value in record["points"]:
            expected.observe(name, t, value, label=label, label_key=label_key)
            replayed += 1
    assert replayed > 0
    assert rebuild_bank(archive).export() == expected.export()


def test_garbage_line_counts_as_torn_not_fatal(tmp_path):
    store = make_store(tmp_path)
    store.append_event({"type": "queued", "id": "j"})
    segment = next((tmp_path / "obs" / "segments").iterdir())
    with open(segment, "a", encoding="utf-8") as fh:
        fh.write("{this is not json\n")
    archive = read_archive(tmp_path / "obs")
    store.close()  # only after the read, which saw no footer
    assert archive.torn_segments == 1
    assert len(archive.events) == 1


# -- retention / compaction ----------------------------------------------------


def test_retention_deletes_expired_segments(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock, retain_seconds=100.0)
    store.append_event({"type": "old"})
    store.rotate()
    clock.advance(500.0)
    store.append_event({"type": "new"})
    stats = store.maintain()
    assert stats["deleted"] == 1
    store.close()
    archive = read_archive(tmp_path / "obs")
    kinds = [e["event"]["type"] for e in archive.events]
    assert kinds == ["new"]


def test_compaction_keeps_60s_ring_bit_equal(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock, rotate_bytes=2048)
    bank = SeriesBank()
    # several minutes of ticks so multiple 60s windows commit,
    # spread across several segments
    feed(store, bank, clock, ticks=300, names=("m",), labels=("", "t1"))
    store.rotate()  # close the tail so every sample is compactable
    assert store.compact_all() > 0
    store.close()
    archive = read_archive(tmp_path / "obs")
    rebuilt = rebuild_bank(archive)
    for label in ("", "t1"):
        live = bank.get("m", label).export()["60.0"]
        cold = rebuilt.get("m", label).export()["60.0"]
        assert cold == live
    # compaction dropped intermediate refreshers
    assert archive.headers[0].get("compacted") is True


def test_compaction_is_idempotent(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=200, names=("m",), labels=("",))
    store.rotate()
    store.compact_all()
    first = read_archive(tmp_path / "obs").samples
    store.compact_all()
    second = read_archive(tmp_path / "obs").samples
    store.close()
    assert first == second


# -- trace journals ------------------------------------------------------------


def _journal_records(n, start_seq=1):
    return [
        {"t": "span", "seq": start_seq + i, "kind": "open", "id": i + 1,
         "name": "vmexit", "cycles": 100 * i}
        for i in range(n)
    ]


def test_trace_journal_clean_close_parses_strictly(tmp_path):
    store = make_store(tmp_path)
    writer = store.job_journal("abc123", meta={"job": "job-1", "app": "top"})
    writer.extend(_journal_records(3), dropped=0)
    writer.extend(_journal_records(2, start_seq=4), dropped=1)
    writer.close()
    store.close()
    parsed = parse_journal(
        (tmp_path / "obs" / "traces" / "abc123.jsonl")
        .read_text()
        .splitlines()
    )
    assert parsed.meta["job"] == "job-1"
    assert len(parsed.records) == 5
    assert parsed.dropped == 1
    assert parsed.complete
    got_meta, got_records, torn = read_trace_journal(
        tmp_path / "obs", "abc123"
    )
    assert got_meta["app"] == "top"
    assert len(got_records) == 5
    assert torn is False


def test_trace_journal_torn_tail_recovers(tmp_path):
    store = make_store(tmp_path)
    writer = store.job_journal("tearme", meta={"job": "job-2"})
    writer.extend(_journal_records(4), dropped=0)
    # crash: never closed, last line half-written
    path = tmp_path / "obs" / "traces" / "tearme.jsonl"
    _truncate_last_line(path)
    store.close()
    meta, records, torn = read_trace_journal(tmp_path / "obs", "tearme")
    writer.close()  # only after the read, which saw no footer
    assert torn is True
    assert meta["job"] == "job-2"
    assert len(records) == 3


def test_trace_id_is_sanitized_for_filenames(tmp_path):
    store = make_store(tmp_path)
    writer = store.job_journal("../evil/../../id", meta={})
    writer.close()
    store.close()
    names = [p.name for p in (tmp_path / "obs" / "traces").iterdir()]
    assert names == [".._evil_.._.._id.jsonl"]


def test_empty_trace_id_gets_no_journal(tmp_path):
    store = make_store(tmp_path)
    assert store.job_journal("", meta={}) is None
    store.close()


# -- queries -------------------------------------------------------------------


def test_query_series_narrows_and_renders(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=20)
    store.close()
    result = query_series(tmp_path / "obs", name="a", label="x")
    assert sorted(result["series"]) == ["a"]
    assert sorted(result["series"]["a"]["series"]) == ["x"]
    assert result["archive"]["samples"] == 20
    table = render_query_table(result)
    assert "a" in table and "20 sample tick(s)" in table
    prom = render_query_prom(result)
    assert prom.startswith("# HELP") or "repro_" in prom
    with pytest.raises(ObsStoreError):
        query_series(tmp_path / "obs", name="nope")


def test_query_series_time_window(tmp_path):
    clock = FakeClock()
    store = make_store(tmp_path, clock)
    bank = SeriesBank()
    feed(store, bank, clock, ticks=20, names=("m",), labels=("",))
    store.close()
    result = query_series(
        tmp_path / "obs", name="m", since=1005.0, until=1010.0
    )
    points = result["series"]["m"]["series"][""]["1.0"]["points"]
    assert points
    assert all(1005.0 <= t <= 1010.0 for t, _ in points)


def test_render_trace_unknown_id_raises(tmp_path):
    store = make_store(tmp_path)
    store.append_event({"type": "queued", "id": "j", "trace": "other"})
    store.close()
    with pytest.raises(ObsStoreError):
        render_trace(tmp_path / "obs", "missing")


def test_render_trace_joins_events_alerts_and_spans(tmp_path):
    clock = FakeClock(2000.0)
    store = make_store(tmp_path, clock)
    trace = "feedface" * 4
    store.append_event(
        {"type": "queued", "id": "job-1", "job": "top#0", "app": "top",
         "tenant": "acme", "trace": trace, "priority": 0}
    )
    clock.advance(0.5)
    store.append_event(
        {"type": "start", "id": "job-1", "job": "top#0", "app": "top",
         "tenant": "acme", "trace": trace}
    )
    store.append_alert(
        AlertTransition(
            rule="queue_saturated", label="", state="firing", value=0.95,
            threshold=0.9, at=clock.now, description="hot",
        )
    )
    clock.advance(1.0)
    store.append_event(
        {"type": "done", "id": "job-1", "job": "top#0", "tenant": "acme",
         "trace": trace, "cycles": 12345, "ok": True}
    )
    writer = store.job_journal(trace, meta={"job": "job-1"})
    writer.extend(
        [
            {"t": "span", "seq": 1, "kind": "open", "id": 1, "parent": None,
             "name": "vmexit", "cycles": 0,
             "attrs": {"trace": trace, "kind": "ADDRESS_TRAP", "rip": 1}},
            {"t": "span", "seq": 2, "kind": "close", "id": 1, "cycles": 50},
        ],
        dropped=0,
    )
    writer.close()
    store.close()
    out = render_trace(tmp_path / "obs", trace)
    assert trace in out
    assert "request lifecycle" in out
    assert "queued" in out and "started" in out and "finished" in out
    assert "alerts while in flight" in out
    assert "queue_saturated" in out
    assert "span forest" in out


def test_render_trace_shows_events_outside_any_span(tmp_path):
    store = make_store(tmp_path)
    trace = "beef" * 8
    writer = store.job_journal(trace, meta={"job": "job-1"})
    exits = [
        {"t": "span", "seq": i, "id": i, "parent": None, "kind": "vmexit",
         "cpu": 0, "start": i * 10, "end": i * 10 + 5, "status": "ok",
         "attrs": {"reason": "HLT", "rip": 0}}
        for i in range(1, 8)
    ]
    loose = {"t": "event", "seq": 8, "kind": "module_load", "cycles": 100,
             "cpu": 0, "span": None, "fields": {"module": "kbeast"}}
    writer.extend(exits + [loose], dropped=0)
    writer.close()
    store.close()
    out = render_trace(tmp_path / "obs", trace)
    # bare exits past the fifth are skipped; the module load is not
    assert out.count("vmexit HLT") == 5
    assert "module_load: module=kbeast [cpu0 cycles 100]" in out


def test_json_lines_are_compact_and_sorted(tmp_path):
    store = make_store(tmp_path)
    store.append_event({"type": "queued", "id": "j"})
    store.close()
    segment = next((tmp_path / "obs" / "segments").iterdir())
    for line in segment.read_text().splitlines():
        record = json.loads(line)
        assert line == json.dumps(
            record, separators=(",", ":"), sort_keys=True
        )
