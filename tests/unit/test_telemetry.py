"""Telemetry primitive unit tests: counters, histograms, events, export."""

import json

import pytest

from repro.telemetry import (
    Counter,
    Histogram,
    Journal,
    LabelledCounter,
    Telemetry,
    format_counters,
    load_journal,
    snapshot,
    to_json,
)


class TestCounters:
    def test_counter_inc(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.reset()
        assert c.value == 0

    def test_labelled_counter(self):
        c = LabelledCounter("per_addr")
        c.inc(0xC0100000)
        c.inc(0xC0100000)
        c.inc(0xC0200000, 3)
        assert c.get(0xC0100000) == 2
        assert c.get(0xDEAD) == 0
        assert c.total == 5
        assert c.values == {0xC0100000: 2, 0xC0200000: 3}

    def test_registry_get_or_create(self):
        tel = Telemetry()
        assert tel.counter("a") is tel.counter("a")
        assert tel.histogram("h") is tel.histogram("h")
        assert tel.labelled_counter("l") is tel.labelled_counter("l")
        tel.counter("a").inc()
        tel.reset()
        assert tel.counter("a").value == 0


class TestHistogram:
    def test_observe_stats(self):
        h = Histogram("cycles")
        for v in (0, 1, 2, 900, 900, 15000):
            h.observe(v)
        assert h.count == 6
        assert h.total == 16803
        assert h.min == 0
        assert h.max == 15000
        assert h.mean == pytest.approx(16803 / 6)

    def test_buckets_power_of_two(self):
        h = Histogram("x")
        h.observe(0)
        h.observe(1)
        h.observe(900)  # bit_length 10 -> bucket upper bound 1023
        bounds = dict(h.nonzero_buckets())
        assert bounds[0] == 1
        assert bounds[1] == 1
        assert bounds[1023] == 1

    def test_percentile(self):
        h = Histogram("x")
        for _ in range(99):
            h.observe(100)
        h.observe(10_000)
        assert h.percentile(0.5) == 127  # 100 falls in the 64..127 bucket
        assert h.percentile(1.0) == 16383

    def test_negative_clamped(self):
        h = Histogram("x")
        h.observe(-5)
        assert h.min == 0


class TestTracing:
    def test_repro_journal_dir_env_starts_recording(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(tmp_path))
        tel = Telemetry()
        assert tel.recording
        tel.emit("view_load", cycles=3)
        tel.detach_journal().close()
        (path,) = tmp_path.glob("journal-*.jsonl")
        assert [r["kind"] for r in load_journal(path).records] == ["view_load"]
        monkeypatch.delenv("REPRO_JOURNAL_DIR")
        assert not Telemetry().recording

    def test_disabled_emits_nothing(self):
        tel = Telemetry()
        tel.emit("x", cycles=1, cpu=0, a=1)
        assert tel.journal is None
        assert not tel.recording

    def test_enabled_emits_sequenced_events(self):
        tel = Telemetry()
        journal = tel.attach_journal(Journal())
        tel.emit("a", cycles=5, cpu=0, rip=0x10)
        tel.emit("b", cycles=9, cpu=1)
        events = journal.records()
        assert [e["kind"] for e in events] == ["a", "b"]
        assert events[0]["seq"] < events[1]["seq"]
        assert events[0]["fields"] == {"rip": 0x10}
        assert events[1]["cycles"] == 9 and events[1]["cpu"] == 1
        # outside any span, and tagged with the innermost one inside
        assert events[0]["span"] is None
        span = tel.spans.open("vmexit", cpu=1, cycles=10)
        tel.emit("c", cycles=11, cpu=1)
        assert journal.records()[-1]["span"] == span.span_id

    def test_disable_stops_recording(self):
        tel = Telemetry()
        journal = tel.attach_journal(Journal())
        tel.emit("a")
        assert tel.detach_journal() is journal
        tel.emit("b")
        assert [e["kind"] for e in journal.records()] == ["a"]


class TestExport:
    def _populated(self):
        tel = Telemetry()
        tel.counter("hits").inc(3)
        tel.labelled_counter("per").inc("x", 2)
        tel.histogram("lat").observe(100)
        tel.attach_journal(Journal())
        tel.emit("module_load", cycles=42, cpu=0, module="kbeast")
        return tel

    def test_snapshot_roundtrips_through_json(self):
        tel = self._populated()
        data = json.loads(to_json(tel))
        assert data["counters"]["hits"] == 3
        assert data["labelled_counters"]["per"]["x"] == 2
        assert data["histograms"]["lat"]["count"] == 1
        assert data["journal"] == {"written": 1, "dropped": 0}

    def test_snapshot_without_events(self):
        # events live in the journal; a snapshot carries its accounting
        tel = self._populated()
        assert set(snapshot(tel)) == {
            "counters", "labelled_counters", "histograms", "journal",
        }

    def test_format_counters_skips_zeroes(self):
        tel = self._populated()
        tel.counter("silent")
        text = format_counters(tel)
        assert "hits" in text
        assert "silent" not in text
