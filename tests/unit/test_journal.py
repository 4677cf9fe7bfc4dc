"""Flight-recorder journal: round-trips, drop accounting, verification."""

import json

import pytest

from repro.telemetry import (
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    load_journal,
    parse_journal,
)


def test_file_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = Journal(path=path, meta={"app": "top", "scale": 2})
    journal.append("span", id=1, parent=None, kind="vmexit")
    journal.append("event", kind="recovery", cycles=42, fields={"rip": 7})
    journal.close()
    data = load_journal(path)
    assert data.schema == JOURNAL_SCHEMA
    assert data.meta == {"app": "top", "scale": 2}
    assert data.complete and data.dropped == 0
    assert [r["t"] for r in data.records] == ["span", "event"]
    assert [r["seq"] for r in data.records] == [1, 2]
    # the payload may carry its own "kind" -- distinct from the record type
    assert data.records[1]["kind"] == "recovery"


def test_data_reads_like_the_parsed_file(tmp_path):
    path = tmp_path / "run.jsonl"
    journal = Journal(path=path, keep=True, meta={"app": "top"})
    journal.append("event", kind="view_load", cycles=0, fields={"view": 0})
    assert journal.data().footer is None  # open: no footer yet
    journal.close()
    live, parsed = journal.data(), load_journal(path)
    assert live.header == parsed.header
    assert live.records == parsed.records
    assert live.footer == parsed.footer
    assert live.complete and live.meta == {"app": "top"}


def test_memory_journal_keeps_records_by_default():
    journal = Journal()
    journal.append("span", id=1)
    assert journal.keep
    assert [r["seq"] for r in journal.records()] == [1]


def test_file_journal_does_not_buffer_unless_asked(tmp_path):
    journal = Journal(path=tmp_path / "run.jsonl")
    journal.append("span", id=1)
    assert journal.records() == []
    kept = Journal(path=tmp_path / "kept.jsonl", keep=True)
    kept.append("span", id=1)
    assert len(kept.records()) == 1
    journal.close()
    kept.close()


def test_bounded_buffer_counts_every_eviction():
    journal = Journal(capacity=3)
    for i in range(10):
        journal.append("span", id=i)
    assert len(journal.records()) == 3
    assert journal.dropped == 7
    assert [r["id"] for r in journal.records()] == [7, 8, 9]
    assert journal.seq == 10


def test_drain_segment_transmits_without_counting_drops():
    journal = Journal(capacity=3)
    for i in range(4):
        journal.append("span", id=i)
    records, dropped = journal.drain_segment()
    assert [r["id"] for r in records] == [1, 2, 3]
    assert dropped == 1
    # drained records are transmitted, not lost; counter resets per segment
    journal.append("span", id=4)
    records, dropped = journal.drain_segment()
    assert [r["id"] for r in records] == [4]
    assert dropped == 0
    assert journal.dropped == 1  # lifetime total unchanged by draining


def test_append_after_close_is_a_noop(tmp_path):
    journal = Journal(path=tmp_path / "run.jsonl")
    journal.append("span", id=1)
    journal.close()
    assert journal.append("span", id=2) == 1
    assert load_journal(tmp_path / "run.jsonl").records[-1]["seq"] == 1


def _lines(*records):
    return [json.dumps(r) for r in records]


HEADER = {"t": "header", "schema": JOURNAL_SCHEMA, "meta": {}}


def test_parse_rejects_missing_header():
    with pytest.raises(JournalError, match="before header"):
        parse_journal(_lines({"t": "span", "seq": 1}))
    with pytest.raises(JournalError, match="no header"):
        parse_journal([])


def test_parse_rejects_wrong_schema():
    bad = {"t": "header", "schema": JOURNAL_SCHEMA + 1, "meta": {}}
    with pytest.raises(JournalError, match="unsupported journal schema"):
        parse_journal(_lines(bad))


def test_parse_rejects_seq_regression():
    with pytest.raises(JournalError, match="not increasing"):
        parse_journal(_lines(
            HEADER, {"t": "span", "seq": 2}, {"t": "span", "seq": 2}
        ))


def test_parse_rejects_unexplained_gaps():
    with pytest.raises(JournalError, match="missing"):
        parse_journal(_lines(
            HEADER,
            {"t": "span", "seq": 1},
            {"t": "span", "seq": 5},
            {"t": "footer", "records": 5, "dropped": 1},
        ))


def test_parse_accepts_gaps_the_writer_accounted_for():
    data = parse_journal(_lines(
        HEADER,
        {"t": "span", "seq": 1},
        {"t": "span", "seq": 5},
        {"t": "footer", "records": 5, "dropped": 3},
    ))
    assert data.dropped == 3
    assert data.complete


def test_parse_rejects_footer_understating_records():
    with pytest.raises(JournalError, match="footer declares"):
        parse_journal(_lines(
            HEADER,
            {"t": "span", "seq": 1},
            {"t": "span", "seq": 2},
            {"t": "footer", "records": 1, "dropped": 0},
        ))


def test_parse_rejects_garbage_and_non_records():
    with pytest.raises(JournalError, match="invalid JSON"):
        parse_journal(["not json"])
    with pytest.raises(JournalError, match="not a journal record"):
        parse_journal(_lines({"no_t": 1}))


def test_journal_without_footer_is_valid_but_incomplete():
    data = parse_journal(_lines(HEADER, {"t": "span", "seq": 1}))
    assert not data.complete
    assert data.dropped == 0
    # ...and must then be gapless
    with pytest.raises(JournalError, match="missing"):
        parse_journal(_lines(HEADER, {"t": "span", "seq": 3}))


def test_deepcopy_detaches_from_the_file(tmp_path):
    import copy

    journal = Journal(path=tmp_path / "run.jsonl", capacity=8, keep=False)
    journal.append("span", id=1)
    clone = copy.deepcopy(journal)
    assert clone.path is None and clone.capacity == 8
    clone.append("span", id=99)
    journal.close()
    # the fork's writes never reached the parent's file
    seqs = [r["seq"] for r in load_journal(tmp_path / "run.jsonl").records]
    assert seqs == [1]
