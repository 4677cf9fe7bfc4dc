"""Journal properties: lossless round-trips, seq-gap accounting."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.store import ObsStore
from repro.telemetry import (
    JOURNAL_SCHEMA,
    Journal,
    JournalError,
    load_journal,
    parse_journal,
)
from repro.telemetry.journal import recover_journal

# JSON-safe payload values (journal lines are plain JSON)
_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
_payloads = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda k: k not in ("t", "seq")),
    _values,
    max_size=4,
)
_appends = st.lists(
    st.tuples(st.sampled_from(["span", "event", "custom"]), _payloads),
    max_size=30,
)


#: the repo's three log writers
_writers = st.sampled_from(["span", "trace", "archive"])


def _write_log(writer, root, meta, appends):
    """Write ``appends`` as one of the log writers does, and close it;
    returns the file."""
    if writer == "span":
        journal = Journal(path=root / "run.jsonl", meta=meta)
        for kind, payload in appends:
            journal.append(kind, **payload)
        journal.close()
        return journal.path
    store = ObsStore(root / "obs", meta=meta, clock=lambda: 1000.0)
    if writer == "archive":
        for kind, payload in appends:
            # the one write path under the typed append_* methods
            store._append(kind, **payload)
        store.close()
        return root / "obs" / "segments" / "seg-000001.jsonl"
    # a worker's in-memory journal, drained in segments into the trace
    # file, as the daemon and ``repro fleet --journal-dir`` forward it
    worker = Journal()
    trace = store.job_journal("trace", meta=meta)
    for i, (kind, payload) in enumerate(appends):
        worker.append(kind, **payload)
        if i % 3 == 2:
            trace.extend(*worker.drain_segment())
    trace.extend(*worker.drain_segment())
    trace.close()
    store.close()
    return trace.path


@settings(max_examples=60, deadline=None)
@given(appends=_appends, meta=_payloads, writer=_writers)
def test_file_round_trip_is_lossless(tmp_path_factory, appends, meta, writer):
    path = _write_log(writer, tmp_path_factory.mktemp("journal"), meta, appends)
    data = load_journal(path)
    assert data.schema == JOURNAL_SCHEMA
    assert data.meta == meta
    assert data.complete and data.dropped == 0
    assert len(data.records) == len(appends)
    for seq, ((kind, payload), record) in enumerate(zip(appends, data.records), 1):
        assert record["t"] == kind
        assert record["seq"] == seq
        assert {k: v for k, v in record.items() if k not in ("t", "seq")} == payload
    # the tolerant read of a closed file is the strict one
    recovered = recover_journal(path)
    assert not recovered.torn and recovered.records == data.records


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=40),
       capacity=st.integers(min_value=1, max_value=10))
def test_bounded_buffer_accounts_every_drop(n, capacity):
    journal = Journal(capacity=capacity)
    for i in range(n):
        journal.append("span", id=i)
    kept = journal.records()
    assert len(kept) == min(n, capacity)
    assert journal.dropped == max(0, n - capacity)
    # what survives is exactly the newest suffix, seqs intact
    assert [r["id"] for r in kept] == list(range(max(0, n - capacity), n))
    assert [r["seq"] for r in kept] == list(range(max(0, n - capacity) + 1, n + 1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    data=st.data(),
)
def test_gaps_accepted_iff_footer_accounts_for_them(n, data):
    dropped = data.draw(
        st.sets(st.integers(min_value=1, max_value=n), max_size=n - 1)
        if n > 1
        else st.just(set())
    )
    surviving = [seq for seq in range(1, n + 1) if seq not in dropped]
    if not surviving:
        surviving = [n]
        dropped.discard(n)
    lines = [json.dumps({"t": "header", "schema": JOURNAL_SCHEMA, "meta": {}})]
    lines += [json.dumps({"t": "span", "seq": seq}) for seq in surviving]
    # gaps *before* the last surviving seq are what the footer must cover
    missing = surviving[-1] - len(surviving)
    lines_ok = lines + [
        json.dumps({"t": "footer", "records": n, "dropped": missing})
    ]
    parsed = parse_journal(lines_ok)
    assert [r["seq"] for r in parsed.records] == surviving
    assert parsed.dropped == missing

    if missing:
        lines_bad = lines + [
            json.dumps({"t": "footer", "records": n, "dropped": missing - 1})
        ]
        with pytest.raises(JournalError):
            parse_journal(lines_bad)
        # ...and with no footer at all, the gap is unexplained
        with pytest.raises(JournalError):
            parse_journal(lines)
