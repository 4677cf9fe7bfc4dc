"""Archive properties: replay equality through rotation, compaction
and torn tails.

The store's core promise is that reading the archive back and replaying
it through a fresh :class:`SeriesBank` reproduces the live bank
bit-for-bit -- across arbitrary observation streams, arbitrary segment
rotation points, and (for the 60 s ring) through compaction.  Torn
tails must never lose records written before the tear.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import AlertTransition, SeriesBank
from repro.obs.store import (
    ObsStore,
    read_archive,
    rebuild_alerts,
    rebuild_bank,
)

_names = st.sampled_from(["serve.queue.depth", "serve.tenant.cycles", "m"])
_labels = st.sampled_from(["", "acme", "initech"])
_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
# strictly positive, sometimes sub-resolution, sometimes multi-window
_steps = st.floats(min_value=0.05, max_value=150.0)

_streams = st.lists(
    st.tuples(_names, _labels, _steps, _values), min_size=1, max_size=80
)


class _Clock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _drive(store, bank, stream, rotate_every=None):
    """Feed one observation stream to both sides, one tick per point."""
    t = 1000.0
    for i, (name, label, step, value) in enumerate(stream):
        t += step
        bank.observe(name, t, value, label=label, label_key="tenant")
        store.append_sample(t, [(name, label, "tenant", t, value)])
        if rotate_every and (i + 1) % rotate_every == 0:
            store.rotate()
    return t


@settings(max_examples=40, deadline=None)
@given(stream=_streams, rotate_every=st.integers(min_value=1, max_value=9))
def test_replay_equals_live_bank_across_rotations(
    tmp_path_factory, stream, rotate_every
):
    root = tmp_path_factory.mktemp("obs") / "store"
    store = ObsStore(root, clock=_Clock())
    bank = SeriesBank()
    _drive(store, bank, stream, rotate_every=rotate_every)
    store.close()
    archive = read_archive(root)
    assert archive.torn_segments == 0
    assert rebuild_bank(archive).export() == bank.export()


@settings(max_examples=40, deadline=None)
@given(stream=_streams, rotate_every=st.integers(min_value=1, max_value=9))
def test_compaction_preserves_the_60s_ring_exactly(
    tmp_path_factory, stream, rotate_every
):
    root = tmp_path_factory.mktemp("obs") / "store"
    store = ObsStore(root, clock=_Clock())
    bank = SeriesBank()
    _drive(store, bank, stream, rotate_every=rotate_every)
    store.rotate()  # make the tail compactable too
    store.compact_all()
    store.close()
    rebuilt = rebuild_bank(read_archive(root))
    for name, label, _, _ in stream:
        live = bank.get(name, label).export()["60.0"]
        cold = rebuilt.get(name, label).export()["60.0"]
        assert cold == live, (name, label)


@settings(max_examples=30, deadline=None)
@given(stream=_streams, cut=st.integers(min_value=1, max_value=200))
def test_torn_tail_loses_at_most_the_final_record(
    tmp_path_factory, stream, cut
):
    root = tmp_path_factory.mktemp("obs") / "store"
    store = ObsStore(root, clock=_Clock())
    bank = SeriesBank()
    _drive(store, bank, stream)
    # crash: never closed; then tear the final line mid-record (keep at
    # least one byte and never the trailing newline, so the tail is torn)
    segment = max((root / "segments").iterdir())
    raw = segment.read_bytes()
    body = raw.rstrip(b"\n")
    last_nl = body.rfind(b"\n")
    line_len = len(body) - last_nl - 1
    keep = 1 + (cut % line_len)
    segment.write_bytes(raw[: last_nl + 1 + keep])
    archive = read_archive(root)
    store.close()  # only after the read, which saw no footer
    assert archive.torn_segments == 1
    assert archive.sample_count() >= len(stream) - 1
    # everything before the tear replays exactly
    expected = SeriesBank()
    for record in archive.samples:
        for name, label, label_key, t, value in record["points"]:
            expected.observe(
                name, t, value, label=label, label_key=label_key
            )
    assert rebuild_bank(archive).export() == expected.export()


_alerts = st.lists(
    st.builds(
        AlertTransition,
        rule=st.sampled_from(["queue_saturated", "budget", "slo"]),
        label=_labels,
        state=st.sampled_from(["firing", "resolved"]),
        value=st.one_of(st.none(), _values),
        threshold=_values,
        at=st.floats(min_value=0, max_value=2e9, allow_nan=False),
        description=st.text(max_size=20),
    ),
    max_size=20,
)


@settings(max_examples=40, deadline=None)
@given(transitions=_alerts)
def test_alert_history_round_trips(tmp_path_factory, transitions):
    root = tmp_path_factory.mktemp("obs") / "store"
    store = ObsStore(root, clock=_Clock())
    for transition in transitions:
        store.append_alert(transition)
    store.close()
    rebuilt = rebuild_alerts(read_archive(root))
    assert [t.to_dict() for t in rebuilt] == [
        t.to_dict() for t in transitions
    ]


@settings(max_examples=20, deadline=None)
@given(stream=_streams)
def test_segment_lines_stay_canonical_json(tmp_path_factory, stream):
    root = tmp_path_factory.mktemp("obs") / "store"
    store = ObsStore(root, clock=_Clock())
    bank = SeriesBank()
    _drive(store, bank, stream)
    store.close()
    for segment in (root / "segments").iterdir():
        for line in segment.read_text().splitlines():
            record = json.loads(line)
            assert line == json.dumps(
                record, separators=(",", ":"), sort_keys=True
            )
