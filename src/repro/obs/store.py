"""Persistent observability archive for the serve daemon (``--obs-dir``).

The metrics recorder (PR 9) answers "what is happening": ring-buffer
series, streaming quantiles, an alert engine -- all of it in memory,
all of it gone when the daemon exits.  This module is the durable half:
an append-only, schema-versioned, **segmented** on-disk archive the
daemon flushes every sample tick, alert transition and lifecycle event
into, plus per-request guest journals keyed by trace id.

Layout under ``--obs-dir``::

    segments/seg-000001.jsonl    one JSONL segment per rotation window
    traces/<trace_id>.jsonl      one guest journal per traced request

Each segment is a :class:`~repro.telemetry.journal.Journal` whose
header also carries the segment index and its creation time, and whose
footer (written on clean rotation or shutdown) counts its records and
``"dropped": 0``.  Body records are:

* ``sample`` -- one recorder tick's raw observations, as
  ``[name, label, label_key, t, value]`` tuples tapped from
  :meth:`repro.obs.metrics.SeriesBank.observe` **before** any ring
  coalescing.  Replaying them through a fresh bank runs the exact code
  the live recorder ran, so the reconstructed
  :class:`~repro.obs.metrics.MultiResolutionSeries` export is
  bit-equal to a live scrape (the ``obsstore`` scenario of
  ``benchmarks/gates.py`` gates this).
* ``alert`` -- one :class:`~repro.obs.metrics.AlertTransition` edge.
* ``event`` -- one daemon lifecycle event (queued / start / heartbeat /
  done / cancelled / rejected / scaled / serve-*), stamped with the
  store clock so ``repro obs trace`` can narrate wall-clock deltas.

Durability rules are :mod:`repro.telemetry.journal`'s, with:

* **writers** flush every archive record as it is written, and each
  forwarded trace-journal segment once; segments rotate by size and
  age;
* **readers** go through :func:`~repro.telemetry.journal.recover_journal`:
  a segment or trace journal cut short yields every record before the
  tear and counts as torn -- never an exception;
* **compaction** downsamples segments older than ``compact_after`` to
  60 s resolution.  For every series window the 60 s ring would have
  committed, the window-opening point and the final refresher survive
  -- exactly the append/``replace_last`` pair the live ring executed --
  so the reconstructed 60 s ring stays bit-equal even through
  compaction (the property suite proves it);
* **retention** deletes whole segments older than ``retain_seconds``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import (
    DEFAULT_CAPACITY,
    DEFAULT_RESOLUTIONS,
    AlertTransition,
    SeriesBank,
)
from repro.telemetry.journal import (
    Journal,
    build_span_trees,
    read_header,
    recover_journal,
)

#: Segment rotation thresholds (size OR age, whichever trips first).
DEFAULT_ROTATE_BYTES = 1 << 20
DEFAULT_ROTATE_SECONDS = 300.0

#: Segments older than this are deleted outright.
DEFAULT_RETAIN_SECONDS = 7 * 24 * 3600.0

#: Segments older than this are downsampled to 60 s resolution.
DEFAULT_COMPACT_AFTER_SECONDS = 3600.0

#: Compaction target: the coarsest default ring's resolution.
COMPACT_RESOLUTION = 60.0

#: Tolerance mirroring ``MultiResolutionSeries.append``'s commit test.
_COMMIT_EPSILON = 1e-9

_SEGMENT_PREFIX = "seg-"
_SEGMENT_SUFFIX = ".jsonl"


class ObsStoreError(Exception):
    """Archive directory problems (never raised for torn tails)."""


def _segment_index(path: Path) -> Optional[int]:
    name = path.name
    if not (
        name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ):
        return None
    digits = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


#: The per-trace journal writer.  A name for :class:`Journal`, which
#: ``perfbench/tracing.py`` wraps as ``TraceJournalWriter.extend`` and
#: ``.close``.
TraceJournalWriter = Journal


def _trace_path(root: Path, trace_id: str) -> Path:
    """``traces/<trace_id>.jsonl``, the id made safe as a file name."""
    safe = "".join(
        c if c.isalnum() or c in "-_." else "_" for c in str(trace_id)
    )
    return root / "traces" / f"{safe}.jsonl"


class ObsStore:
    """The daemon-side archive writer (thread-safe).

    ``clock`` is injectable for deterministic rotation / retention
    tests; the daemon uses wall time, matching the recorder's sample
    timestamps.
    """

    def __init__(
        self,
        root: Union[str, Path],
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        rotate_seconds: float = DEFAULT_ROTATE_SECONDS,
        retain_seconds: float = DEFAULT_RETAIN_SECONDS,
        compact_after: float = DEFAULT_COMPACT_AFTER_SECONDS,
        meta: Optional[Dict[str, Any]] = None,
        clock=time.time,
    ) -> None:
        if rotate_bytes < 1024:
            raise ObsStoreError(
                f"rotate_bytes must be >= 1024, got {rotate_bytes}"
            )
        self.root = Path(root)
        self.rotate_bytes = rotate_bytes
        self.rotate_seconds = rotate_seconds
        self.retain_seconds = retain_seconds
        self.compact_after = compact_after
        self.meta = dict(meta or {})
        self._clock = clock
        self._lock = threading.RLock()
        self.segments_dir = self.root / "segments"
        self.traces_dir = self.root / "traces"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        # restart-safe: continue numbering after the highest existing
        # segment (the previous daemon's open segment keeps its torn
        # tail; readers tolerate it)
        existing = [
            idx
            for idx in (
                _segment_index(p) for p in self.segments_dir.iterdir()
            )
            if idx is not None
        ]
        self._index = max(existing, default=0)
        self.closed = False
        self._open_segment(self._clock())

    # -- segment lifecycle ----------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.segments_dir / f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"

    def _open_segment(self, now: float) -> None:
        self._index += 1
        self._segment = Journal(
            self._segment_path(self._index),
            meta=self.meta,
            header={
                "store": "repro-obs", "segment": self._index, "created": now,
            },
        )
        self._opened_at = now

    def _append(self, kind: str, /, **payload: Any) -> None:
        with self._lock:
            if self.closed:
                return
            now = self._clock()
            if (
                self._segment.size >= self.rotate_bytes
                or now - self._opened_at >= self.rotate_seconds
            ):
                self.rotate(now)
            self._segment.append(kind, **payload)
            self._segment.flush()

    def rotate(self, now: Optional[float] = None) -> None:
        """Close the open segment, run maintenance, open a fresh one."""
        with self._lock:
            if self.closed:
                return
            if now is None:
                now = self._clock()
            self._segment.close()
            self.maintain(now)
            self._open_segment(now)

    def close(self) -> None:
        with self._lock:
            if self.closed:
                return
            self._segment.close()
            self.closed = True

    # -- appends ---------------------------------------------------------------

    def append_sample(
        self, now: float, points: Sequence[Tuple[str, str, str, float, float]]
    ) -> None:
        """Archive one recorder tick's tapped observations."""
        self._append(
            "sample", now=now, points=[list(point) for point in points]
        )

    def append_alert(self, transition: Any) -> None:
        data = (
            transition.to_dict()
            if hasattr(transition, "to_dict")
            else dict(transition)
        )
        self._append("alert", **data)

    def append_event(self, event: Dict[str, Any]) -> None:
        self._append("event", at=self._clock(), event=dict(event))

    def job_journal(
        self, trace_id: str, meta: Dict[str, Any]
    ) -> Optional[Journal]:
        """Open the per-request guest journal for ``trace_id``; the
        daemon forwards the job's journal segments to it with
        :meth:`Journal.extend`."""
        if not trace_id:
            return None
        return Journal(_trace_path(self.root, trace_id), meta=meta)

    # -- maintenance -----------------------------------------------------------

    def _closed_segments(self) -> List[Tuple[int, Path]]:
        rows = []
        for path in self.segments_dir.iterdir():
            index = _segment_index(path)
            if index is not None and index != self._index:
                rows.append((index, path))
        rows.sort()
        return rows

    @staticmethod
    def _segment_created(path: Path) -> Optional[float]:
        header = read_header(path)
        try:
            return float(header.get("created", 0.0)) if header else None
        except (ValueError, TypeError):
            return None

    def maintain(self, now: Optional[float] = None) -> Dict[str, int]:
        """Retention + compaction over closed segments.

        Runs automatically on rotation; callable explicitly (tests, the
        CLI).  Returns ``{"deleted": n, "compacted": n}``.
        """
        with self._lock:
            if now is None:
                now = self._clock()
            deleted = 0
            survivors: List[Tuple[int, Path]] = []
            for index, path in self._closed_segments():
                created = self._segment_created(path)
                if (
                    created is not None
                    and now - created >= self.retain_seconds
                ):
                    try:
                        path.unlink()
                        deleted += 1
                        continue
                    except OSError:
                        pass
                survivors.append((index, path))
            compacted = self._compact_segments(
                [
                    path
                    for _, path in survivors
                    if (created := self._segment_created(path)) is not None
                    and now - created >= self.compact_after
                ]
            )
            return {"deleted": deleted, "compacted": compacted}

    def compact_all(self) -> int:
        """Force-compact every closed segment (tests, explicit GC)."""
        with self._lock:
            return self._compact_segments(
                [path for _, path in self._closed_segments()]
            )

    def _compact_segments(self, paths: List[Path]) -> int:
        """Downsample ``paths`` (oldest-first) to 60 s resolution.

        Window state carries across segments so the surviving points
        are exactly the 60 s ring's append/replace pairs; already-
        compacted segments replay into the window state but are not
        rewritten (compaction is idempotent).
        """
        if not paths:
            return 0
        # anchors must be seeded from the very start of the archive, so
        # replay every closed segment older than the batch as context
        eligible = set(paths)
        anchors: Dict[Tuple[str, str], float] = {}
        refresher_slot: Dict[Tuple[str, str], Optional[int]] = {}
        compacted = 0
        for index, path in self._closed_segments():
            segment = recover_journal(path)
            header = segment.header
            if not header:
                continue
            already = bool(header.get("compacted"))
            rewrite = path in eligible and not already
            kept: List[List[Any]] = []
            out_records: List[Dict[str, Any]] = []
            last_now = header.get("created", 0.0)
            for record in segment.records:
                kind = record.get("t")
                if kind != "sample":
                    out_records.append(record)
                    continue
                last_now = record.get("now", last_now)
                for point in record.get("points") or []:
                    name, label, label_key, t, value = point
                    family = (str(name), str(label))
                    anchor = anchors.get(family)
                    if (
                        anchor is None
                        or t - anchor >= COMPACT_RESOLUTION - _COMMIT_EPSILON
                    ):
                        anchors[family] = t
                        refresher_slot[family] = None
                        if rewrite:
                            kept.append(list(point))
                    else:
                        slot = refresher_slot.get(family)
                        if rewrite:
                            if slot is None:
                                refresher_slot[family] = len(kept)
                                kept.append(list(point))
                            else:
                                kept[slot] = list(point)
            if not rewrite:
                # context segment: refresher slots point into a list we
                # are not writing; invalidate them so the next rewritten
                # segment appends fresh refreshers instead
                refresher_slot = {k: None for k in refresher_slot}
                continue
            tmp = path.with_suffix(".tmp")
            out = Journal(
                tmp,
                meta=segment.meta,
                header={
                    **header,
                    "compacted": True,
                    "resolution": COMPACT_RESOLUTION,
                },
            )
            if kept:
                out.append("sample", now=last_now, points=kept)
            for record in out_records:
                out.append(record["t"], **record)  # "t" and "seq" set afresh
            out.close()
            os.replace(tmp, path)
            refresher_slot = {k: None for k in refresher_slot}
            compacted += 1
        return compacted


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


@dataclass
class ArchiveData:
    """Everything a reader recovered from an ``--obs-dir``."""

    root: Path
    headers: List[Dict[str, Any]] = field(default_factory=list)
    samples: List[Dict[str, Any]] = field(default_factory=list)
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    segments: int = 0
    torn_segments: int = 0

    @property
    def meta(self) -> Dict[str, Any]:
        """Recorder config from the newest segment header."""
        return dict(self.headers[-1].get("meta") or {}) if self.headers else {}

    def sample_count(self) -> int:
        return len(self.samples)

    def span(self) -> Tuple[Optional[float], Optional[float]]:
        """(oldest, newest) sample timestamps in the archive."""
        times = [s.get("now") for s in self.samples if s.get("now") is not None]
        if not times:
            return None, None
        return min(times), max(times)


def read_archive(
    root: Union[str, Path],
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> ArchiveData:
    """Read every segment under ``root`` (crash-safe; never raises for
    torn tails).  ``since``/``until`` filter records by timestamp."""
    root = Path(root)
    segments_dir = root / "segments"
    if not segments_dir.is_dir():
        raise ObsStoreError(
            f"{root} is not an observability archive (no segments/ dir)"
        )
    data = ArchiveData(root=root)

    def wanted(t: Optional[float]) -> bool:
        if t is None:
            return True
        if since is not None and t < since:
            return False
        if until is not None and t > until:
            return False
        return True

    paths = sorted(
        (idx, p)
        for p in segments_dir.iterdir()
        if (idx := _segment_index(p)) is not None
    )
    for _, path in paths:
        segment = recover_journal(path)
        data.segments += 1
        if segment.torn:
            data.torn_segments += 1
        if not segment.header:
            continue
        data.headers.append(segment.header)
        for record in segment.records:
            kind = record.get("t")
            if kind == "sample":
                if wanted(record.get("now")):
                    if since is None and until is None:
                        data.samples.append(record)
                    else:
                        filtered = dict(record)
                        filtered["points"] = [
                            p
                            for p in record.get("points") or []
                            if wanted(p[3])
                        ]
                        data.samples.append(filtered)
            elif kind == "alert":
                if wanted(record.get("at")):
                    data.alerts.append(record)
            elif kind == "event":
                if wanted(record.get("at")):
                    data.events.append(record)
    return data


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def rebuild_bank(
    archive: ArchiveData,
    resolutions: Optional[Iterable[float]] = None,
    capacity: Optional[int] = None,
) -> SeriesBank:
    """Replay archived observations through a fresh bank.

    Runs :meth:`SeriesBank.observe` on the exact ``(name, label,
    label_key, t, value)`` stream the live bank saw, in order -- the
    same coalescing, anchors and eviction accounting execute again, so
    the result is bit-equal to the live bank over the archived range.
    """
    meta = archive.meta
    if resolutions is None:
        resolutions = meta.get("resolutions") or DEFAULT_RESOLUTIONS
    if capacity is None:
        capacity = int(meta.get("capacity") or DEFAULT_CAPACITY)
    bank = SeriesBank(resolutions=resolutions, capacity=capacity)
    for record in archive.samples:
        for name, label, label_key, t, value in record.get("points") or []:
            bank.observe(
                str(name), t, value, label=str(label), label_key=str(label_key)
            )
    return bank


def rebuild_export(archive: ArchiveData) -> Dict[str, Any]:
    """The archive's equivalent of ``MetricsRecorder.export_series()``."""
    meta = archive.meta
    return {
        "samples": archive.sample_count(),
        "interval": meta.get("interval"),
        "series": rebuild_bank(archive).export(),
    }


_ALERT_FIELDS = (
    "rule",
    "label",
    "state",
    "value",
    "threshold",
    "at",
    "description",
)


def rebuild_alerts(archive: ArchiveData) -> List[AlertTransition]:
    """Archived alert records back as transitions, oldest first."""
    transitions = []
    for record in archive.alerts:
        transitions.append(
            AlertTransition(
                rule=str(record.get("rule", "")),
                label=str(record.get("label", "")),
                state=str(record.get("state", "")),
                value=record.get("value"),
                threshold=float(record.get("threshold", 0.0)),
                at=float(record.get("at", 0.0)),
                description=str(record.get("description", "")),
            )
        )
    return transitions


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def query_series(
    root: Union[str, Path],
    name: Optional[str] = None,
    label: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    resolution: Optional[float] = None,
) -> Dict[str, Any]:
    """Series over a time range (the ``repro obs query`` engine).

    Replays the (optionally time-filtered) archive and returns the
    export dict narrowed to ``name`` / ``label`` / ``resolution``.
    """
    archive = read_archive(root, since=since, until=until)
    bank = rebuild_bank(archive)
    export = bank.export()
    if name is not None:
        if name not in export:
            known = ", ".join(sorted(export)) or "(archive is empty)"
            raise ObsStoreError(
                f"no series named {name!r} in the archive; known: {known}"
            )
        export = {name: export[name]}
    if label is not None:
        narrowed = {}
        for series_name, family in export.items():
            series = family["series"]
            if label in series:
                narrowed[series_name] = {
                    "label_key": family["label_key"],
                    "series": {label: series[label]},
                }
        export = narrowed
    if resolution is not None:
        key = None
        for series_name, family in export.items():
            for lbl, rings in family["series"].items():
                if key is None:
                    key = min(
                        rings,
                        key=lambda r: (abs(float(r) - resolution), float(r)),
                    )
                family["series"][lbl] = {key: rings[key]} if key in rings else {}
    oldest, newest = archive.span()
    return {
        "archive": {
            "segments": archive.segments,
            "torn_segments": archive.torn_segments,
            "samples": archive.sample_count(),
            "oldest": oldest,
            "newest": newest,
        },
        "series": export,
    }


def render_query_table(result: Dict[str, Any]) -> str:
    """Human-readable ``obs query`` output."""
    lines: List[str] = []
    info = result.get("archive") or {}
    lines.append(
        "archive: {} segment(s), {} sample tick(s){}".format(
            info.get("segments", 0),
            info.get("samples", 0),
            (
                f", {info['torn_segments']} torn"
                if info.get("torn_segments")
                else ""
            ),
        )
    )
    oldest, newest = info.get("oldest"), info.get("newest")
    if oldest is not None and newest is not None:
        lines.append(
            f"window:  {_format_ts(oldest)} .. {_format_ts(newest)} "
            f"({newest - oldest:.1f}s)"
        )
    series = result.get("series") or {}
    if not series:
        lines.append("(no series matched)")
        return "\n".join(lines) + "\n"
    lines.append("")
    header = (
        f"{'series':<40} {'label':<16} {'res':>5} {'points':>6} "
        f"{'latest':>14}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, family in sorted(series.items()):
        for label, rings in sorted(family["series"].items()):
            for res, ring in sorted(rings.items(), key=lambda kv: float(kv[0])):
                points = ring.get("points") or []
                latest = points[-1][1] if points else None
                lines.append(
                    f"{name:<40} {label or '-':<16} {float(res):>5g} "
                    f"{len(points):>6} "
                    f"{latest if latest is not None else '-':>14}"
                )
    return "\n".join(lines) + "\n"


def render_query_prom(result: Dict[str, Any], prefix: str = "repro") -> str:
    """Latest archived values as Prometheus gauges."""
    from repro.telemetry.export import prometheus_name

    lines: List[str] = []
    for name, family in sorted((result.get("series") or {}).items()):
        metric = f"{prefix}_{prometheus_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        key = family.get("label_key", "label")
        for label, rings in sorted(family["series"].items()):
            finest = min(rings, key=float, default=None)
            if finest is None:
                continue
            points = rings[finest].get("points") or []
            if not points:
                continue
            value = points[-1][1]
            if label:
                escaped = label.replace("\\", "\\\\").replace('"', '\\"')
                lines.append(f'{metric}{{{key}="{escaped}"}} {value:g}')
            else:
                lines.append(f"{metric} {value:g}")
    return "\n".join(lines) + "\n"


def _format_ts(t: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(t))


# ---------------------------------------------------------------------------
# trace narration
# ---------------------------------------------------------------------------


def read_trace_journal(
    root: Union[str, Path], trace_id: str
) -> Tuple[Dict[str, Any], List[Dict[str, Any]], bool]:
    """The per-request guest journal, torn-tail tolerant.

    Returns ``(meta, records, torn)``; empty when no journal exists
    (e.g. the request was rejected before a worker picked it up).
    """
    path = _trace_path(Path(root), trace_id)
    if not path.exists():
        return {}, [], False
    journal = recover_journal(path)
    return journal.meta, journal.records, journal.torn


#: Lifecycle event types narrated in order, with a one-word verb each.
_LIFECYCLE_VERBS = {
    "queued": "queued",
    "start": "started",
    "heartbeat": "heartbeat",
    "journal": "journal",
    "done": "finished",
    "cancelled": "cancelled",
    "rejected": "rejected",
}


def render_trace(
    root: Union[str, Path],
    trace_id: str,
    limit: int = 25,
) -> str:
    """Narrate one traced request end-to-end (``repro obs trace``).

    Joins three sources on the trace id: the archived lifecycle events
    (client submit -> queue admission -> worker start -> result), alert
    transitions that fired while the request was in flight, and the
    per-request guest journal's span forest.
    """
    from repro.obs.forensics import narrate_tree

    archive = read_archive(root)
    events = [
        record
        for record in archive.events
        if (record.get("event") or {}).get("trace") == trace_id
    ]
    meta, records, torn = read_trace_journal(root, trace_id)
    if not events and not records:
        raise ObsStoreError(
            f"trace {trace_id!r} not found in archive {root} "
            "(no lifecycle events or guest journal)"
        )
    lines: List[str] = [f"trace {trace_id}"]
    if meta:
        detail = ", ".join(
            f"{key}={meta[key]}"
            for key in ("job", "name", "tenant", "app")
            if meta.get(key)
        )
        if detail:
            lines.append(f"  {detail}")
    lines.append("")
    lines.append("== request lifecycle ==")
    t0 = events[0].get("at") if events else None
    t_last = t0
    for record in events:
        event = record.get("event") or {}
        at = record.get("at")
        t_last = at if at is not None else t_last
        etype = str(event.get("type", "?"))
        verb = _LIFECYCLE_VERBS.get(etype, etype)
        delta = (
            f"+{at - t0:7.3f}s" if at is not None and t0 is not None
            else " " * 10
        )
        detail = _event_detail(etype, event)
        lines.append(f"  {delta} {verb:<9} {detail}")
    if not events:
        lines.append("  (no lifecycle events archived for this trace)")
    alert_lines = _overlapping_alerts(archive, t0, t_last)
    if alert_lines:
        lines.append("")
        lines.append("== alerts while in flight ==")
        lines.extend(alert_lines)
    lines.append("")
    spans = [r for r in records if r.get("t") == "span"]
    trees = build_span_trees(records)
    suffix = " [TORN TAIL: journal truncated mid-write]" if torn else ""
    lines.append(
        f"== guest span forest ({len(trees)} chain(s), "
        f"{len(spans)} span(s), {len(records)} record(s)){suffix} =="
    )
    if not trees:
        lines.append("  (no guest journal recorded for this trace)")
    shown = 0
    for tree in trees:
        if shown >= limit:
            lines.append(
                f"  ... {len(trees) - shown} more chain(s) "
                f"(raise --limit to see them)"
            )
            break
        subtree = narrate_tree(tree, indent=1)
        if len(subtree) <= 1 and not tree.is_event and shown >= 5:
            continue  # skip bare vmexit leaves once context is set
        lines.extend(subtree)
        shown += 1
    return "\n".join(lines) + "\n"


def _event_detail(etype: str, event: Dict[str, Any]) -> str:
    parts: List[str] = []
    for key in (
        "id",
        "job",
        "app",
        "tenant",
        "priority",
        "cycles",
        "recoveries",
        "records",
        "dropped",
        "ok",
        "detected",
        "reason",
    ):
        if key in event and event[key] not in (None, "", {}):
            parts.append(f"{key}={event[key]}")
    if event.get("error"):
        parts.append(f"error={str(event['error']).splitlines()[0]!r}")
    return " ".join(parts)


def _overlapping_alerts(
    archive: ArchiveData,
    t0: Optional[float],
    t1: Optional[float],
) -> List[str]:
    if t0 is None or t1 is None:
        return []
    lines = []
    for record in archive.alerts:
        at = record.get("at")
        if at is None or not (t0 - 1.0 <= at <= t1 + 1.0):
            continue
        label = f" [{record['label']}]" if record.get("label") else ""
        lines.append(
            f"  {record.get('state', '?'):<8} {record.get('rule', '?')}"
            f"{label} value={record.get('value')} "
            f"threshold={record.get('threshold')}"
        )
    return lines


# ---------------------------------------------------------------------------
# capacity analysis
# ---------------------------------------------------------------------------


def _ring_points(
    bank: SeriesBank,
    name: str,
    label: str = "",
    resolution: Optional[float] = None,
) -> List[Tuple[float, float]]:
    series = bank.get(name, label)
    return series.ring(resolution).points() if series is not None else []


def _linear_slope(points: List[Tuple[float, float]]) -> Optional[float]:
    """Least-squares slope (value per second) over ``points``."""
    if len(points) < 2:
        return None
    n = float(len(points))
    mean_t = sum(t for t, _ in points) / n
    mean_v = sum(v for _, v in points) / n
    denom = sum((t - mean_t) ** 2 for t, _ in points)
    if denom <= 0:
        return None
    return sum((t - mean_t) * (v - mean_v) for t, v in points) / denom


def capacity_report(
    root: Union[str, Path], window: float = 600.0
) -> Dict[str, Any]:
    """Post-hoc capacity analysis over the archive's trailing window.

    Per-tenant demand vs. budget, queue-wait trends, pool-hit
    trajectory, and projected queue saturation from a least-squares
    fit of the utilization series -- the questions PR 9 left open
    because the in-memory rings died with the daemon.
    """
    archive = read_archive(root)
    bank = rebuild_bank(archive)
    oldest, newest = archive.span()
    report: Dict[str, Any] = {
        "archive": {
            "segments": archive.segments,
            "torn_segments": archive.torn_segments,
            "samples": archive.sample_count(),
            "oldest": oldest,
            "newest": newest,
            "window_seconds": window,
        },
        "tenants": {},
        "queue": {},
        "pool": {},
        "alerts": {},
    }
    if newest is None:
        return report
    cutoff = newest - window

    def trailing(name: str, label: str = "") -> List[Tuple[float, float]]:
        return [
            (t, v)
            for t, v in _ring_points(bank, name, label)
            if t >= cutoff
        ]

    # queue: depth / utilization trend and projected saturation
    util = trailing("serve.queue.utilization")
    depth = trailing("serve.queue.depth")
    slope = _linear_slope(util)
    saturation_eta = None
    if slope is not None and slope > 0 and util:
        latest = util[-1][1]
        if latest < 1.0:
            saturation_eta = (1.0 - latest) / slope
    report["queue"] = {
        "depth_latest": depth[-1][1] if depth else None,
        "utilization_latest": util[-1][1] if util else None,
        "utilization_slope_per_s": slope,
        "projected_saturation_seconds": saturation_eta,
    }
    # pool: hit-ratio trajectory
    hits = trailing("serve.pool.hit_ratio")
    report["pool"] = {
        "hit_ratio_first": hits[0][1] if hits else None,
        "hit_ratio_latest": hits[-1][1] if hits else None,
        "hit_ratio_mean": (
            sum(v for _, v in hits) / len(hits) if hits else None
        ),
    }
    # tenants: demand vs budget, queue-wait trend
    charged = bank.family("serve.tenant.charged_cycles")
    for tenant in sorted(charged):
        points = trailing("serve.tenant.charged_cycles", tenant)
        demand = (
            points[-1][1] - points[0][1] if len(points) >= 2 else 0.0
        )
        budget = _ring_points(
            bank, "serve.tenant.budget_remaining_ratio", tenant
        )
        wait = trailing("serve.tenant.queue_wait_p95", tenant)
        budget_ratio = budget[-1][1] if budget else None
        exhaustion_eta = None
        if budget_ratio is not None and demand > 0 and points:
            span_s = points[-1][0] - points[0][0]
            if span_s > 0 and budget_ratio > 0:
                charged_latest = points[-1][1]
                if charged_latest > 0 and (1 - budget_ratio) > 0:
                    total_budget = charged_latest / (1 - budget_ratio)
                    remaining = total_budget * budget_ratio
                    exhaustion_eta = remaining / (demand / span_s)
        report["tenants"][tenant] = {
            "charged_cycles_latest": points[-1][1] if points else None,
            "demand_cycles_window": demand,
            "budget_remaining_ratio": budget_ratio,
            "projected_budget_exhaustion_seconds": exhaustion_eta,
            "queue_wait_p95_first": wait[0][1] if wait else None,
            "queue_wait_p95_latest": wait[-1][1] if wait else None,
            "queue_wait_p95_slope_per_s": _linear_slope(wait),
        }
    # alerts: transition counts by rule
    by_rule: Dict[str, int] = {}
    for record in archive.alerts:
        rule = str(record.get("rule", "?"))
        by_rule[rule] = by_rule.get(rule, 0) + 1
    report["alerts"] = by_rule
    return report
