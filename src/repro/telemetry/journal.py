"""Forensic flight recorder: an append-only, schema-versioned JSONL journal.

The trace ring (PR 1) is bounded and volatile -- fine for live
inspection, useless as evidence.  The journal persists what the monitor
itself did, in order, with explicit loss accounting:

* line 1 is an unnumbered ``header`` record carrying the schema version
  and free-form run metadata;
* every body record gets a monotonically increasing ``seq`` starting at
  1 -- a reader can prove completeness: the only legitimate gaps are
  drops the writer accounted for;
* a ``footer`` records the final seq and total drops on a clean
  :meth:`Journal.close` (a crashed run simply has no footer -- the file
  is still valid and must then be gapless);
* a bounded in-memory journal (fleet workers stream segments to the
  parent) evicts oldest-first and counts every eviction in ``dropped``.

Record kinds written today: ``span`` (closed causal spans, see
:mod:`repro.telemetry.spans`) and ``event`` (trace-ring events, tagged
with the innermost open span so the loader can attach them to the
tree).  Unknown kinds are preserved round-trip; the schema version only
changes when existing fields change meaning.

This module is the only one that knows the file format: every
append-only JSONL file the repo writes is a :class:`Journal` (span and
ops journals, per-trace and ``--journal-dir`` files, ``--obs-dir``
archive segments), and one line parser reads them all.  Durability
rules:

* the header is flushed on open; the caller picks when records are:
  each as written (ops journal, archive), once per forwarded segment
  (:meth:`Journal.extend`), or as the buffer fills (a span journal, on
  the guest's hot path) -- a crash loses at most the unflushed tail;
* :func:`parse_journal` / :func:`load_journal` raise at the first
  defect and reject seq gaps the footer does not account for;
  :func:`recover_journal` stops at the first defect (a final line with
  no newline, bad JSON, a record out of place), keeps every record
  before it and marks the result ``torn``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

#: Bump only when the meaning of existing fields changes.
JOURNAL_SCHEMA = 1


class JournalError(Exception):
    """Corrupt, truncated, or wrong-schema journal data."""


def _dumps(record: Dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=True)


class Journal:
    """Append-only record sink; file-backed, in-memory, or both.

    ``path``      -- JSONL file to write (header written immediately).
    ``capacity``  -- bound on the in-memory buffer; ``None`` = unbounded.
    ``keep``      -- retain records in memory (defaults to True without a
                     path, False with one -- the file already has them).
    ``meta``      -- free-form run metadata stored in the header.
    ``header``    -- further header fields (an archive segment's index
                     and creation time, say).
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        capacity: Optional[int] = None,
        keep: Optional[bool] = None,
        meta: Optional[Dict[str, Any]] = None,
        header: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.capacity = capacity
        self.keep = keep if keep is not None else self.path is None
        self.meta = dict(meta or {})
        #: seq of the most recently appended body record
        self.seq = 0
        #: total records evicted from the in-memory buffer (or, for a
        #: forwarding journal, by the journals it forwards)
        self.dropped = 0
        #: bytes written to the file so far
        self.size = 0
        self._dropped_since_drain = 0
        self._buffer: Deque[Dict[str, Any]] = deque()
        self._fh = None
        self.closed = False
        if self.path is not None:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._write(
                {
                    **(header or {}),
                    "t": "header",
                    "schema": JOURNAL_SCHEMA,
                    "meta": self.meta,
                }
            )
            self._fh.flush()

    # -- writing -------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        line = _dumps(record) + "\n"
        self._fh.write(line)
        self.size += len(line)

    def append(self, kind: str, /, **payload: Any) -> int:
        """Append one body record; returns its seq number.

        ``kind`` is positional-only so payloads may carry their own
        ``kind`` field (trace events do).
        """
        if self.closed:
            return self.seq
        self.seq += 1
        record = dict(payload)
        record["t"] = kind
        record["seq"] = self.seq
        if self._fh is not None:
            self._write(record)
        if self.keep:
            self._buffer.append(record)
            if self.capacity is not None and len(self._buffer) > self.capacity:
                self._buffer.popleft()
                self.dropped += 1
                self._dropped_since_drain += 1
        return self.seq

    def extend(self, records: Sequence[Dict[str, Any]], dropped: int) -> None:
        """Forward a segment another journal drained (its
        :meth:`drain_segment`) to this journal's file, verbatim: the
        records keep their seqs, and ``dropped`` adds to the drops the
        footer accounts for.  Flushed once per segment."""
        if self.closed:
            return
        for record in records:
            self._write(record)
            seq = record.get("seq")
            if isinstance(seq, int) and seq > self.seq:
                self.seq = seq
        self.dropped += int(dropped)
        if records or dropped:
            self._fh.flush()

    def records(self) -> List[Dict[str, Any]]:
        """The in-memory records (empty unless ``keep``)."""
        return list(self._buffer)

    def drain_segment(self) -> Tuple[List[Dict[str, Any]], int]:
        """Pop buffered records for streaming.

        Returns ``(records, dropped_since_last_drain)``.  Drained records
        are *transmitted*, not lost -- they don't count as drops; the
        second element accounts evictions since the previous drain so a
        receiver concatenating segments can keep exact loss totals.
        """
        records = list(self._buffer)
        self._buffer.clear()
        dropped = self._dropped_since_drain
        self._dropped_since_drain = 0
        return records, dropped

    def close(self) -> None:
        """Write the footer (file mode) and stop accepting records."""
        if self.closed:
            return
        self.closed = True
        if self._fh is not None:
            self._write(
                {"t": "footer", "records": self.seq, "dropped": self.dropped}
            )
            self._fh.close()
            self._fh = None

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()

    def __deepcopy__(self, memo: Dict[int, Any]) -> "Journal":
        # Snapshot forks deepcopy the whole machine; an open file handle
        # can't be copied (and a fork must not write into its parent's
        # journal), so the clone gets a fresh, detached in-memory
        # journal with the same bounds.
        clone = Journal(capacity=self.capacity, keep=self.keep, meta=self.meta)
        memo[id(self)] = clone
        return clone


# -- reading -----------------------------------------------------------------


@dataclass
class JournalData:
    """A parsed journal: header, body records, loss accounting."""

    #: the header record (empty when none was read)
    header: Dict[str, Any]
    records: List[Dict[str, Any]]
    footer: Optional[Dict[str, Any]] = None
    #: a tolerant read stopped at a defect (see :func:`recover_journal`)
    torn: bool = False

    @property
    def schema(self) -> Optional[int]:
        return self.header.get("schema")

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self.header.get("meta") or {})

    @property
    def dropped(self) -> int:
        """Drops the writer accounted for (0 when no footer)."""
        if self.footer is None:
            return 0
        return int(self.footer.get("dropped", 0))

    @property
    def complete(self) -> bool:
        """True when a clean footer is present (run closed the journal)."""
        return self.footer is not None


def _parse(lines: Iterable[str], strict: bool) -> JournalData:
    """The one line parser behind every reader.

    Each line is checked in order; a strict parse raises
    :class:`JournalError` at the first defect and then verifies seq
    completeness, a tolerant one stops at the first defect and returns
    what came before it, marked ``torn``.
    """
    data = JournalData(header={}, records=[])
    records = data.records
    try:
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise JournalError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict) or "t" not in record:
                raise JournalError(f"line {lineno}: not a journal record")
            kind = record["t"]
            if kind == "header":
                if data.header:
                    raise JournalError(f"line {lineno}: duplicate header")
                if records or data.footer is not None:
                    raise JournalError(f"line {lineno}: header not first")
                data.header = record
                schema = record.get("schema")
                if schema != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"unsupported journal schema {schema!r} "
                        f"(expected {JOURNAL_SCHEMA})"
                    )
                continue
            if not data.header:
                raise JournalError(f"line {lineno}: record before header")
            if data.footer is not None:
                raise JournalError(f"line {lineno}: record after footer")
            if kind == "footer":
                data.footer = record
                continue
            seq = record.get("seq")
            if not isinstance(seq, int):
                raise JournalError(f"line {lineno}: body record without seq")
            if records and seq <= records[-1]["seq"]:
                raise JournalError(
                    f"line {lineno}: seq {seq} not increasing "
                    f"(previous {records[-1]['seq']})"
                )
            records.append(record)
        if not data.header:
            raise JournalError("empty journal: no header record")
    except JournalError:
        if strict:
            raise
        data.torn = True
        return data
    if strict:
        last_seq = records[-1]["seq"] if records else 0
        missing = last_seq - len(records)
        if missing > data.dropped:
            raise JournalError(
                f"{missing} seq number(s) missing but only {data.dropped} "
                "drop(s) accounted for"
            )
        if data.footer is not None:
            declared = int(data.footer.get("records", last_seq))
            if declared < last_seq:
                raise JournalError(
                    f"footer declares {declared} records but seq reaches "
                    f"{last_seq}"
                )
    return data


def parse_journal(lines: Iterable[str]) -> JournalData:
    """Parse journal lines, verifying schema and seq completeness.

    Seq numbers must be strictly increasing, and the total number of
    missing seqs must not exceed the drops the footer accounts for --
    a journal with unexplained gaps is evidence of tampering or
    truncation and is rejected.
    """
    return _parse(lines, strict=True)


def load_journal(path: Union[str, Path]) -> JournalData:
    """Read and verify a journal file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise JournalError(f"unreadable journal {path}: {exc}") from exc
    return parse_journal(text.splitlines())


def recover_journal(path: Union[str, Path]) -> JournalData:
    """Read a journal file a crash may have cut short; never raises.

    A final line without its newline is a partial write: it is dropped
    and the result marked ``torn``, as is everything from the first
    defective line on.  Seq gaps are not checked.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8", "replace")
    except OSError:
        return JournalData(header={}, records=[], torn=True)
    lines = text.split("\n")
    tail = lines.pop()  # what follows the last newline: a torn write
    data = _parse(lines, strict=False)
    data.torn = data.torn or bool(tail)
    return data


def read_header(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """A journal file's header record (whatever its schema), from its
    first line only; None when the file is unreadable or does not start
    with one."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            first = fh.readline()
    except OSError:
        return None
    return _parse([first], strict=False).header or None


# -- span-tree reconstruction -------------------------------------------------


@dataclass
class SpanNode:
    """A reconstructed span with its children and attached trace events."""

    record: Dict[str, Any]
    children: List["SpanNode"] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.record.get("kind", "?")

    @property
    def span_id(self) -> int:
        return self.record["id"]

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.record.get("attrs", {})

    def find(self, kind: str) -> List["SpanNode"]:
        """All descendants (and self) of the given kind, pre-order."""
        found = [self] if self.kind == kind else []
        for child in self.children:
            found.extend(child.find(kind))
        return found

    def to_dict(self) -> Dict[str, Any]:
        """Canonical nested form, for replay-equality comparison."""
        return {
            "kind": self.kind,
            "cpu": self.record.get("cpu"),
            "start": self.record.get("start"),
            "end": self.record.get("end"),
            "status": self.record.get("status"),
            "attrs": self.attrs,
            "events": [
                {k: v for k, v in event.items() if k != "seq"}
                for event in self.events
            ],
            "children": [child.to_dict() for child in self.children],
        }


def build_span_trees(records: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Rebuild span trees from journal body records.

    Spans are journaled on *close*, so children precede parents in file
    order; linkage uses the recorded ids, not ordering.  A span whose
    parent is absent (dropped, or still open at the end of a truncated
    run) becomes a root.  Trace events tagged with a span id attach to
    that span's node.
    """
    nodes: Dict[int, SpanNode] = {}
    events: List[Dict[str, Any]] = []
    order: List[SpanNode] = []
    for record in records:
        if record.get("t") == "span":
            node = SpanNode(record=record)
            nodes[record["id"]] = node
            order.append(node)
        elif record.get("t") == "event":
            events.append(record)
    roots: List[SpanNode] = []
    for node in order:
        parent_id = node.record.get("parent")
        parent = nodes.get(parent_id) if parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for event in events:
        target = nodes.get(event.get("span"))
        if target is not None:
            target.events.append(event)
    def _key(node: SpanNode) -> Tuple[int, int]:
        return (node.record.get("start", 0), node.span_id)
    for node in order:
        node.children.sort(key=_key)
        node.events.sort(key=lambda e: e.get("seq", 0))
    roots.sort(key=_key)
    return roots
