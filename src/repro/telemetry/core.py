"""Telemetry primitives: counters, histograms and the event recorder.

The paper's evaluation (Section IV, Figures 6-7, Table 2) attributes
every cycle of overhead to a mechanism: VM exits, EPT view switches,
code recoveries.  This module gives the whole stack one shared event
model for that accounting instead of per-component counter bags:

* :class:`Counter` / :class:`LabelledCounter` -- monotonic counts,
  registry-owned so read-only views (``ExitStats``, ``FaceChangeStats``)
  can be reconstructed from names;
* :class:`Histogram` -- power-of-two bucketed cycle/latency
  distributions (per-exit-reason charged cycles, EPT switch costs);
* :class:`Telemetry` -- the per-machine registry tying it together,
  plus the causal-span recorder (:mod:`repro.telemetry.spans`) and the
  journal it writes to (:mod:`repro.telemetry.journal`), the one record
  of guest events.

Recording is **zero-cost when off**: hot paths guard every span and
``emit`` behind the single ``recording`` flag (``if tel.recording:
tel.emit(...)``), and counters are plain integer adds, so the Figure 6/7
virtual-cycle scores are unaffected either way (telemetry charges no
guest cycles).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.journal import Journal
from repro.telemetry.spans import SpanRecorder

#: Distinguishes auto-attached journal files from the same process.
_journal_counter = 0


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class LabelledCounter:
    """A counter family keyed by label (e.g. per trap address)."""

    __slots__ = ("name", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: Dict[Any, int] = {}

    def inc(self, label: Any, n: int = 1) -> None:
        self.values[label] = self.values.get(label, 0) + n

    def get(self, label: Any) -> int:
        return self.values.get(label, 0)

    @property
    def total(self) -> int:
        return sum(self.values.values())

    def reset(self) -> None:
        self.values.clear()


#: Number of power-of-two buckets: covers values up to 2**63.
_HISTOGRAM_BUCKETS = 64


class Histogram:
    """Power-of-two bucketed distribution of non-negative samples.

    Bucket ``i`` counts samples with ``value.bit_length() == i`` (bucket
    0 holds zeros), i.e. bucket boundaries at 1, 2, 4, 8, ... cycles.
    """

    __slots__ = ("name", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: List[int] = [0] * _HISTOGRAM_BUCKETS
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        if value < 0:
            value = 0
        self.buckets[value.bit_length()] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> int:
        """Upper bucket boundary containing the ``q``-quantile sample."""
        if not self.count:
            return 0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                return (1 << i) - 1 if i else 0
        return (1 << _HISTOGRAM_BUCKETS) - 1  # pragma: no cover

    def nonzero_buckets(self) -> List[Tuple[int, int]]:
        """(upper_bound, count) for every populated bucket, ascending."""
        return [
            ((1 << i) - 1 if i else 0, n)
            for i, n in enumerate(self.buckets)
            if n
        ]

    def reset(self) -> None:
        self.buckets = [0] * _HISTOGRAM_BUCKETS
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None


class Telemetry:
    """The per-machine registry of counters, histograms and the recorder.

    One instance is shared by the hypervisor, the view switcher, the
    recovery engine and the vCPUs of a machine; components hold direct
    handles to their counters (one attribute load per increment) while
    consumers enumerate the registry by name.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.labelled: Dict[str, LabelledCounter] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: causal-span recorder; span calls are guarded by ``recording``
        self.spans = SpanRecorder()
        self.journal: Optional[Journal] = None
        #: the single branch hot paths test before touching the recorder
        self.recording = False
        # REPRO_JOURNAL_DIR auto-attaches a file journal to every new
        # machine, so benchmark drivers can exercise the recorder
        # without plumbing flags through every boot path.
        journal_dir = os.environ.get("REPRO_JOURNAL_DIR", "")
        if journal_dir:
            global _journal_counter
            _journal_counter += 1
            path = os.path.join(
                journal_dir, f"journal-{os.getpid()}-{_journal_counter}.jsonl"
            )
            self.attach_journal(Journal(path=path))

    # -- instrument registry (get-or-create) --------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def labelled_counter(self, name: str) -> LabelledCounter:
        counter = self.labelled.get(name)
        if counter is None:
            counter = self.labelled[name] = LabelledCounter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    # -- flight recorder -----------------------------------------------------

    def emit(self, kind: str, cycles: int = 0, cpu: int = 0, **fields: Any) -> None:
        """Journal an event that has no span of its own, tagged with the
        CPU's innermost open span.  Callers guard with ``if tel.recording``."""
        if not self.recording:
            return
        span = self.spans.current(cpu)
        self.journal.append(
            "event",
            kind=kind,
            cycles=cycles,
            cpu=cpu,
            span=span.span_id if span is not None else None,
            fields=fields,
        )

    def attach_journal(self, journal: Journal) -> Journal:
        """Bind a journal; spans and events persist into it."""
        self.journal = journal
        self.spans.bind(journal)
        self.recording = True
        return journal

    def detach_journal(self) -> Optional[Journal]:
        """Unbind and return the journal (caller closes it)."""
        journal = self.journal
        self.journal = None
        self.spans.unbind()
        self.recording = False
        return journal

    # -- lifecycle ------------------------------------------------------------

    def reset(self) -> None:
        for counter in self.counters.values():
            counter.reset()
        for counter in self.labelled.values():
            counter.reset()
        for hist in self.histograms.values():
            hist.reset()
        self.spans.reset()
