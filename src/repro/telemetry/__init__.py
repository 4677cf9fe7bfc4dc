"""Structured telemetry: counters, histograms, spans, journals, exporters.

The shared measurement substrate every layer emits through -- see
:mod:`repro.telemetry.core` for the primitives and
:mod:`repro.telemetry.export` for the JSON/text render paths.
"""

from repro.telemetry.core import (
    Counter,
    Histogram,
    LabelledCounter,
    Telemetry,
)
from repro.telemetry.export import (
    format_counters,
    format_prometheus,
    prometheus_name,
    snapshot,
    to_json,
)
from repro.telemetry.journal import (
    JOURNAL_SCHEMA,
    Journal,
    JournalData,
    JournalError,
    SpanNode,
    build_span_trees,
    load_journal,
    parse_journal,
)
from repro.telemetry.merge import empty_merge, merge_into, merge_snapshots
from repro.telemetry.spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Histogram",
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalData",
    "JournalError",
    "LabelledCounter",
    "Span",
    "SpanNode",
    "SpanRecorder",
    "Telemetry",
    "build_span_trees",
    "empty_merge",
    "format_counters",
    "format_prometheus",
    "load_journal",
    "merge_into",
    "merge_snapshots",
    "parse_journal",
    "prometheus_name",
    "snapshot",
    "to_json",
]
