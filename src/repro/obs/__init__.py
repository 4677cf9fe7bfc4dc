"""Observability: forensic narratives and live fleet monitoring.

Two consumers of the flight recorder (:mod:`repro.telemetry.journal`):

* :mod:`repro.obs.forensics` -- rebuild causal span trees from a
  journal and render the attack/recovery narrative (``repro forensics``);
* :mod:`repro.obs.live` -- aggregate streamed worker heartbeats and
  journal segments into a live per-job view with profile-drift
  detection (``repro fleet --watch``).

Service-level observability for the serve daemon -- ring-buffer time
series, per-tenant SLO quantiles, Prometheus exposition and the
alert-rule engine -- lives in :mod:`repro.obs.metrics` (``repro ctl
top``, ``repro serve --metrics-addr``).  The persistent on-disk
archive of those metrics, plus per-request trace journals and the
``repro obs`` query/trace commands, lives in :mod:`repro.obs.store`
(``repro serve --obs-dir``).  Statistical observability (sampling
profiler, probes, heat analysis) lives in the
:mod:`repro.obs.profiling` subpackage.
"""

from repro.obs.forensics import (
    attack_trees,
    chains_for_app,
    narrate_tree,
    render_forensics,
    render_journal_narrative,
)
from repro.obs.live import JobStatus, LiveFleetView, render_service_top
from repro.obs.metrics import (
    AlertCondition,
    AlertEngine,
    AlertRule,
    MetricsRecorder,
    QuantileWindow,
    RingSeries,
    SeriesBank,
    default_rules,
    load_rules,
)
from repro.obs.store import (
    ArchiveData,
    ObsStore,
    ObsStoreError,
    capacity_report,
    query_series,
    read_archive,
    read_trace_journal,
    rebuild_alerts,
    rebuild_bank,
    rebuild_export,
    render_trace,
)

__all__ = [
    "AlertCondition",
    "AlertEngine",
    "AlertRule",
    "ArchiveData",
    "JobStatus",
    "LiveFleetView",
    "MetricsRecorder",
    "ObsStore",
    "ObsStoreError",
    "QuantileWindow",
    "RingSeries",
    "SeriesBank",
    "attack_trees",
    "capacity_report",
    "chains_for_app",
    "default_rules",
    "load_rules",
    "narrate_tree",
    "query_series",
    "read_archive",
    "read_trace_journal",
    "rebuild_alerts",
    "rebuild_bank",
    "rebuild_export",
    "render_forensics",
    "render_journal_narrative",
    "render_service_top",
    "render_trace",
]
