"""Live fleet observability: heartbeats, liveness, profile-drift detection.

Fleet and serve jobs stream small status events while they run (see
:mod:`repro.fleet.runner` and :mod:`repro.serve.daemon`); this module
folds them into a per-job view that can answer, *before the fleet
drains*: which jobs are alive, which have stalled, and which are
drifting away from their profiled baseline.

Drift is the paper's re-profiling trigger (§III-B3): a job whose
workload exercises kernel code its stored profile never covered keeps
hitting view holes, so its recovery count grows past the benign
baseline recorded during the offline phase.  Captured-attack
recoveries are excluded from the drift metric -- an actual attack must
not masquerade as a stale profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class JobStatus:
    """Everything the parent knows about one fleet job, live."""

    name: str
    app: str = ""
    state: str = "pending"  # pending | running | done | failed | cancelled
    started: Optional[float] = None
    last_seen: Optional[float] = None
    cycles: int = 0
    recoveries: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)
    journal_records: int = 0
    journal_dropped: int = 0
    drifting: bool = False
    note: str = ""
    trace: str = ""

    @property
    def non_attack_recoveries(self) -> int:
        """Recoveries that count toward drift (attacks excluded)."""
        return max(0, self.recoveries - self.verdicts.get("captured-attack", 0))


class LiveFleetView:
    """Aggregates streamed worker messages into a live fleet picture.

    ``baselines`` maps job name -> size of the app's profiled
    benign-recovery baseline; a job whose non-attack recovery count
    exceeds ``drift_factor * baseline + drift_margin`` is flagged as
    drifting (once).  ``stall_after`` seconds without a heartbeat marks
    a running job stalled in :meth:`render`.
    """

    def __init__(
        self,
        baselines: Optional[Dict[str, int]] = None,
        drift_factor: float = 2.0,
        drift_margin: int = 3,
        stall_after: float = 10.0,
    ) -> None:
        self.baselines = dict(baselines or {})
        self.drift_factor = drift_factor
        self.drift_margin = drift_margin
        self.stall_after = stall_after
        self.jobs: Dict[str, JobStatus] = {}
        self.notices: List[str] = []
        #: daemon admission rejections folded by reason code
        self.rejections: Dict[str, int] = {}
        #: events the daemon dropped because this consumer fell behind
        self.watch_dropped = 0
        #: currently-firing daemon alerts by rule name
        self.alerts: Dict[str, str] = {}

    def expect(self, name: str, app: str = "") -> JobStatus:
        """Pre-register a job so render() shows it as pending."""
        status = self.jobs.get(name)
        if status is None:
            status = self.jobs[name] = JobStatus(name=name, app=app)
        elif app and not status.app:
            status.app = app
        return status

    # -- message intake --------------------------------------------------------

    def update(self, message: Dict[str, Any], now: float = 0.0) -> List[str]:
        """Fold one worker (or serve-daemon) message in; returns new
        notice lines.  ``repro fleet --watch`` relays each job's
        ``start`` / ``heartbeat`` / ``journal`` / ``done``; ``repro ctl
        watch`` additionally streams ``queued`` / ``cancelled`` /
        ``rejected`` and ``serve-*`` lifecycle events, all folded here
        so both share one live view."""
        kind = message.get("type")
        if kind == "rejected":
            # no job was created; tally the reason and surface the
            # admission decision
            reason = message.get("reason", "?")
            self.rejections[reason] = self.rejections.get(reason, 0) + 1
            notice = (
                f"[fleet] submission rejected "
                f"({reason}): "
                f"{message.get('error', '')}".rstrip()
            )
            self.notices.append(notice)
            return [notice]
        if kind == "watch-dropped":
            dropped = int(message.get("dropped", 0))
            self.watch_dropped += dropped
            notice = (
                f"[serve] watch stream dropped {dropped} event(s) "
                "(consumer fell behind)"
            )
            self.notices.append(notice)
            return [notice]
        if kind == "alert":
            rule = message.get("rule", "?")
            state = message.get("state", "?")
            if state == "firing":
                self.alerts[rule] = message.get("label", "")
                notice = f"[serve] ALERT firing: {rule}"
                if message.get("label"):
                    notice += f" ({message['label']})"
                if message.get("description"):
                    notice += f" -- {message['description']}"
            else:
                self.alerts.pop(rule, None)
                notice = f"[serve] alert resolved: {rule}"
            self.notices.append(notice)
            return [notice]
        if kind in ("serve-started", "serve-draining", "serve-stopped"):
            notice = f"[serve] {kind.split('-', 1)[1]}"
            if kind == "serve-started" and message.get("variants"):
                notice += f" ({len(message['variants'])} warm variant(s))"
            self.notices.append(notice)
            return [notice]
        if kind == "scaled":
            notice = (
                f"[serve] scaled workers to {message.get('workers', '?')} "
                f"(pressure {message.get('pressure', '?')})"
            )
            self.notices.append(notice)
            return [notice]
        if kind == "serve-spawner-exited":
            notice = (
                f"[serve] worker spawner pid {message.get('pid', '?')} "
                "exited: no worker process can be added or replaced"
            )
            self.notices.append(notice)
            return [notice]
        name = message.get("job", "?")
        status = self.expect(name, app=message.get("app", ""))
        notices: List[str] = []
        status.last_seen = now
        if message.get("trace") and not status.trace:
            status.trace = str(message["trace"])
        if kind == "queued":
            notices.append(f"[fleet] {name}: queued")
        elif kind == "cancelled":
            status.state = "cancelled"
            status.note = message.get("error", "")
            notices.append(f"[fleet] {name}: CANCELLED")
        elif kind == "start":
            status.state = "running"
            status.started = now
            notices.append(f"[fleet] {name}: started")
        elif kind == "heartbeat":
            if status.state == "pending":
                status.state = "running"
            status.cycles = message.get("cycles", status.cycles)
            status.recoveries = message.get("recoveries", status.recoveries)
            status.verdicts = dict(message.get("verdicts", status.verdicts))
            notices.extend(self._check_drift(status))
        elif kind == "journal":
            status.journal_records += len(message.get("records", []))
            status.journal_dropped += message.get("dropped", 0)
        elif kind == "done":
            status.cycles = message.get("cycles", status.cycles)
            status.recoveries = message.get("recoveries", status.recoveries)
            status.verdicts = dict(message.get("verdicts", status.verdicts))
            notices.extend(self._check_drift(status))
            if message.get("ok", True):
                status.state = "done"
                notices.append(f"[fleet] {name}: done")
            else:
                status.state = "failed"
                status.note = message.get("error", "")
                first = status.note.splitlines()[0] if status.note else ""
                notices.append(f"[fleet] {name}: FAILED {first}".rstrip())
        self.notices.extend(notices)
        return notices

    def _check_drift(self, status: JobStatus) -> List[str]:
        if status.drifting:
            return []
        baseline = self.baselines.get(status.name)
        if baseline is None:
            return []
        threshold = self.drift_factor * baseline + self.drift_margin
        observed = status.non_attack_recoveries
        if observed <= threshold:
            return []
        status.drifting = True
        return [
            f"[fleet] {status.name}: PROFILE DRIFT -- {observed} recoveries "
            f"vs baseline of {baseline} (threshold {threshold:.0f}); "
            f"re-profile {status.app or 'the application'}"
        ]

    # -- queries ----------------------------------------------------------------

    def drifting(self) -> List[str]:
        return sorted(name for name, s in self.jobs.items() if s.drifting)

    def stalled(self, now: float) -> List[str]:
        return sorted(
            name
            for name, s in self.jobs.items()
            if s.state == "running"
            and s.last_seen is not None
            and now - s.last_seen > self.stall_after
        )

    def render(self, now: float = 0.0) -> str:
        """One status line per job, fleet table style."""
        stalled = set(self.stalled(now))
        lines = [
            f"{'job':<24} {'state':<8} {'beat':>6} {'cycles':>14} "
            f"{'recov':>6} {'jrnl':>6}  flags"
        ]
        for name in sorted(self.jobs):
            s = self.jobs[name]
            age = (
                f"{now - s.last_seen:.1f}s"
                if s.last_seen is not None
                else "-"
            )
            flags = []
            if s.drifting:
                flags.append("DRIFT")
            if name in stalled:
                flags.append("STALLED")
            if s.journal_dropped:
                flags.append(f"dropped={s.journal_dropped}")
            lines.append(
                f"{name:<24} {s.state:<8} {age:>6} {s.cycles:>14} "
                f"{s.recoveries:>6} {s.journal_records:>6}  "
                + ",".join(flags)
            )
        footer = []
        if self.rejections:
            tallies = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.rejections.items())
            )
            footer.append(f"rejected: {tallies}")
        if self.alerts:
            footer.append(
                "alerts firing: " + ", ".join(sorted(self.alerts))
            )
        if self.watch_dropped:
            footer.append(f"watch events dropped: {self.watch_dropped}")
        if footer:
            lines.append("")
            lines.extend(footer)
        return "\n".join(line.rstrip() for line in lines)


def _fmt(value: Any, pattern: str = "{:.2f}", missing: str = "-") -> str:
    if value is None:
        return missing
    try:
        return pattern.format(value)
    except (ValueError, TypeError):
        return str(value)


def render_service_top(metrics: Dict[str, Any]) -> str:
    """One ``repro ctl top`` frame from a ``metrics`` op response.

    Pure formatting over the compact dict produced by
    :meth:`repro.obs.metrics.MetricsRecorder.describe` (plus the
    daemon's pid/uptime) -- no client or daemon state, so it is
    testable with a literal dict.
    """
    queue = metrics.get("queue") or {}
    workers = metrics.get("workers") or {}
    pool = metrics.get("pool") or {}
    throughput = metrics.get("throughput") or {}
    lines = [
        f"repro serve  pid {metrics.get('pid', '?')}  "
        f"up {_fmt(metrics.get('uptime_seconds'), '{:.0f}')}s  "
        f"samples {metrics.get('samples', 0)} "
        f"@ {_fmt(metrics.get('interval'), '{:g}')}s",
        f"queue   depth {_fmt(queue.get('depth'), '{:.0f}')}  "
        f"running {_fmt(queue.get('running'), '{:.0f}')}  "
        f"utilization {_fmt(queue.get('utilization'), '{:.0%}')}",
        f"workers alive {_fmt(workers.get('alive'), '{:.0f}')}"
        f"/{_fmt(workers.get('desired'), '{:.0f}')} desired  "
        f"utilization {_fmt(workers.get('utilization'), '{:.0%}')}",
        f"pool    hit ratio {_fmt(pool.get('hit_ratio'), '{:.0%}')}  "
        + "  ".join(
            f"{label}: {_fmt(stats.get('warm'), '{:.0f}')} warm"
            for label, stats in sorted(
                (pool.get("variants") or {}).items()
            )
        ),
        f"jobs    finished {_fmt(throughput.get('finished_total'), '{:.0f}')}"
        f"  rate {_fmt(throughput.get('finished_per_min'), '{:.1f}')}/min",
        "",
        f"{'tenant':<12} {'infl':>5} {'cycles':>12} {'wait-p95':>9} "
        f"{'lat-p50':>8} {'lat-p95':>8} {'lat-p99':>8} {'slo':>6} "
        f"{'budget':>7} {'rej':>5}",
    ]
    for tenant, row in sorted((metrics.get("tenants") or {}).items()):
        slo = row.get("slo") or {}
        lines.append(
            f"{tenant:<12} "
            f"{_fmt(row.get('in_flight'), '{:.0f}'):>5} "
            f"{_fmt(row.get('charged_cycles'), '{:.0f}'):>12} "
            f"{_fmt((row.get('queue_wait') or {}).get('p95')):>9} "
            f"{_fmt((row.get('latency') or {}).get('p50')):>8} "
            f"{_fmt((row.get('latency') or {}).get('p95')):>8} "
            f"{_fmt((row.get('latency') or {}).get('p99')):>8} "
            f"{_fmt(slo.get('compliance'), '{:.0%}'):>6} "
            f"{_fmt(row.get('budget_remaining_ratio'), '{:.0%}'):>7} "
            f"{_fmt(row.get('rejected'), '{:.0f}'):>5}"
        )
    alerts = (metrics.get("alerts") or {}).get("active") or []
    lines.append("")
    if alerts:
        lines.append("alerts:")
        for alert in alerts:
            label = f" ({alert['label']})" if alert.get("label") else ""
            lines.append(
                f"  FIRING {alert.get('rule', '?')}{label}  "
                f"value {_fmt(alert.get('value'), '{:g}')}"
            )
    else:
        lines.append("alerts: none firing")
    return "\n".join(line.rstrip() for line in lines)
