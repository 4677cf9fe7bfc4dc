"""Service-level time-series metrics, per-tenant SLOs, and alert rules.

The serve daemon (PR 8) exposes point-in-time ``stats()`` snapshots;
this module adds the continuous layer a production VMI deployment
actually operates on:

* :class:`RingSeries` / :class:`SeriesBank` -- fixed-size ring windows
  at 1s/10s/60s resolutions with rate/delta reduction over any lookback;
* :class:`QuantileWindow` -- streaming p50/p95/p99 over a bounded
  observation window (per-tenant queue-wait and submit->result latency);
* :class:`MetricsRecorder` -- samples a daemon-provided *view* (queue
  description, pool stats, ``serve.*`` counters, the lifetime job
  telemetry merge) on a wall-clock cadence.  Every input is a
  snapshot/merge path: the recorder never touches a running guest, so
  virtual-cycle scores are bit-identical with metrics on or off
  (the ``metrics`` scenario of ``benchmarks/gates.py`` gates it);
* :class:`AlertRule` / :class:`AlertEngine` -- declarative threshold /
  rate / delta rules evaluated each sample tick, firing and resolving
  as transitions the daemon turns into ``alert`` events,
  ``serve.alerts{rule:state}`` counters and ops-journal records.

The exposition side (Prometheus text) shares
:func:`repro.telemetry.export.format_prometheus` with
``repro report --format prom``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.telemetry.export import format_prometheus, prometheus_name

#: Default ring resolutions in seconds (finest first).
DEFAULT_RESOLUTIONS: Tuple[float, ...] = (1.0, 10.0, 60.0)

#: Default points retained per ring (120 x 1s / 10s / 60s windows).
DEFAULT_CAPACITY = 120

#: Default bounded window for streaming quantiles.
DEFAULT_QUANTILE_WINDOW = 512

#: Quantiles reported for latency/queue-wait series.
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

_COMPARATORS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
}


class MetricsError(Exception):
    """Bad rule definition or malformed rules file."""


# ---------------------------------------------------------------------------
# time series primitives
# ---------------------------------------------------------------------------


class RingSeries:
    """A fixed-size ring of ``(timestamp, value)`` points.

    One ring holds one resolution: points closer together than
    ``resolution`` seconds are coalesced by the writer
    (:class:`MultiResolutionSeries`), and the ring keeps the most
    recent ``capacity`` of them, counting evictions in ``evicted``.
    """

    __slots__ = ("resolution", "capacity", "_points", "evicted")

    def __init__(
        self, resolution: float = 1.0, capacity: int = DEFAULT_CAPACITY
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.resolution = resolution
        self.capacity = capacity
        self._points: deque = deque(maxlen=capacity)
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._points)

    def append(self, t: float, value: float) -> None:
        if self._points and t < self._points[-1][0]:
            t = self._points[-1][0]  # clock went backwards: clamp
        if len(self._points) == self.capacity:
            self.evicted += 1
        self._points.append((t, value))

    def replace_last(self, t: float, value: float) -> None:
        """Overwrite the newest point (sub-resolution refresh).

        Keeps ``latest`` current when samples arrive faster than this
        ring's resolution, without consuming a slot per sample.
        """
        if not self._points:
            self.append(t, value)
            return
        if len(self._points) >= 2 and t < self._points[-2][0]:
            t = self._points[-2][0]
        self._points[-1] = (t, value)

    @property
    def latest(self) -> Optional[float]:
        return self._points[-1][1] if self._points else None

    @property
    def latest_time(self) -> Optional[float]:
        return self._points[-1][0] if self._points else None

    def points(self) -> List[Tuple[float, float]]:
        return list(self._points)

    def window(
        self, seconds: float, now: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """Points within the trailing ``seconds`` (inclusive)."""
        if not self._points:
            return []
        if now is None:
            now = self._points[-1][0]
        cutoff = now - seconds
        return [(t, v) for t, v in self._points if t >= cutoff]

    def _reference(
        self, seconds: float, now: float
    ) -> Optional[Tuple[float, float]]:
        """Newest point at or before ``now - seconds``.

        ``None`` means the ring does not yet span the lookback: rate and
        delta refuse to extrapolate from a partial window, so rules built
        on them cannot fire during warmup.
        """
        cutoff = now - seconds
        ref = None
        for t, v in self._points:
            if t <= cutoff:
                ref = (t, v)
            else:
                break
        return ref

    def delta(
        self, seconds: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Change in value over the trailing window (None until covered)."""
        if len(self._points) < 2:
            return None
        if now is None:
            now = self._points[-1][0]
        ref = self._reference(seconds, now)
        if ref is None:
            return None
        return self._points[-1][1] - ref[1]

    def rate(
        self, seconds: float, now: Optional[float] = None
    ) -> Optional[float]:
        """Per-second rate of change over the trailing window."""
        if len(self._points) < 2:
            return None
        if now is None:
            now = self._points[-1][0]
        ref = self._reference(seconds, now)
        if ref is None:
            return None
        elapsed = self._points[-1][0] - ref[0]
        if elapsed <= 0:
            return None
        return (self._points[-1][1] - ref[1]) / elapsed

    def export(self) -> Dict[str, Any]:
        return {
            "resolution": self.resolution,
            "capacity": self.capacity,
            "evicted": self.evicted,
            "points": [[round(t, 3), v] for t, v in self._points],
        }


class MultiResolutionSeries:
    """One logical series fanned out over several ring resolutions.

    A ring commits a new point once ``resolution`` seconds passed since
    the last committed one -- so 120 points cover 2 minutes, 20 minutes
    and 2 hours respectively with the default 1s/10s/60s ladder.
    Samples arriving faster than a ring's resolution *refresh* its
    newest point in place, so ``latest`` always reflects the most
    recent sample even when the recorder ticks sub-second.
    """

    __slots__ = ("rings", "_anchors")

    def __init__(
        self,
        resolutions: Iterable[float] = DEFAULT_RESOLUTIONS,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        ladder = sorted(set(float(r) for r in resolutions))
        if not ladder:
            raise ValueError("at least one resolution required")
        self.rings: Dict[float, RingSeries] = {
            r: RingSeries(resolution=r, capacity=capacity) for r in ladder
        }
        self._anchors: Dict[float, Optional[float]] = {
            r: None for r in ladder
        }

    def append(self, t: float, value: float) -> None:
        for resolution, ring in self.rings.items():
            anchor = self._anchors[resolution]
            if anchor is None or t - anchor >= resolution - 1e-9:
                ring.append(t, value)
                self._anchors[resolution] = t
            else:
                ring.replace_last(t, value)

    def ring(self, resolution: Optional[float] = None) -> RingSeries:
        """The ring at ``resolution`` (finest when omitted)."""
        if resolution is None:
            return self.rings[min(self.rings)]
        best = min(
            self.rings, key=lambda r: (abs(r - resolution), r)
        )
        return self.rings[best]

    @property
    def latest(self) -> Optional[float]:
        return self.ring().latest

    @property
    def latest_time(self) -> Optional[float]:
        return self.ring().latest_time

    def export(self) -> Dict[str, Any]:
        return {str(r): ring.export() for r, ring in self.rings.items()}


class SeriesBank:
    """All recorded series, keyed ``name`` then ``label``.

    Scalar series use the empty label.  ``label_key`` names the
    dimension for exposition (``tenant``, ``variant``, ``reason``, ...)
    and is fixed the first time a name is observed.
    """

    def __init__(
        self,
        resolutions: Iterable[float] = DEFAULT_RESOLUTIONS,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.resolutions = tuple(resolutions)
        self.capacity = capacity
        self._series: Dict[str, Dict[str, MultiResolutionSeries]] = {}
        self._label_keys: Dict[str, str] = {}
        #: when set (a list), every observation is also appended as
        #: ``(name, label, label_key, t, value)`` -- the persistence tap
        #: the obs store archives, placed *before* ring coalescing so a
        #: replay runs the exact code path and reproduces the rings
        #: bit-equal (see :mod:`repro.obs.store`)
        self._tap: Optional[list] = None

    def observe(
        self,
        name: str,
        t: float,
        value: float,
        label: str = "",
        label_key: str = "label",
    ) -> None:
        family = self._series.setdefault(name, {})
        self._label_keys.setdefault(name, label_key)
        series = family.get(label)
        if series is None:
            series = family[label] = MultiResolutionSeries(
                resolutions=self.resolutions, capacity=self.capacity
            )
        if self._tap is not None:
            self._tap.append((name, label, label_key, t, float(value)))
        series.append(t, float(value))

    def family(self, name: str) -> Dict[str, MultiResolutionSeries]:
        return self._series.get(name, {})

    def get(
        self, name: str, label: str = ""
    ) -> Optional[MultiResolutionSeries]:
        return self._series.get(name, {}).get(label)

    def label_key(self, name: str) -> str:
        return self._label_keys.get(name, "label")

    def names(self) -> List[str]:
        return sorted(self._series)

    def latest(self, name: str, label: str = "") -> Optional[float]:
        series = self.get(name, label)
        return series.latest if series is not None else None

    def export(self) -> Dict[str, Any]:
        return {
            name: {
                "label_key": self.label_key(name),
                "series": {
                    label: series.export()
                    for label, series in sorted(family.items())
                },
            }
            for name, family in sorted(self._series.items())
        }

    def prometheus_lines(self, prefix: str = "repro") -> List[str]:
        """Every series' latest value as a Prometheus gauge."""
        lines: List[str] = []
        for name, family in sorted(self._series.items()):
            metric = f"{prefix}_{prometheus_name(name)}"
            lines.append(f"# TYPE {metric} gauge")
            key = self.label_key(name)
            for label, series in sorted(family.items()):
                value = series.latest
                if value is None:
                    continue
                if label:
                    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
                    lines.append(f'{metric}{{{key}="{escaped}"}} {value:g}')
                else:
                    lines.append(f"{metric} {value:g}")
        return lines


class QuantileWindow:
    """Bounded sliding window with exact quantiles over its contents.

    The window is small (hundreds of points), so sorting a copy per
    query is cheaper and more predictable than a sketch -- and exact.
    """

    __slots__ = ("_window", "count", "total")

    def __init__(self, window: int = DEFAULT_QUANTILE_WINDOW) -> None:
        self._window: deque = deque(maxlen=window)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self._window.append(float(value))
        self.count += 1
        self.total += float(value)

    def quantile(self, q: float) -> Optional[float]:
        if not self._window:
            return None
        ordered = sorted(self._window)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[int(idx)]

    def describe(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": (self.total / self.count) if self.count else None,
            **{
                f"p{int(q * 100)}": self.quantile(q) for q in QUANTILES
            },
        }


# ---------------------------------------------------------------------------
# alert rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlertCondition:
    """One comparison against a series.

    ``mode`` selects the reduction: ``value`` (latest sample, must be
    fresher than ``window``), ``delta`` (change over the trailing
    ``window``) or ``rate`` (per-second change).  ``label`` pins the
    condition to one label; ``None`` evaluates every label in the
    family independently.
    """

    metric: str
    op: str
    threshold: float
    mode: str = "value"
    window: float = 10.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise MetricsError(
                f"unknown comparator {self.op!r} "
                f"(use one of {', '.join(sorted(_COMPARATORS))})"
            )
        if self.mode not in ("value", "delta", "rate"):
            raise MetricsError(
                f"unknown mode {self.mode!r} (use value, delta or rate)"
            )

    def evaluate(
        self, bank: SeriesBank, label: str, now: float
    ) -> Optional[float]:
        """The reduced value for ``label``, or None when unevaluable."""
        series = bank.get(self.metric, self.label if self.label is not None else label)
        if series is None:
            return None
        ring = series.ring()
        if self.mode == "value":
            latest_t = ring.latest_time
            if latest_t is None or now - latest_t > max(self.window, 5.0):
                return None  # stale: a dead sampler must not keep firing
            return ring.latest
        if self.mode == "delta":
            return ring.delta(self.window, now)
        return ring.rate(self.window, now)

    def breached(self, value: Optional[float]) -> bool:
        if value is None:
            return False
        return _COMPARATORS[self.op](value, self.threshold)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "mode": self.mode,
            "window": self.window,
        }
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlertCondition":
        try:
            return cls(
                metric=str(data["metric"]),
                op=str(data.get("op", ">=")),
                threshold=float(data["threshold"]),
                mode=str(data.get("mode", "value")),
                window=float(data.get("window", 10.0)),
                label=(
                    str(data["label"]) if data.get("label") is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise MetricsError(
                f"alert condition missing required field {exc.args[0]!r}"
            ) from exc


@dataclass(frozen=True)
class AlertRule:
    """A named condition with a debounce and an optional guard.

    The rule *fires* after ``for_samples`` consecutive breaching ticks
    and *resolves* on the first non-breaching one.  ``guard`` (when
    set) must also hold for a tick to count as breaching -- e.g.
    worker-stall only means anything while jobs are actually queued.
    """

    name: str
    condition: AlertCondition
    for_samples: int = 2
    guard: Optional[AlertCondition] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise MetricsError("alert rule needs a name")
        if self.for_samples < 1:
            raise MetricsError(
                f"rule {self.name!r}: for_samples must be >= 1"
            )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "for_samples": self.for_samples,
            **self.condition.to_dict(),
        }
        if self.guard is not None:
            data["guard"] = self.guard.to_dict()
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlertRule":
        guard = None
        if data.get("guard") is not None:
            guard = AlertCondition.from_dict(data["guard"])
        return cls(
            name=str(data.get("name", "")),
            condition=AlertCondition.from_dict(data),
            for_samples=int(data.get("for_samples", 2)),
            guard=guard,
            description=str(data.get("description", "")),
        )


def load_rules(path: str) -> List[AlertRule]:
    """Parse a JSON file holding a list of rule dicts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MetricsError(f"unreadable alert rules {path}: {exc}") from exc
    if not isinstance(data, list):
        raise MetricsError(
            f"alert rules {path}: expected a JSON list of rule objects"
        )
    rules = [AlertRule.from_dict(item) for item in data]
    names = [r.name for r in rules]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise MetricsError(
            f"alert rules {path}: duplicate rule name(s) "
            f"{', '.join(sorted(dupes))}"
        )
    return rules


def default_rules() -> List[AlertRule]:
    """The built-in operational rule catalog (see docs/SERVICE.md)."""
    return [
        AlertRule(
            name="queue-saturation",
            condition=AlertCondition(
                metric="serve.queue.utilization", op=">=", threshold=0.8
            ),
            for_samples=2,
            description="queued jobs at >=80% of the admission cap",
        ),
        AlertRule(
            name="pool-hit-collapse",
            condition=AlertCondition(
                metric="serve.pool.hit_ratio", op="<", threshold=0.5
            ),
            for_samples=3,
            description="warm pool serving <50% of acquisitions "
            "(refill falling behind)",
        ),
        AlertRule(
            name="tenant-budget-imminent",
            condition=AlertCondition(
                metric="serve.tenant.budget_remaining_ratio",
                op="<",
                threshold=0.1,
            ),
            for_samples=1,
            description="a tenant has <10% of its virtual-cycle "
            "budget left",
        ),
        AlertRule(
            name="worker-stall",
            condition=AlertCondition(
                metric="serve.jobs.finished",
                op="<=",
                threshold=0.0,
                mode="delta",
                window=30.0,
            ),
            guard=AlertCondition(
                metric="serve.queue.depth", op=">", threshold=0.0
            ),
            for_samples=5,
            description="jobs are queued but none finished over the "
            "trailing 30s",
        ),
        AlertRule(
            name="drift-recurrence",
            condition=AlertCondition(
                metric="jobs.recovery.verdicts",
                op=">",
                threshold=0.0,
                mode="delta",
                window=60.0,
                label="anomalous",
            ),
            for_samples=1,
            description="anomalous recovery verdicts recurring across "
            "jobs: profiles are drifting fleet-wide",
        ),
    ]


@dataclass
class AlertTransition:
    """One fire/resolve edge the engine hands back to the daemon."""

    rule: str
    label: str
    state: str  # firing | resolved
    value: Optional[float]
    threshold: float
    at: float
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "label": self.label,
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "at": self.at,
            "description": self.description,
        }


@dataclass
class _AlertState:
    streak: int = 0
    firing: bool = False
    since: Optional[float] = None
    last_value: Optional[float] = None


class AlertEngine:
    """Evaluates a rule set against a bank, tracking per-label state."""

    def __init__(self, rules: Optional[Iterable[AlertRule]] = None) -> None:
        self.rules: List[AlertRule] = list(
            default_rules() if rules is None else rules
        )
        self._states: Dict[Tuple[str, str], _AlertState] = {}

    def _labels_for(self, rule: AlertRule, bank: SeriesBank) -> List[str]:
        if rule.condition.label is not None:
            return [rule.condition.label]
        family = bank.family(rule.condition.metric)
        return sorted(family) if family else []

    def evaluate(self, bank: SeriesBank, now: float) -> List[AlertTransition]:
        transitions: List[AlertTransition] = []
        for rule in self.rules:
            for label in self._labels_for(rule, bank):
                state = self._states.setdefault(
                    (rule.name, label), _AlertState()
                )
                value = rule.condition.evaluate(bank, label, now)
                breach = rule.condition.breached(value)
                if breach and rule.guard is not None:
                    guard_value = rule.guard.evaluate(bank, label, now)
                    breach = rule.guard.breached(guard_value)
                state.last_value = value
                if breach:
                    state.streak += 1
                    if not state.firing and state.streak >= rule.for_samples:
                        state.firing = True
                        state.since = now
                        transitions.append(
                            AlertTransition(
                                rule=rule.name,
                                label=label,
                                state="firing",
                                value=value,
                                threshold=rule.condition.threshold,
                                at=now,
                                description=rule.description,
                            )
                        )
                else:
                    state.streak = 0
                    if state.firing:
                        state.firing = False
                        state.since = None
                        transitions.append(
                            AlertTransition(
                                rule=rule.name,
                                label=label,
                                state="resolved",
                                value=value,
                                threshold=rule.condition.threshold,
                                at=now,
                                description=rule.description,
                            )
                        )
        return transitions

    def active(self) -> List[Dict[str, Any]]:
        """Currently-firing alerts, oldest first."""
        rows = []
        for (rule, label), state in self._states.items():
            if state.firing:
                rows.append(
                    {
                        "rule": rule,
                        "label": label,
                        "since": state.since,
                        "value": state.last_value,
                    }
                )
        rows.sort(key=lambda r: (r["since"] or 0.0, r["rule"]))
        return rows


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


@dataclass
class _TenantTrack:
    queue_wait: QuantileWindow = field(default_factory=QuantileWindow)
    latency: QuantileWindow = field(default_factory=QuantileWindow)
    slo_met: int = 0
    slo_missed: int = 0


class MetricsRecorder:
    """Folds daemon sample views into series, quantiles and alerts.

    The daemon builds one *view* dict per tick
    (:meth:`repro.serve.daemon.ServeDaemon.metrics_view`) from
    snapshot-only paths -- queue description, job timestamps, pool
    stats, the ``serve.*`` registry, the lifetime job-telemetry merge --
    and hands it to :meth:`sample`.  Nothing here can observe a guest
    mid-slice, which is what keeps virtual-cycle scores bit-identical
    with the recorder on.

    All public methods are safe to call from any thread.
    """

    def __init__(
        self,
        interval: float = 1.0,
        resolutions: Iterable[float] = DEFAULT_RESOLUTIONS,
        capacity: int = DEFAULT_CAPACITY,
        rules: Optional[Iterable[AlertRule]] = None,
        slo_latency: Optional[float] = None,
        quantile_window: int = DEFAULT_QUANTILE_WINDOW,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.slo_latency = slo_latency
        self.quantile_window = quantile_window
        self.bank = SeriesBank(resolutions=resolutions, capacity=capacity)
        self.engine = AlertEngine(rules=rules)
        self.samples = 0
        self.first_sample_at: Optional[float] = None
        self.last_sample_at: Optional[float] = None
        self.alert_history: List[AlertTransition] = []
        self._tenants: Dict[str, _TenantTrack] = {}
        self._seen_started: set = set()
        self._seen_finished: set = set()
        self._lock = threading.Lock()

    # -- sampling -------------------------------------------------------------

    def sample(
        self, view: Dict[str, Any], tap: Optional[list] = None
    ) -> List[AlertTransition]:
        """Fold one daemon view in; returns new alert transitions.

        With ``tap`` (a list), every observation this tick makes is
        also appended to it as ``(name, label, label_key, t, value)``
        -- the raw stream the obs store persists for bit-equal replay.
        """
        with self._lock:
            now = float(view.get("now", time.time()))
            if self.first_sample_at is None:
                self.first_sample_at = now
            if tap is not None:
                self.bank._tap = tap
            try:
                self._sample_queue(view, now)
                self._sample_pool(view, now)
                self._sample_counters(view, now)
                self._sample_jobs(view, now)
            finally:
                self.bank._tap = None
            transitions = self.engine.evaluate(self.bank, now)
            self.alert_history.extend(transitions)
            self.samples += 1
            self.last_sample_at = now
            return transitions

    def _sample_queue(self, view: Dict[str, Any], now: float) -> None:
        queue = view.get("queue") or {}
        depth = float(queue.get("depth", 0))
        running = float(queue.get("running", 0))
        max_depth = float(queue.get("max_depth", 0) or 0)
        self.bank.observe("serve.queue.depth", now, depth)
        self.bank.observe("serve.queue.running", now, running)
        if max_depth > 0:
            self.bank.observe(
                "serve.queue.utilization", now, depth / max_depth
            )
        workers = view.get("workers") or {}
        alive = float(workers.get("alive", 0))
        self.bank.observe("serve.workers.alive", now, alive)
        self.bank.observe(
            "serve.workers.desired", now, float(workers.get("desired", 0))
        )
        if alive > 0:
            self.bank.observe(
                "serve.workers.utilization", now, min(1.0, running / alive)
            )
        for tenant, state in (queue.get("tenants") or {}).items():
            self.bank.observe(
                "serve.tenant.in_flight", now,
                float(state.get("in_flight", 0)),
                label=tenant, label_key="tenant",
            )
            self.bank.observe(
                "serve.tenant.charged_cycles", now,
                float(state.get("charged_cycles", 0)),
                label=tenant, label_key="tenant",
            )
            self.bank.observe(
                "serve.tenant.rejected", now,
                float(sum((state.get("rejections") or {}).values())),
                label=tenant, label_key="tenant",
            )
            budget = state.get("cycle_budget")
            if budget:
                remaining = state.get("remaining_cycles") or 0
                self.bank.observe(
                    "serve.tenant.budget_remaining_ratio", now,
                    remaining / budget,
                    label=tenant, label_key="tenant",
                )

    def _sample_pool(self, view: Dict[str, Any], now: float) -> None:
        pool = view.get("pool") or {}
        hits_total = 0.0
        misses_total = 0.0
        for digest, stats in pool.items():
            label = stats.get("label") or digest
            self.bank.observe(
                "serve.pool.warm", now, float(stats.get("warm", 0)),
                label=label, label_key="variant",
            )
            hits_total += float(stats.get("hits", 0))
            misses_total += float(stats.get("misses", 0))
        self.bank.observe("serve.pool.hits", now, hits_total)
        self.bank.observe("serve.pool.misses", now, misses_total)
        # hit ratio over the trailing 10s, only while there is traffic:
        # an idle pool is not a collapsed one
        hits = self.bank.get("serve.pool.hits")
        misses = self.bank.get("serve.pool.misses")
        if hits is not None and misses is not None:
            dh = hits.ring().delta(10.0, now)
            dm = misses.ring().delta(10.0, now)
            if dh is not None and dm is not None and (dh + dm) > 0:
                self.bank.observe(
                    "serve.pool.hit_ratio", now, dh / (dh + dm)
                )

    def _observe_counter(
        self, name: str, now: float, value: float, label: str, key: str
    ) -> None:
        """Observe a labelled counter, backfilling new labels with zero.

        A label absent from a cumulative counter family *is* zero, so
        when one first appears mid-stream (e.g. the first ``anomalous``
        recovery verdict), seed its series with a zero point at the
        recorder's first sample time -- otherwise delta/rate rules like
        drift-recurrence could never fire on a newborn label before it
        had spanned their whole lookback window.
        """
        if (
            self.bank.get(name, label) is None
            and self.first_sample_at is not None
            and self.first_sample_at < now
        ):
            self.bank.observe(
                name, self.first_sample_at, 0.0, label=label, label_key=key
            )
        self.bank.observe(name, now, value, label=label, label_key=key)

    def _sample_counters(self, view: Dict[str, Any], now: float) -> None:
        for name, value in (view.get("serve_counters") or {}).items():
            self.bank.observe(name, now, float(value))
        finished = 0.0
        for name, values in (view.get("serve_labelled") or {}).items():
            total = float(sum(values.values()))
            self.bank.observe(name, now, total)
            key = "reason" if name == "serve.rejected" else "tenant"
            for label, value in values.items():
                self._observe_counter(
                    f"{name}.by", now, float(value), str(label), key
                )
            if name in ("serve.completed", "serve.failed", "serve.cancelled"):
                finished += total
        self.bank.observe("serve.jobs.finished", now, finished)
        for name, value in (view.get("jobs_counters") or {}).items():
            self.bank.observe(f"jobs.{name}", now, float(value))
        for name, values in (view.get("jobs_labelled") or {}).items():
            for label, value in values.items():
                self._observe_counter(
                    f"jobs.{name}", now, float(value), str(label), "label"
                )

    def _sample_jobs(self, view: Dict[str, Any], now: float) -> None:
        """Derive per-tenant queue-wait / latency from job timestamps."""
        for job in view.get("jobs") or []:
            job_id = job.get("id")
            tenant = str(job.get("tenant", "default"))
            track = self._tenants.get(tenant)
            if track is None:
                track = self._tenants[tenant] = _TenantTrack(
                    queue_wait=QuantileWindow(self.quantile_window),
                    latency=QuantileWindow(self.quantile_window),
                )
            started = job.get("started_at")
            submitted = job.get("submitted_at") or 0.0
            if started is not None and job_id not in self._seen_started:
                self._seen_started.add(job_id)
                track.queue_wait.observe(max(0.0, started - submitted))
            finished = job.get("finished_at")
            if finished is not None and job_id not in self._seen_finished:
                self._seen_finished.add(job_id)
                if job.get("state") == "done":
                    latency = max(0.0, finished - submitted)
                    track.latency.observe(latency)
                    if self.slo_latency is not None:
                        if latency <= self.slo_latency:
                            track.slo_met += 1
                        else:
                            track.slo_missed += 1
        for tenant, track in self._tenants.items():
            for q in QUANTILES:
                value = track.latency.quantile(q)
                if value is not None:
                    self.bank.observe(
                        f"serve.tenant.latency_p{int(q * 100)}", now, value,
                        label=tenant, label_key="tenant",
                    )
                value = track.queue_wait.quantile(q)
                if value is not None:
                    self.bank.observe(
                        f"serve.tenant.queue_wait_p{int(q * 100)}", now,
                        value, label=tenant, label_key="tenant",
                    )

    # -- exposition -----------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The compact latest-state dict (``metrics`` op, ``ctl top``)."""
        with self._lock:
            bank = self.bank
            tenants: Dict[str, Any] = {}
            for tenant, track in sorted(self._tenants.items()):
                compliance = None
                if track.slo_met + track.slo_missed:
                    compliance = track.slo_met / (
                        track.slo_met + track.slo_missed
                    )
                tenants[tenant] = {
                    "in_flight": bank.latest(
                        "serve.tenant.in_flight", tenant
                    ),
                    "charged_cycles": bank.latest(
                        "serve.tenant.charged_cycles", tenant
                    ),
                    "budget_remaining_ratio": bank.latest(
                        "serve.tenant.budget_remaining_ratio", tenant
                    ),
                    "rejected": bank.latest("serve.tenant.rejected", tenant),
                    "queue_wait": track.queue_wait.describe(),
                    "latency": track.latency.describe(),
                    "slo": {
                        "target_seconds": self.slo_latency,
                        "met": track.slo_met,
                        "missed": track.slo_missed,
                        "compliance": compliance,
                    },
                }
            pool: Dict[str, Any] = {}
            for label, series in bank.family("serve.pool.warm").items():
                pool[label] = {"warm": series.latest}
            finished = bank.get("serve.jobs.finished")
            throughput_per_min = None
            if finished is not None:
                rate = finished.ring().rate(60.0)
                if rate is not None:
                    throughput_per_min = rate * 60.0
            return {
                "samples": self.samples,
                "interval": self.interval,
                "last_sample_at": self.last_sample_at,
                "queue": {
                    "depth": bank.latest("serve.queue.depth"),
                    "running": bank.latest("serve.queue.running"),
                    "utilization": bank.latest("serve.queue.utilization"),
                },
                "workers": {
                    "alive": bank.latest("serve.workers.alive"),
                    "desired": bank.latest("serve.workers.desired"),
                    "utilization": bank.latest("serve.workers.utilization"),
                },
                "pool": {
                    "hit_ratio": bank.latest("serve.pool.hit_ratio"),
                    "variants": pool,
                },
                "throughput": {
                    "finished_total": bank.latest("serve.jobs.finished"),
                    "finished_per_min": throughput_per_min,
                },
                "tenants": tenants,
                "alerts": {
                    "active": self.engine.active(),
                    "transitions": len(self.alert_history),
                },
            }

    def export_series(self) -> Dict[str, Any]:
        """Full ring dump (``metrics`` op with ``format=series``)."""
        with self._lock:
            return {
                "samples": self.samples,
                "interval": self.interval,
                "series": self.bank.export(),
            }

    def prometheus_lines(self, prefix: str = "repro") -> List[str]:
        """Gauge exposition for every series plus alert states."""
        with self._lock:
            lines = self.bank.prometheus_lines(prefix=prefix)
            metric = f"{prefix}_serve_alert_state"
            lines.append(f"# TYPE {metric} gauge")
            active = {
                (row["rule"], row["label"]) for row in self.engine.active()
            }
            for rule in self.engine.rules:
                labels = {
                    label
                    for (name, label) in self.engine._states
                    if name == rule.name
                } or {""}
                for label in sorted(labels):
                    value = 1 if (rule.name, label) in active else 0
                    if label:
                        escaped = label.replace("\\", "\\\\").replace(
                            '"', '\\"'
                        )
                        lines.append(
                            f'{metric}{{rule="{rule.name}",'
                            f'label="{escaped}"}} {value}'
                        )
                    else:
                        lines.append(
                            f'{metric}{{rule="{rule.name}"}} {value}'
                        )
            return lines

    def to_prometheus(
        self,
        serve_snapshot: Optional[Dict[str, Any]] = None,
        jobs_snapshot: Optional[Dict[str, Any]] = None,
        prefix: str = "repro",
    ) -> str:
        """Full scrape body: registry counters + series gauges."""
        parts: List[str] = []
        if serve_snapshot is not None:
            parts.append(
                format_prometheus(serve_snapshot, prefix=prefix).rstrip("\n")
            )
        if jobs_snapshot is not None:
            parts.append(
                format_prometheus(
                    jobs_snapshot, prefix=f"{prefix}_jobs"
                ).rstrip("\n")
            )
        parts.extend(self.prometheus_lines(prefix=prefix))
        return "\n".join(p for p in parts if p) + "\n"
