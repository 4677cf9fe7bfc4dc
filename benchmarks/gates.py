#!/usr/bin/env python
"""Benchmark gates: virtual-cycle scores stay put, host cost stays bounded.

FACE-CHANGE's results are virtual-cycle scores (Tables I-II, Figures
6-7).  Every host-side mechanism this reproduction adds -- the span
journal, sampling, the JIT, the fleet, the daemon and its archive --
must leave those scores bit-identical, and may cost only bounded host
time.  :data:`SCENARIOS` declares each check once: its workload, its two
modes, its gates and its one-off checks.

How a scenario is measured:

* a *pass* runs one workload in one mode in a fresh interpreter
  (``gates.py --pass module:function KWARGS``), so no pass reuses the
  process-wide translation cache that an earlier pass filled;
* each mode runs :data:`REPEATS` times, and the mode that runs first
  alternates between repeats;
* a pass with a given workload and mode runs once per session and
  serves every scenario that needs it;
* a wall-clock gate is judged on the medians, with the interquartile
  range (IQR) printed next to them.

Usage::

    PYTHONPATH=src python benchmarks/gates.py                 # all
    PYTHONPATH=src python benchmarks/gates.py metrics serve   # chosen

``REPRO_BENCH_SCALE`` (default 2) sets the workload scale.  The session
writes ``BENCH_gates.json`` at the repository root, stamped with the
git revision, and exits non-zero when any gate fails.  The committed
file comes from a run of every scenario at scale 2; the telemetry
scenario records the interpreter reference there, which the switching
scenario's reference gates compare against.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Version of the ``BENCH_gates.json`` layout.
SCHEMA = 1
#: Timed passes per mode.
REPEATS = 5
ROOT = Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "BENCH_gates.json"
#: The captured-attack journal the observability scenario leaves behind.
ATTACK_JOURNAL = ROOT / "observability_attack_journal.jsonl"
#: Scale of the committed reference; switching's reference and speedup
#: gates apply at this scale only (scale 1 is a regression canary).
REFERENCE_SCALE = 2
#: Figure 7 request rates the paper suite sweeps.
HTTPERF_RATES = [10, 40]
FLEET_WORKERS = 2
PASS_TIMEOUT_S = 3600
#: Environment variables a mode sets; a pass inherits none of them.
MODE_VARS = (
    "REPRO_JIT", "REPRO_JOURNAL_DIR",
    "REPRO_SAMPLE_INTERVAL", "REPRO_PROBE_FUNCS",
)
#: Trace id pinned to each daemon pass's first request, so the archive
#: can be searched for it after a restart.
TRACE_ID = "9a7e5000000000000000000000000001"


class PassFailed(RuntimeError):
    """A pass's interpreter exited non-zero."""


# ---------------------------------------------------------------------------
# passes: each runs in a fresh interpreter and returns a JSON-able dict with
# at least ``wall_s`` and ``scores``; ``checks`` maps a check's name to ""
# when it held and to what went wrong otherwise
# ---------------------------------------------------------------------------


def fresh(
    fn: Callable[..., dict],
    kwargs: Mapping[str, Any],
    env: Optional[Mapping[str, str]] = None,
    cwd: Optional[Path] = None,
) -> dict:
    """Run ``fn(**kwargs)`` in a fresh interpreter; return its result."""
    target = f"{fn.__module__}:{fn.__qualname__}"
    full_env = {k: v for k, v in os.environ.items() if k not in MODE_VARS}
    paths = [str(ROOT / "src"), full_env.get("PYTHONPATH", "")]
    full_env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    full_env.update(env or {})
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--pass", target,
         json.dumps(kwargs)],
        env=full_env, cwd=cwd, capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-6:])
        raise PassFailed(f"{target} exited {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timed(fn: Callable, sink: List[float]) -> Callable:
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - started)

    return wrapper


def suite_pass(scale: int) -> dict:
    """The paper suite: Table I profiles, Figure 6 at 0 and 3 views, and
    the Figure 7 sweep; also times the paper's three operations."""
    from repro.analysis.similarity import profile_applications
    from repro.bench.httperf import run_httperf_sweep
    from repro.bench.unixbench import run_unixbench
    from repro.core.recovery import RecoveryEngine
    from repro.core.switching import ViewSwitcher
    from repro.core.view_manager import ViewBuilder

    samples: Dict[str, List[float]] = {}
    for cls, attr, op in (
        (ViewBuilder, "build", "view_build"),
        (ViewSwitcher, "switch_kernel_view", "view_switch"),
        (RecoveryEngine, "handle", "recovery"),
    ):
        setattr(cls, attr, _timed(getattr(cls, attr), samples.setdefault(op, [])))
    started = time.perf_counter()
    configs = profile_applications(scale=scale)
    baseline = run_unixbench(views=0, label="baseline")
    with_views = run_unixbench(views=3, configs=configs, label="3 views")
    points = run_httperf_sweep(configs["apache"], rates=HTTPERF_RATES)
    wall = time.perf_counter() - started
    scores = {f"unixbench.{n}": s for n, s in with_views.scores.items()}
    scores["unixbench.baseline_index"] = baseline.index
    scores["unixbench.three_views_index"] = with_views.index
    for point in points:
        scores[f"httperf.{point.rate}.baseline"] = point.baseline_throughput
        scores[f"httperf.{point.rate}.facechange"] = point.facechange_throughput
    per_op = {
        op: {
            "n": len(values),
            "median_us": round(statistics.median(values) * 1e6, 3) if values else None,
            "total_s": round(sum(values), 4),
        }
        for op, values in samples.items()
    }
    return {"wall_s": wall, "scores": scores, "per_op": per_op}


def _spec(jobs: Sequence[dict], scale: int, workers: int = 1):
    from repro.fleet.spec import FleetSpec

    return FleetSpec.from_dict(
        {"name": "gates", "workers": workers, "scale": scale, "jobs": list(jobs)}
    )


def _job_checks(failed: List[str]) -> Dict[str, str]:
    return {"every job ok": "; ".join(failed)}


def cold_pass(scale: int, jobs: List[dict]) -> dict:
    """The status quo before the fleet and the daemon: one fresh
    interpreter per job, each profiling its app and booting its own
    machine (``run_job_cold``)."""
    from repro.fleet.jobs import run_job_cold

    spec = _spec(jobs, scale)
    latency, scores, failed = [], {}, []
    for job in spec.jobs:
        started = time.perf_counter()
        result = fresh(
            run_job_cold, {"job_data": job.to_dict(), "base_seed": spec.seed}
        )
        latency.append(time.perf_counter() - started)
        scores[job.name] = [result["cycles"], result["syscalls"]]
        if not result["ok"]:
            failed.append(f"{job.name}: {result['error']}")
    wall = sum(latency)
    return {
        "wall_s": wall,
        "jobs_per_s": len(latency) / wall,
        "latency_s": statistics.mean(latency),
        "scores": scores,
        "checks": _job_checks(failed),
    }


def fleet_pass(scale: int, jobs: List[dict], library: str) -> dict:
    """``repro fleet``: boot once, snapshot, fork clones across workers."""
    from repro.fleet import ProfileLibrary, run_fleet

    report = run_fleet(
        _spec(jobs, scale, FLEET_WORKERS), ProfileLibrary(library)
    )
    return {
        "wall_s": report.wall_seconds,
        "jobs_per_s": report.completed / report.wall_seconds,
        "scores": {r["name"]: [r["cycles"], r["syscalls"]] for r in report.results},
        "checks": _job_checks(
            [f"{r['name']}: {r['error']}" for r in report.results if not r["ok"]]
        ),
        "fleet_mode": report.mode,
        "forked": report.forked,
    }


#: Series a live scrape of the metrics recorder must expose.
REQUIRED_SERIES = (
    "repro_serve_queue_depth",
    "repro_serve_queue_utilization",
    "repro_serve_pool_warm",
    "repro_serve_tenant_charged_cycles",
    "repro_serve_alert_state",
)


def daemon_pass(
    scale: int,
    jobs: List[dict],
    library: str,
    daemon: Dict[str, Any],
    sequential: bool = False,
) -> dict:
    """The serve mix through an in-process ``ServeDaemon``, driven over
    its control socket like ``repro ctl``.

    ``sequential`` submits each job and awaits its result before the
    next, so the latency is submit->result; otherwise every job is
    submitted at once, refilling while the queue is full, and the wall
    is submit->drain.  Scores are keyed by the fleet spec's job names,
    so they compare with fleet and cold runs; the names the daemon
    assigned are returned apart.
    """
    from urllib.request import urlopen

    from repro.fleet import ProfileLibrary
    from repro.serve import ServeClient, ServeDaemon
    from repro.serve.client import ServeClientError

    spec = _spec(jobs, scale)
    server = ServeDaemon(
        ProfileLibrary(library), socket_path="serve.sock",
        profile_scale=scale, **daemon,
    )
    server.start(guests=["default", "qemu-tsc"])
    client = ServeClient("serve.sock")
    out: Dict[str, Any] = {"scores": {}, "names": []}
    latency: List[float] = []
    failed: List[str] = []
    try:
        started = time.perf_counter()
        step = 1 if sequential else len(spec.jobs)
        for first in range(0, len(spec.jobs), step):
            batch = []
            for index, job in enumerate(spec.jobs[first:first + step], first):
                deadline = time.perf_counter() + 60.0
                while True:
                    try:
                        submitted = client.submit(
                            job.app, scale=job.scale, attack=job.attack,
                            guest=job.guest.name if job.guest else None,
                            trace_id=TRACE_ID if index == 0 else None,
                        )
                        break
                    except ServeClientError:
                        # queue full: refill promptly so it stays pinned
                        # at the admission cap while the worker drains
                        if time.perf_counter() > deadline:
                            raise
                        time.sleep(0.01)
                batch.append((job, submitted, time.perf_counter()))
            for job, submitted, sent in batch:
                result = client.result(submitted["id"], wait=True, timeout=600)["result"]
                latency.append(time.perf_counter() - sent)
                out["scores"][job.name] = [result["cycles"], result["syscalls"]]
                out["names"].append(submitted["name"])
                if not result["ok"]:
                    failed.append(f"{job.name}: {result['error']}")
        out["wall_s"] = time.perf_counter() - started
        out["latency_s"] = statistics.mean(latency)
        out["checks"] = _job_checks(failed)
        if server.metrics_port is not None:
            url = f"http://127.0.0.1:{server.metrics_port}/metrics"
            with urlopen(url, timeout=10) as fh:
                scrape = fh.read().decode("utf-8")
            out["checks"]["scrape series present"] = ", ".join(
                s for s in REQUIRED_SERIES if s not in scrape
            )
        if not client.shutdown(drain=True, timeout=60).get("drained"):
            raise RuntimeError("daemon did not drain cleanly")
        if server.metrics_port is not None:
            states = {(t.rule, t.state) for t in server.metrics.alert_history}
            cycled = {("queue-saturation", "firing"), ("queue-saturation", "resolved")}
            out["checks"]["queue-saturation fires and resolves"] = (
                "" if cycled <= states else f"transitions: {sorted(states)}"
            )
        if server.obs_dir is not None:
            out["checks"].update(_archive_checks(server))
            out["obs_dir"] = os.path.abspath(server.obs_dir)
        return out
    finally:
        if not server.stopped.is_set():
            server.shutdown(drain=False, timeout=30)


def _archive_checks(server) -> Dict[str, str]:
    """The archive replays to the live recorder's final state, bit for bit."""
    from repro.obs.store import read_archive, rebuild_export

    archive = read_archive(server.obs_dir)
    live_alerts = [t.to_dict() for t in server.metrics.alert_history]
    keys = ("rule", "label", "state", "value", "threshold", "at", "description")
    archived_alerts = [{k: a.get(k) for k in keys} for a in archive.alerts]
    return {
        "archive export bit-equal": (
            "" if rebuild_export(archive) == server.metrics.export_series()
            else "replayed export differs from the live export"
        ),
        "archive alerts bit-equal": (
            "" if archived_alerts == live_alerts
            else f"archived {len(archived_alerts)} alerts, live {len(live_alerts)}"
        ),
    }


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Mode:
    name: str
    #: the pass function, run in a fresh interpreter
    entry: Callable[..., dict]
    #: environment of the pass's interpreter
    env: Mapping[str, str] = field(default_factory=dict)
    #: extra arguments of the pass function
    args: Mapping[str, Any] = field(default_factory=dict)
    #: the pass function takes a profile library holding the workload's apps
    library: bool = False


@dataclass
class Verdict:
    name: str
    threshold: Any
    #: None when the gate does not apply at this scale
    ok: Optional[bool]
    value: Any = None
    detail: str = ""


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """Median and interquartile range (inclusive quartiles)."""
    if len(values) < 2:
        return float(values[0]), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def _score_mismatches(want: dict, runs: Sequence[Tuple[str, dict]]) -> List[str]:
    """Every key whose score in a run differs from ``want``."""
    return [
        f"{key}: {label} {got.get(key)!r} != {want.get(key)!r}"
        for label, got in runs
        for key in sorted(set(want) | set(got))
        if got.get(key) != want.get(key)
    ]


def _labelled(passes: Dict[str, List[dict]], modes: Sequence[Mode]):
    return [
        (f"{mode.name}#{i}", run)
        for mode in modes
        for i, run in enumerate(passes[mode.name])
    ]


@dataclass(frozen=True)
class Identical:
    """Every pass of both modes reports exactly the same scores."""

    name: str = "scores identical"

    def evaluate(self, modes, passes, scale) -> Verdict:
        runs = [(label, run["scores"]) for label, run in _labelled(passes, modes)]
        bad = _score_mismatches(runs[0][1], runs[1:])
        return Verdict(self.name, "exact", not bad, len(bad), "; ".join(bad[:8]))


@dataclass(frozen=True)
class Drift:
    """Every score of every pass within ``limit`` (relative) of the first."""

    limit: float
    name: str = "score drift"

    def evaluate(self, modes, passes, scale) -> Verdict:
        runs = _labelled(passes, modes)
        want = runs[0][1]["scores"]
        worst, where = 0.0, ""
        for label, run in runs[1:]:
            for key, ref in want.items():
                got = run["scores"].get(key)
                drift = float("inf") if got is None else (
                    abs(got / ref - 1.0) if ref else abs(got)
                )
                if drift > worst:
                    worst, where = drift, f"{key} in {label}"
        return Verdict(self.name, f"< {self.limit}", worst < self.limit,
                       round(worst, 6), where)


@dataclass(frozen=True)
class Ratio:
    """``median(over.metric) / median(under.metric)`` against a bound.

    ``op`` is ``">="`` or ``"<="``; ``grace_s`` adds an absolute
    allowance to a ``"<="`` bound on seconds.  The IQR of the per-repeat
    ratios is reported beside the ratio of medians.
    """

    name: str
    metric: str
    over: Mode
    under: Mode
    op: str
    threshold: float
    grace_s: float = 0.0
    #: scales the gate applies at; empty means every scale
    scales: Tuple[int, ...] = ()

    def evaluate(self, modes, passes, scale) -> Verdict:
        bound = f"{self.op} {self.threshold}" + (
            f" + {self.grace_s} s" if self.grace_s else ""
        )
        if self.scales and scale not in self.scales:
            return Verdict(self.name, bound, None,
                           detail=f"applies at scale {self.scales} only")
        top = [run[self.metric] for run in passes[self.over.name]]
        bottom = [run[self.metric] for run in passes[self.under.name]]
        top_med, top_iqr = median_iqr(top)
        bottom_med, bottom_iqr = median_iqr(bottom)
        ratio = top_med / bottom_med
        _, ratio_iqr = median_iqr([a / b for a, b in zip(top, bottom)])
        if self.op == ">=":
            ok = ratio >= self.threshold
        else:
            ok = top_med <= bottom_med * self.threshold + self.grace_s
        detail = (
            f"{self.metric} {self.over.name} {top_med:.4g} (IQR {top_iqr:.3g})"
            f" / {self.under.name} {bottom_med:.4g} (IQR {bottom_iqr:.3g})"
            f" = {ratio:.3f} (per-repeat IQR {ratio_iqr:.3f})"
        )
        return Verdict(self.name, bound, ok, round(ratio, 4), detail)


@dataclass(frozen=True)
class Holds:
    """Every pass of ``modes`` (default: both) reports ``name`` held."""

    name: str
    modes: Tuple[Mode, ...] = ()

    def evaluate(self, modes, passes, scale) -> Verdict:
        bad = [
            f"{label}: {run['checks'].get(self.name, 'not reported')}"
            for label, run in _labelled(passes, self.modes or modes)
            if run["checks"].get(self.name, "not reported")
        ]
        return Verdict(self.name, "every pass", not bad, len(bad), "; ".join(bad))


@dataclass(frozen=True)
class Scenario:
    name: str
    workload: Optional[Workload] = None
    modes: Tuple[Mode, ...] = ()
    gates: Tuple[Any, ...] = ()
    #: one-off checks, run once after the timed passes:
    #: ``check(session, passes) -> [Verdict]``
    checks: Tuple[Callable[["Session", Dict[str, List[dict]]], List[Verdict]], ...] = ()


# -- one-off checks ---------------------------------------------------------


def attack_replay(session: "Session", passes) -> List[Verdict]:
    """Record a KBeast capture; its journal must replay losslessly."""
    from repro.analysis.similarity import profile_applications
    from repro.fleet.jobs import run_under_view
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.malware import ALL_ATTACKS
    from repro.obs import attack_trees
    from repro.telemetry import build_span_trees, load_journal

    scale = session.scale
    config = profile_applications(apps=["bash"], scale=scale)["bash"]
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording(
        path=ATTACK_JOURNAL, keep=True,
        meta={"app": "bash", "attack": "KBeast", "scale": scale},
    )
    attack = next(a for a in ALL_ATTACKS if a.name == "KBeast")
    run_under_view(
        machine, config, "bash", scale, attack=attack, budget=20_000_000_000
    )
    live = [n.to_dict() for n in build_span_trees(journal.records())]
    machine.stop_recording()
    replayed = build_span_trees(load_journal(ATTACK_JOURNAL).records)
    captured = attack_trees(replayed)
    full = [
        tree for tree in captured
        if tree.kind == "vmexit" and any(
            rec.find("backtrace") and rec.find("provenance")
            for rec in tree.find("recovery")
        )
    ]
    return [
        Verdict("attack journal replays equal", "exact",
                [n.to_dict() for n in replayed] == live, len(replayed),
                f"{len(replayed)} span trees in {ATTACK_JOURNAL.name}"),
        Verdict("captured-attack chain with backtrace and provenance", ">= 1",
                bool(full), len(full),
                f"{len(captured)} captured-attack chains, {len(full)} full"),
    ]


#: Functions armed as probes in the sampled mode; both sit on hot paths
#: of the suite, so identity also proves that firing probes is free.
PROBE_FUNCS = "vfs_read,pipe_write"
#: Functions the find_pipe top table must name (any one suffices).
EXPECTED_HOT = {
    "d_lookup", "link_path_walk", "vfs_read", "vfs_write", "pipe_read",
    "pipe_write", "generic_permission", "ext4_find_entry", "do_filp_open",
}


def _sampled_find_pipe(scale: int, seed: int):
    from repro.analysis.similarity import profile_applications
    from repro.fleet.jobs import run_under_view
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.obs.profiling.sampler import DEFAULT_SAMPLE_INTERVAL

    config = profile_applications(apps=["find_pipe"], scale=scale)["find_pipe"]
    machine = boot_machine(platform=Platform.KVM)
    fc, handle = run_under_view(
        machine, config, "find_pipe", scale, seed=seed,
        sample_interval=DEFAULT_SAMPLE_INTERVAL,
    )
    if not handle.finished:
        raise RuntimeError("find_pipe did not finish under the sampler")
    return fc.sampler.profile


def flame_determinism(session: "Session", passes) -> List[Verdict]:
    """Two same-seed sampled runs render the same flame and top table,
    and the table names the vfs/pipe path the workload exercises."""
    seed = 20140623  # DSN 2014
    profiles = [_sampled_find_pipe(max(session.scale, 2), seed) for _ in range(2)]
    flames = [p.render_flame() for p in profiles]
    tops = [p.function_rows()[:10] for p in profiles]
    named = sorted(EXPECTED_HOT & {row[0] for row in tops[0]})
    return [
        Verdict("same-seed flame and top table identical", "exact",
                flames[0] == flames[1] and tops[0] == tops[1],
                profiles[0].samples, f"{profiles[0].samples} samples"),
        Verdict("top table names a vfs/pipe function", ">= 1",
                bool(named), len(named), ", ".join(named)),
    ]


def switching_reference(session: "Session", passes) -> List[Verdict]:
    """JIT scores and wall against the recorded interpreter reference."""
    names = (("scores = recorded reference", "exact"),
             ("JIT vs recorded interpreter wall", ">= 1.5"))
    if session.scale != REFERENCE_SCALE:
        return [Verdict(n, t, None, detail=f"applies at scale {REFERENCE_SCALE} only")
                for n, t in names]
    ref = session.reference
    if ref is None:
        return [Verdict(n, t, False, detail=f"no reference in {OUTPUT.name}")
                for n, t in names]
    runs = _labelled(passes, (JIT,))
    bad = _score_mismatches(ref["scores"], [(label, r["scores"]) for label, r in runs])
    jit_wall, jit_iqr = median_iqr([r["wall_s"] for _, r in runs])
    speedup = ref["interp_wall_s"] / jit_wall
    return [
        Verdict(names[0][0], names[0][1], not bad, len(bad),
                "; ".join([f"reference of {ref['revision'][:12]}", *bad[:8]])),
        Verdict(names[1][0], names[1][1], speedup >= 1.5, round(speedup, 4),
                f"recorded {ref['interp_wall_s']:.4g} s / jit {jit_wall:.4g} s"
                f" (IQR {jit_iqr:.3g})"),
    ]


def serve_batch(session: "Session", passes) -> List[Verdict]:
    """The batch fleet reference: same scores, same job names."""
    from repro.fleet import ProfileLibrary, run_fleet

    spec = _spec(SERVE_MIX, session.scale, workers=2)
    report = run_fleet(
        spec, ProfileLibrary(session.library(SERVE.args["jobs"])),
    )
    batch = {r["name"]: [r["cycles"], r["syscalls"]] for r in report.results}
    runs = _labelled(passes, (DAEMON,))
    bad = _score_mismatches(batch, [(label, r["scores"]) for label, r in runs])
    names = [job.name for job in spec.jobs]
    misnamed = [f"{label}: {r['names']}" for label, r in runs if r["names"] != names]
    return [
        Verdict("daemon = batch scores", "exact", not bad and not report.failed,
                len(bad), "; ".join(bad[:8])),
        Verdict("daemon job names = batch names", "exact", not misnamed,
                len(misnamed), "; ".join(misnamed) or ", ".join(names)),
    ]


#: Markers the trace narrative must contain after a restart.
TRACE_MARKERS = ("request lifecycle", "queued", "finished", "span forest")


def trace_after_restart(session: "Session", passes) -> List[Verdict]:
    """Restart a daemon on the last archive; the first request's trace
    still narrates end to end from disk."""
    from repro.fleet import ProfileLibrary
    from repro.obs.store import render_trace
    from repro.serve import ServeDaemon

    obs_dir = passes[ARCHIVE.name][-1]["obs_dir"]
    server = ServeDaemon(
        ProfileLibrary(session.library(DRAIN.args["jobs"])),
        warm_target=0, metrics_interval=0.05, obs_dir=obs_dir,
    )
    server.start()
    time.sleep(0.2)  # a few sample ticks land in the new segment
    server.shutdown(drain=True, timeout=30)
    narrative = render_trace(obs_dir, TRACE_ID)
    missing = [m for m in TRACE_MARKERS if m not in narrative]
    return [Verdict("trace narrated after a restart", "all markers",
                    not missing, len(narrative.splitlines()),
                    f"missing {missing}" if missing else "")]


#: SHA-256 over the default build's physical frames (sorted by host frame
#: number) and their count, recorded from the hard-coded build that the
#: declarative GuestConfig replaced.
DEFAULT_IMAGE_SHA = "7cfbf8ba4e9e5abe353d9c53dbecb2a7d79b3b5ff41d2004b2a8db1c072c7183"
DEFAULT_FRAME_COUNT = 157
#: ``(cycles, syscalls)`` per reference job, keyed ``"{scale}:{name}"``,
#: recorded on that same build.
REFERENCE_SCORES = {
    "1:top#0": [632089, 24],
    "1:gzip#0": [1804592, 23],
    "1:top+Injectso#0": [2205348, 29],
    "2:top#0": [2006437, 38],
    "2:gzip#0": [1407005, 31],
    "2:top+Injectso#0": [2406252, 43],
}
#: Non-default variants: the paper's offline platform on the default
#: build, and an SMP build without e1000 (so its attack avoids the network).
MATRIX_VARIANTS = ("qemu-tsc", "smp2-nonet")


def matrix_checks(session: "Session", passes) -> List[Verdict]:
    """The default config reproduces the pinned build; two variants
    boot, profile, run an app and detect an attack."""
    import hashlib

    from repro.fleet.jobs import profile_app_offline, run_job_on_fresh_machine
    from repro.fleet.spec import FleetJob
    from repro.guest import boot_machine
    from repro.guest.config import resolve_guest

    frames = boot_machine().physmem.freeze_frames()
    digest = hashlib.sha256()
    for hpfn in sorted(frames):
        digest.update(hpfn.to_bytes(8, "little"))
        digest.update(frames[hpfn])
    sha = digest.hexdigest()

    scale = session.scale
    bad = []
    records = {app: profile_app_offline(app, scale=scale) for app in ("top", "gzip")}
    for name, app, attack in (("top#0", "top", None), ("gzip#0", "gzip", None),
                              ("top+Injectso#0", "top", "Injectso")):
        job = FleetJob(app=app, scale=scale, attack=attack, name=name)
        result = run_job_on_fresh_machine(job, records[app])
        got, want = [result.cycles, result.syscalls], REFERENCE_SCORES.get(f"{scale}:{name}")
        if not result.ok or got != want:
            bad.append(f"{name}: {got} != {want} {result.error}".strip())

    problems = []
    for variant in MATRIX_VARIANTS:
        config = resolve_guest(variant)
        if boot_machine(config=config).runtime is None:
            problems.append(f"{variant}: failed to boot")
        record = profile_app_offline("top", scale=1, guest=config)
        for attack in (None, "Adore-ng"):
            job = FleetJob(app="top", scale=1, attack=attack, guest=config)
            result = run_job_on_fresh_machine(job, record)
            if not result.ok:
                problems.append(f"{job.identity()}: {result.error}")
            elif attack and result.detected is not True:
                problems.append(f"{job.identity()}: {attack} not detected")
    return [
        Verdict("pinned image", f"{DEFAULT_IMAGE_SHA[:16]}, {DEFAULT_FRAME_COUNT} frames",
                sha == DEFAULT_IMAGE_SHA and len(frames) == DEFAULT_FRAME_COUNT,
                f"{sha[:16]}, {len(frames)} frames"),
        Verdict("pinned reference scores", "exact", not bad, len(bad), "; ".join(bad)),
        Verdict("variants boot, profile, run and detect", ", ".join(MATRIX_VARIANTS),
                not problems, len(problems), "; ".join(problems)),
    ]


INTERP = Mode("interp", suite_pass, env={"REPRO_JIT": "0"})
JOURNAL_INTERP = Mode("journal-interp", suite_pass,
                      env={"REPRO_JIT": "0", "REPRO_JOURNAL_DIR": "."})
JIT = Mode("jit", suite_pass)
#: journals land in the pass's own fresh working directory
JOURNAL = Mode("journal", suite_pass, env={"REPRO_JOURNAL_DIR": "."})
SAMPLED = Mode("sampled", suite_pass,
               env={"REPRO_SAMPLE_INTERVAL": "20000", "REPRO_PROBE_FUNCS": PROBE_FUNCS})
COLD = Mode("cold", cold_pass)
FLEET = Mode("fleet", fleet_pass, library=True)
DAEMON = Mode("daemon", daemon_pass, library=True,
              args={"daemon": {"max_workers": 2}, "sequential": True})
#: One worker behind a 5-deep queue: the drain keeps the queue at its
#: cap, so the queue-saturation alert must fire and then resolve.
_DRAIN_DAEMON = {"max_workers": 1, "max_queue_depth": 5, "warm_target": 1,
                 "slo_latency": 120.0}
_RECORDER = {"metrics_interval": 0.05, "metrics_addr": "127.0.0.1:0"}
QUIET = Mode("recorder-off", daemon_pass, library=True,
             args={"daemon": {**_DRAIN_DAEMON, "metrics_interval": None}})
RECORDER = Mode("recorder", daemon_pass, library=True,
                args={"daemon": {**_DRAIN_DAEMON, **_RECORDER}})
ARCHIVE = Mode("archive", daemon_pass, library=True,
               args={"daemon": {**_DRAIN_DAEMON, **_RECORDER, "obs_dir": "obs"}})

SUITE = Workload("paper-suite")
FLEET_JOBS = [{"app": app} for app in ("top", "gzip", "bash", "tcpdump") for _ in (0, 1)]
FLEET_JOBS.append({"app": "top", "attack": "Injectso"})
#: Two apps and one attack across two guest variants.
SERVE_MIX = [
    {"app": "top"},
    {"app": "gzip"},
    {"app": "top", "attack": "Injectso"},
    {"app": "top", "guest": "qemu-tsc"},
    {"app": "gzip", "guest": "qemu-tsc"},
]
FLEET_SUITE = Workload("fleet-suite", {"jobs": FLEET_JOBS})
SERVE = Workload("serve-mix", {"jobs": SERVE_MIX})
DRAIN = Workload("serve-mix-x3", {"jobs": SERVE_MIX * 3})

SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("telemetry", SUITE, (INTERP, JOURNAL_INTERP), (Drift(0.02),)),
    Scenario("switching", SUITE, (INTERP, JIT), (
        Identical("JIT = interpreter scores"),
        Ratio("JIT vs interpreter wall", "wall_s", INTERP, JIT, ">=", 2.0,
              scales=(REFERENCE_SCALE,)),
    ), (switching_reference,)),
    Scenario("observability", SUITE, (JIT, JOURNAL), (
        Identical(), Ratio("wall overhead", "wall_s", JOURNAL, JIT, "<=", 1.15),
    ), (attack_replay,)),
    Scenario("profiling", SUITE, (JIT, SAMPLED), (
        Identical(), Ratio("wall overhead", "wall_s", SAMPLED, JIT, "<=", 1.15),
    ), (flame_determinism,)),
    Scenario("fleet", FLEET_SUITE, (COLD, FLEET), (
        Holds("every job ok"), Identical("fleet = solo scores"),
        Ratio("fleet vs cold throughput", "jobs_per_s", FLEET, COLD, ">=", 3.0),
    )),
    Scenario("serve", SERVE, (COLD, DAEMON), (
        Holds("every job ok"), Identical("daemon = solo scores"),
        Ratio("cold vs warm latency", "latency_s", COLD, DAEMON, ">=", 3.0),
    ), (serve_batch,)),
    Scenario("metrics", DRAIN, (QUIET, RECORDER), (
        Holds("every job ok"), Identical(),
        Ratio("wall overhead", "wall_s", RECORDER, QUIET, "<=", 1.10, grace_s=0.5),
        Holds("scrape series present", (RECORDER,)),
        Holds("queue-saturation fires and resolves", (RECORDER,)),
    )),
    Scenario("obsstore", DRAIN, (RECORDER, ARCHIVE), (
        Holds("every job ok"), Identical(),
        Ratio("wall overhead", "wall_s", ARCHIVE, RECORDER, "<=", 1.10, grace_s=0.5),
        Holds("archive export bit-equal", (ARCHIVE,)),
        Holds("archive alerts bit-equal", (ARCHIVE,)),
    ), (trace_after_restart,)),
    Scenario("matrix", checks=(matrix_checks,)),
)}


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------


class Session:
    """Passes of one run, shared by every scenario that needs them."""

    def __init__(
        self,
        scale: int,
        workdir: Path,
        reference: Optional[dict] = None,
        run_pass: Optional[Callable[[Mode, dict, Path], dict]] = None,
    ) -> None:
        self.scale = scale
        self.workdir = workdir
        #: the interpreter reference recorded by an earlier telemetry run
        self.reference = reference
        self.passes: Dict[Tuple[str, str], List[dict]] = {}
        self.failed: Dict[Tuple[str, str], str] = {}
        self._run_pass = run_pass or (
            lambda mode, kwargs, cwd: fresh(mode.entry, kwargs, mode.env, cwd)
        )
        self._profiled: set = set()

    def library(self, jobs: Sequence[dict]) -> str:
        """A profile library holding every app of ``jobs`` (untimed)."""
        from repro.fleet import ProfileLibrary, prepare_offline_phase

        path = self.workdir / "library"
        missing = sorted({job["app"] for job in jobs} - self._profiled)
        if missing:
            prepare_offline_phase(ProfileLibrary(str(path)), missing, scale=self.scale)
            self._profiled.update(missing)
        return str(path)

    def run_pass(self, workload: Workload, mode: Mode) -> None:
        key = (workload.name, mode.name)
        runs = self.passes.setdefault(key, [])
        kwargs = {"scale": self.scale, **workload.args, **mode.args}
        if mode.library:
            kwargs["library"] = self.library(workload.args["jobs"])
        cwd = self.workdir / f"{workload.name}.{mode.name}.{len(runs)}"
        cwd.mkdir()
        print(f"  pass {workload.name} / {mode.name} #{len(runs)}", flush=True)
        try:
            runs.append(self._run_pass(mode, kwargs, cwd))
        except (PassFailed, subprocess.TimeoutExpired) as exc:
            self.failed[key] = str(exc)

    def keys(self, scenario: Scenario) -> List[Tuple[str, str]]:
        return [(scenario.workload.name, m.name) for m in scenario.modes]


def run(
    scenarios: Sequence[Scenario], session: Session, reverse: bool = False
) -> Dict[str, dict]:
    """Run every timed pass, then judge each scenario.

    In repeat ``r`` each scenario's modes run in declared order when
    ``r + reverse`` is even and reversed otherwise; a pass another
    scenario already ran in this repeat is reused.
    """
    for repeat in range(REPEATS):
        for scenario in scenarios:
            if any(key in session.failed for key in session.keys(scenario)):
                continue
            flip = (repeat + reverse) % 2
            for mode in scenario.modes[::-1] if flip else scenario.modes:
                key = (scenario.workload.name, mode.name)
                if len(session.passes.get(key, [])) <= repeat and key not in session.failed:
                    session.run_pass(scenario.workload, mode)
    return {scenario.name: judge(scenario, session) for scenario in scenarios}


def judge(scenario: Scenario, session: Session) -> dict:
    """Evaluate one scenario's gates and one-off checks."""
    passes = {key[1]: session.passes.get(key, []) for key in session.keys(scenario)}
    failed = [f"{k[0]} / {k[1]}: {session.failed[k]}"
              for k in session.keys(scenario) if k in session.failed]
    if failed:
        verdicts = [Verdict("passes complete", "every pass", False, detail="; ".join(failed))]
    else:
        verdicts = [g.evaluate(scenario.modes, passes, session.scale) for g in scenario.gates]
        for check in scenario.checks:
            try:
                verdicts.extend(check(session, passes))
            except Exception as exc:  # noqa: BLE001 - a crashed check is a failed gate
                verdicts.append(Verdict(check.__name__, "completes", False,
                                        detail=f"{type(exc).__name__}: {exc}"))
    modes = {}
    for mode_name, runs in passes.items():
        numeric = [k for k, v in (runs[0].items() if runs else ())
                   if isinstance(v, (int, float)) and not isinstance(v, bool)]
        modes[mode_name] = {
            k: dict(zip(("median", "iqr"), median_iqr([r[k] for r in runs])),
                    runs=[round(r[k], 4) for r in runs])
            for k in numeric
        }
        extra = [{k: v for k, v in r.items() if k not in numeric and k != "scores"}
                 for r in runs]
        if any(extra):
            modes[mode_name]["passes"] = extra
    first = next((runs[0] for runs in passes.values() if runs), None)
    return {
        "ok": all(v.ok is not False for v in verdicts),
        "workload": scenario.workload.name if scenario.workload else None,
        "modes": modes,
        "scores": first["scores"] if first else None,
        "gates": [vars(v) for v in verdicts],
    }


def _revision() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _print(name: str, result: dict) -> None:
    print(f"{name}: {'ok' if result['ok'] else 'FAILED'}")
    for mode, stats in result["modes"].items():
        wall = stats.get("wall_s")
        if wall:
            print(f"  {mode:<14} wall median {wall['median']:.3f} s"
                  f" (IQR {wall['iqr']:.3f}) over {len(wall['runs'])}")
    for gate in result["gates"]:
        mark = {True: "PASS", False: "FAIL", None: "n/a "}[gate["ok"]]
        print(f"  {mark} {gate['name']} ({gate['threshold']}): {gate['value']}"
              + (f" -- {gate['detail']}" if gate["detail"] else ""))


def main(argv: Optional[Sequence[str]] = None, reverse: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help=f"any of {', '.join(SCENARIOS)} (default: all)")
    parser.add_argument("--pass", dest="pass_", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pass_:
        module, _, name = args.pass_[0].partition(":")
        fn: Any = importlib.import_module(module)
        for part in name.split("."):
            fn = getattr(fn, part)
        print(json.dumps(fn(**json.loads(args.pass_[1]))))
        return 0
    unknown = [n for n in args.scenarios if n not in SCENARIOS]
    if unknown:
        parser.error(f"unknown scenario(s) {unknown}; choose from {list(SCENARIOS)}")
    chosen = [SCENARIOS[n] for n in args.scenarios or SCENARIOS]
    scale = int(os.environ.get("REPRO_BENCH_SCALE", "2"))
    previous = json.loads(OUTPUT.read_text()) if OUTPUT.exists() else {}
    revision = _revision()
    print(f"scenarios {[s.name for s in chosen]}, scale {scale},"
          f" {REPEATS} repeats per mode, revision {revision[:12]}")
    with tempfile.TemporaryDirectory(prefix="repro-gates-") as tmp:
        session = Session(scale, Path(tmp), previous.get("reference"))
        results = run(chosen, session, reverse=reverse)
    # the interpreter reference is recorded at REFERENCE_SCALE only and
    # carried over by sessions that do not record it
    reference = previous.get("reference")
    wall = results.get("telemetry", {}).get("modes", {}).get(INTERP.name, {}).get("wall_s")
    if wall and scale == REFERENCE_SCALE:
        reference = {"scale": scale, "revision": revision,
                     "interp_wall_s": wall["median"], "interp_wall_iqr": wall["iqr"],
                     "scores": results["telemetry"]["scores"]}
    OUTPUT.write_text(json.dumps({
        "schema": SCHEMA, "revision": revision, "scale": scale, "repeats": REPEATS,
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "reference": reference, "scenarios": results,
    }, indent=2, sort_keys=True) + "\n")
    for name, result in results.items():
        _print(name, result)
    failures = [f"{name}: {g['name']}" for name, result in results.items()
                for g in result["gates"] if g["ok"] is False]
    for line in failures:
        print(f"FAIL {line}")
    print(f"wrote {OUTPUT}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
