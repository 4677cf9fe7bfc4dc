"""Run one benchmark workload; print its metrics as the last output line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-latency --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists), each against
real ``repro serve`` daemons:

* ``serve-latency`` -- one caller, short mixed jobs, one worker,
  observability archive on;
* ``serve-throughput`` -- two callers, longer benign jobs, two workers,
  no archive.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` is a separate run that records spans around the program's
entry points and prints the per-layer metrics instead.  Every run checks
the program's outputs against references and counts each mismatch as a
failed operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import serve_load  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = tuple(serve_load.MIXES)
#: serve daemons per timed run; ``setup_s`` is their fastest set-up
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: span-derived per-layer metrics: (span name, statistic)
SPAN_METRICS = (
    ("hypervisor.vcpu_run", "n"),
    ("hypervisor.vcpu_run", "self_s"),
    ("hypervisor.exit_loop", "self_s"),
    ("kernel.bridge", "n"),
    ("kernel.bridge", "self_s"),
    ("memory.mmu_resolve", "n"),
    ("memory.mmu_resolve", "self_s"),
    ("isa.decode", "n"),
    ("isa.decode", "self_s"),
    ("hypervisor.jit_translate", "n"),
    ("hypervisor.jit_translate", "self_s"),
    ("core.view_build", "n"),
    ("core.view_build", "self_s"),
    ("core.recovery", "n"),
    ("core.recovery", "self_s"),
    ("core.view_switch", "n"),
    ("core.view_switch", "self_s"),
    ("fleet.fork", "n"),
    ("fleet.fork", "self_s"),
    ("serve.queue", "self_s"),
    ("serve.protocol", "self_s"),
    ("telemetry.snapshot", "self_s"),
    ("telemetry.merge", "self_s"),
    ("telemetry.journal", "self_s"),
    ("obs.store", "self_s"),
    ("obs.metrics", "self_s"),
)
#: layers whose work happens while setting up; reported per set-up
SETUP_SPAN_METRICS = (
    ("guest.boot", "n"),
    ("guest.boot", "self_s"),
    ("fleet.capture", "self_s"),
    ("fleet.offline_profile", "n"),
    ("fleet.offline_profile", "self_s"),
)
#: span names reported as per-layer metrics; ``trace.coverage`` counts
#: only their self time as attributed
LAYER_SPANS = frozenset(span for span, _ in SPAN_METRICS + SETUP_SPAN_METRICS)
#: per-layer counts from the program's own counters: name -> counter
COUNTER_METRICS = {
    "hypervisor.jit.promotions": "jit.promotions",
    "hypervisor.exit.address_trap.n": "hv.exits.address_trap",
    "hypervisor.exit.invalid_opcode.n": "hv.exits.invalid_opcode",
    "hypervisor.exit.hlt.n": "hv.exits.hlt",
}
RATIO_METRICS = {
    "memory.tlb.hit_ratio": ("mmu.tlb.hits", "mmu.tlb.misses"),
    "hypervisor.decode_cache.hit_ratio": ("decode.hits", "decode.misses"),
}
OTHER_METRICS = {
    "fleet.fork.refill_self_s": "s",
    "serve.pool.hit_ratio": "ratio",
    "serve.queue_wait_p50_ms": "ms",
    "serve.service_p50_ms": "ms",
    "serve.transport_p50_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def per_layer_names() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names: Dict[str, str] = {}
    for span, stat in SPAN_METRICS + SETUP_SPAN_METRICS:
        names[f"{span}.{stat}"] = "count" if stat == "n" else "s"
    for name in COUNTER_METRICS:
        names[name] = "count"
    for name in RATIO_METRICS:
        names[name] = "ratio"
    names.update(OTHER_METRICS)
    return names


def ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def layer_values(
    measured: tracing.LayerTotals,
    setup: tracing.LayerTotals,
    counters: Dict[str, int],
    per: float,
) -> Dict[str, float]:
    """Span and counter metrics: measured-phase figures divided by
    ``per`` (the measured jobs), set-up figures for one set-up."""
    values: Dict[str, float] = {}
    for source, names, scale in ((measured, SPAN_METRICS, per), (setup, SETUP_SPAN_METRICS, 1)):
        for span, stat in names:
            raw = source.n.get(span, 0) if stat == "n" else source.self_s(span)
            values[f"{span}.{stat}"] = raw / scale
    for name, counter in COUNTER_METRICS.items():
        values[name] = counters.get(counter, 0) / per
    for name, (hits, misses) in RATIO_METRICS.items():
        values[name] = ratio(counters.get(hits, 0), counters.get(misses, 0))
    return values


def attributed_s(totals: tracing.LayerTotals) -> float:
    """Self time of the spans reported as layers.  Wrappers that only
    frame others (``fleet.execute_job``, ``serve.pool``,
    ``hypervisor.jit_promote``) are left out, so time no layer wrapper
    catches lowers the coverage instead of landing in a frame."""
    return sum(totals.self_s(name) for name in LAYER_SPANS)


def latency_ms(samples: Sequence[float], failures: List[str]) -> Dict[str, float]:
    """Nearest-rank p50 and p90 of ``samples`` (seconds), in ms.  A sample
    too small for the ten-beyond rule is a failed check: it goes into
    ``failures`` and the percentile is still reported by nearest rank,
    so the run prints its result."""
    values = {}
    for p in (50, 90):
        try:
            value = stats.percentile(samples, p)
        except stats.TooFewSamples as exc:
            failures.append(f"latency: {exc}")
            value = stats.nearest_rank(samples, p) if samples else 0.0
        values[f"latency_p{p}_ms"] = value * 1e3
    return values


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# -- serve ------------------------------------------------------------------------


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a diagnostic of host speed."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - started


def run_serve(mix: serve_load.Mix, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    specs = serve_load.job_specs(mix, seed)
    sequence = serve_load.job_sequence(specs, seed)
    sessions: List[serve_load.Session] = []
    probes = [host_probe()]
    # timed: three daemons share the run; traced: one untraced daemon
    # for the overhead baseline, then one traced daemon
    count = 2 if trace else SETUPS
    for index in range(count):
        session = serve_load.Session(workdir=workdir / f"session{index}")
        if trace and index == count - 1:
            session.spans = workdir / "serve.spans"
        # the last daemon runs on until the run has enough good jobs for
        # its p90 (or until serve_load.EXTEND_LIMIT)
        done = sum(1 for s in sessions for r in s.jobs if not r.error)
        min_ok = stats.min_samples(90) - done if index == count - 1 and not trace else 0
        serve_load.run_session(mix, specs, sequence, session, seconds / count, min_ok, f"s{index}")
        sessions.append(session)
    probes.append(host_probe())

    attempted, failures = check_jobs(sessions, serve_load.References(mix.scale))
    if trace:
        values = serve_layers(sessions[0], sessions[1])
        return finish(attempted, failures, metric_block(values, per_layer_names()), probes)
    values = serve_metrics(sessions, len(specs), failures)
    return finish(attempted, failures, metric_block(values, END_TO_END), probes)


def check_jobs(sessions: Sequence[serve_load.Session], references: serve_load.References) -> Tuple[int, List[str]]:
    """Every warm-up and measured job checked: (attempted, failures)."""
    attempted = 0
    failures = []
    for session in sessions:
        for record in session.warmup + session.jobs:
            attempted += 1
            problem = references.check(session.library, record)
            if problem:
                failures.append(problem)
    return attempted, failures


def serve_metrics(sessions: Sequence[serve_load.Session], job_set: int, failures: List[str]) -> Dict[str, float]:
    """End-to-end metrics over the measured jobs that succeeded; a job
    set of ``job_set`` distinct jobs gives ``wall_s``."""
    jobs = [r for s in sessions for r in s.jobs if not r.error]
    jobs_per_s = len(jobs) / sum(s.measured_s for s in sessions)
    values = {
        "setup_s": min(s.setup_s for s in sessions),
        "wall_s": job_set / jobs_per_s if jobs else 0.0,
        "jobs_per_s": jobs_per_s,
        "peak_rss_mb": statistics.median(s.peak_rss_kb for s in sessions) / 1024.0,
    }
    values.update(latency_ms([r.latency_s for r in jobs], failures))
    return values


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


def serve_layers(untraced: serve_load.Session, traced: serve_load.Session) -> Dict[str, float]:
    dump = tracing.load(str(traced.spans))
    jobs = [r for r in traced.jobs if not r.error]
    window = (traced.start_ns, traced.end_ns)
    measured = tracing.self_times(dump.names, dump.logs, window=window)
    setup = tracing.self_times(dump.names, dump.logs, window=(traced.spawn_ns, traced.ready_ns))
    refill = tracing.self_times(
        dump.names, dump.logs, window=window, threads=lambda name: name == "serve-pool-refill"
    )
    names = {r.name for r in jobs}
    in_jobs = tracing.self_times(
        dump.names, dump.logs, rids=[i for i, rid in enumerate(dump.rids) if rid in names]
    )
    before, after = traced.stats
    counters = _delta(after["jobs_telemetry"]["counters"], before["jobs_telemetry"]["counters"])
    pool = {
        key: sum(v[key] for v in after["pool"].values()) - sum(v[key] for v in before["pool"].values())
        for key in ("hits", "misses")
    }
    values = layer_values(measured, setup, counters, per=len(jobs))
    values.update(
        {
            "fleet.fork.refill_self_s": refill.self_s("fleet.fork") / len(jobs),
            "serve.pool.hit_ratio": ratio(pool["hits"], pool["misses"]),
            "serve.queue_wait_p50_ms": statistics.median(r.queue_wait_s for r in jobs) * 1e3,
            "serve.service_p50_ms": statistics.median(r.service_s for r in jobs) * 1e3,
            "serve.transport_p50_ms": statistics.median(r.transport_s for r in jobs) * 1e3,
            "trace.coverage": attributed_s(in_jobs) / sum(r.service_s for r in jobs),
            "trace.overhead": statistics.median(r.service_s for r in jobs)
            / statistics.median(r.service_s for r in untraced.jobs if not r.error)
            - 1.0,
        }
    )
    return values


# -- output ---------------------------------------------------------------------------


def finish(attempted: int, failures: Sequence[str], metrics: Dict[str, Any], probes: Iterable[float]) -> Dict[str, Any]:
    for problem in failures:
        print(f"check failed: {problem}")
    probes = list(probes)
    if probes:
        # host-speed diagnostic only: not a metric
        print(f"host probe: {', '.join(f'{p:.4f}' for p in probes)} s")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a repository checkout (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # relative, so the daemon's unix socket path stays short
    workdir = Path(".perfbench") / f"{args.workload}-{args.seed}-{args.trace}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        result = run_serve(serve_load.MIXES[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
