"""One-shot evaluation report generator.

Runs the full paper evaluation (Tables I & II, Figures 6 & 7) and
renders a markdown report, so ``EXPERIMENTS.md``-style records can be
regenerated on any machine with one command::

    python -m repro.cli report -o report.md
"""

from __future__ import annotations

import io
from typing import Dict, Optional, Sequence

from repro.analysis.detection import evaluate_attack
from repro.analysis.similarity import SimilarityMatrix, profile_applications
from repro.bench.httperf import run_httperf_sweep
from repro.bench.unixbench import run_unixbench
from repro.core.kernel_view import KernelViewConfig
from repro.malware import ALL_ATTACKS

#: Every section ``generate_report`` knows how to render.
KNOWN_SECTIONS = {
    "table1", "table2", "fig6", "fig7", "caches", "trace",
    "observability", "heat", "capacity",
}


def _section_table1(out: io.StringIO, configs) -> None:
    matrix = SimilarityMatrix.build(configs)
    out.write("## Table I — similarity matrix\n\n```\n")
    out.write(matrix.format_table())
    out.write("\n```\n\n")
    lo_pair, lo = matrix.min_similarity()
    hi_pair, hi = matrix.max_similarity()
    out.write(
        f"- similarity range: **{lo * 100:.1f}%** {lo_pair} .. "
        f"**{hi * 100:.1f}%** {hi_pair} (paper: 33.6% top/firefox .. "
        f"86.5% eog/totem)\n\n"
    )


def _section_table2(out: io.StringIO, configs, scale: int) -> None:
    out.write("## Table II — security evaluation\n\n")
    out.write("| sample | host | FACE-CHANGE | union view | evidence |\n")
    out.write("|---|---|---|---|---|\n")
    per_app = union = 0
    for attack in ALL_ATTACKS:
        result = evaluate_attack(attack, configs, scale=scale)
        per_app += result.detected_per_app
        union += result.detected_union
        fc = "**DETECTED**" if result.detected_per_app else "missed"
        un = "detected" if result.detected_union else "missed"
        extra = " +UNKNOWN frames" if result.unknown_frames else ""
        out.write(
            f"| {result.name} | {result.host_app} | {fc}{extra} | {un} | "
            f"{len(result.evidence)} fns |\n"
        )
    out.write(
        f"\nFACE-CHANGE: **{per_app}/{len(ALL_ATTACKS)}**, union view: "
        f"{union}/{len(ALL_ATTACKS)} (paper: 16/16 vs user-level blind spot)\n\n"
    )


def _section_figure6(out: io.StringIO, configs, views: Sequence[int]) -> None:
    out.write("## Figure 6 — UnixBench (normalized)\n\n")
    baseline = run_unixbench(0, label="baseline")
    runs = [run_unixbench(k, configs) for k in views]
    out.write("| subtest |" + "".join(f" {k} views |" for k in views) + "\n")
    out.write("|---|" + "---|" * len(views) + "\n")
    for name in baseline.scores:
        row = f"| {name} |"
        for run in runs:
            row += f" {run.normalized(baseline)[name]:.3f} |"
        out.write(row + "\n")
    out.write(
        "| **index** |"
        + "".join(f" **{r.normalized_index(baseline):.3f}** |" for r in runs)
        + "\n\n"
    )
    out.write("(paper: 5–7% overall overhead; only Pipe-based Context "
              "Switching degrades; extra views are free)\n\n")


def _section_trace(out: io.StringIO, configs, scale: int) -> None:
    """A recorded quickstart run: the causal chains behind Figures 6/7."""
    from repro.apps.base import launch
    from repro.apps.catalog import APP_CATALOG
    from repro.core.facechange import FaceChange
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.obs.forensics import render_journal_narrative
    from repro.telemetry.export import format_counters

    app = "top"
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording(meta={"app": app, "scale": scale})
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(configs[app], comm=app)
    handle = launch(machine, app, APP_CATALOG[app], scale=scale)
    handle.run_to_completion(max_cycles=200_000_000_000)
    counters = format_counters(machine.telemetry)
    machine.stop_recording()
    out.write("## Trace — span journal of one enforced run\n\n")
    out.write(f"({app} under its kernel view, flight recorder on)\n\n```\n")
    out.write("== counters ==\n" + counters + "\n\n")
    out.write(render_journal_narrative(journal.data(), limit=60))
    out.write("\n```\n\n")


def _section_caches(out: io.StringIO, configs, scale: int) -> None:
    """Hit/miss/eviction counters of the translation and decode caches."""
    from repro.apps.base import launch
    from repro.apps.catalog import APP_CATALOG
    from repro.core.facechange import FaceChange
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform

    app = "top"
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(configs[app], comm=app)
    handle = launch(machine, app, APP_CATALOG[app], scale=scale)
    handle.run_to_completion(max_cycles=200_000_000_000)
    out.write("## Caches — TLB / stack / decode counters\n\n")
    out.write(f"(one enforced {app} run; counters from the telemetry "
              "registry)\n\n")
    out.write("| cache | hits | misses | evictions | hit rate |\n")
    out.write("|---|---|---|---|---|\n")
    for label, prefix in (
        ("MMU TLB", "mmu.tlb"),
        ("stack page", "vcpu.stack"),
        ("decode", "decode"),
    ):
        hits = machine.telemetry.counter(f"{prefix}.hits").value
        misses = machine.telemetry.counter(f"{prefix}.misses").value
        evictions = machine.telemetry.counter(f"{prefix}.evictions").value
        total = hits + misses
        rate = f"{hits / total:.4f}" if total else "n/a"
        out.write(f"| {label} | {hits} | {misses} | {evictions} | {rate} |\n")
    out.write("\n### Block translation (JIT)\n\n")
    out.write("| counter | value |\n")
    out.write("|---|---|\n")
    out.write(f"| enabled | {machine.jit_enabled} |\n")
    for name in ("jit.blocks", "jit.superblocks", "jit.promotions"):
        out.write(f"| {name} | {machine.telemetry.counter(name).value} |\n")
    invalidations = machine.telemetry.labelled.get("jit.invalidations")
    causes = invalidations.values if invalidations is not None else {}
    for cause in sorted(causes):
        out.write(f"| jit.invalidations[{cause}] | {causes[cause]} |\n")
    if not causes:
        out.write("| jit.invalidations | 0 |\n")
    out.write("\n(invalidation rules: docs/PERFORMANCE.md)\n\n")


def _section_observability(out: io.StringIO, configs, scale: int) -> None:
    """Recorder accounting: span-journal drop visibility."""
    from repro.apps.base import launch
    from repro.apps.catalog import APP_CATALOG
    from repro.core.facechange import FaceChange
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.telemetry.journal import build_span_trees

    app = "top"
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording(meta={"app": app, "scale": scale})
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(configs[app], comm=app)
    handle = launch(machine, app, APP_CATALOG[app], scale=scale)
    handle.run_to_completion(max_cycles=200_000_000_000)
    trees = build_span_trees(journal.records())
    verdicts = machine.telemetry.labelled.get("recovery.verdicts")
    machine.stop_recording()
    out.write("## Observability — recorder accounting\n\n")
    out.write(f"(one enforced {app} run with the flight recorder on)\n\n")
    out.write("| instrument | recorded | dropped |\n")
    out.write("|---|---|---|\n")
    out.write(f"| span journal | {journal.seq} | {journal.dropped} |\n")
    out.write(f"| causal chains | {len(trees)} | — |\n")
    if verdicts is not None and verdicts.values:
        rendered = ", ".join(
            f"{label}={n}" for label, n in sorted(verdicts.values.items())
        )
        out.write(f"\nrecovery verdicts: {rendered}\n")
    out.write(
        "\n(every drop is accounted; silent truncation would show up "
        "here and in the journal's seq gaps)\n\n"
    )


def _section_heat(out: io.StringIO, configs, scale: int) -> None:
    """Sampled hotness joined against the app's kernel-view ranges."""
    from repro.apps.base import launch
    from repro.apps.catalog import APP_CATALOG
    from repro.core.facechange import FaceChange
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.obs.profiling import analyze_heat, format_heat_report
    from repro.obs.profiling.sampler import SamplingProfiler
    from repro.telemetry.export import snapshot as telemetry_snapshot

    app = "find_pipe" if "find_pipe" in configs else sorted(configs)[0]
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(configs[app], comm=app)
    sampler = SamplingProfiler(
        machine,
        view_provider=lambda cpu: fc.switcher.current_index[cpu],
    )
    sampler.install()
    handle = launch(machine, app, APP_CATALOG[app], scale=scale)
    handle.run_to_completion(max_cycles=200_000_000_000)
    sampler.uninstall()
    snapshot = telemetry_snapshot(machine.telemetry)
    heat = analyze_heat(snapshot, {app: configs[app]})
    out.write("## Heat — sampled hotness vs. kernel-view coverage\n\n")
    out.write(
        f"(one enforced {app} run with the sampling profiler on; "
        "see docs/OBSERVABILITY.md)\n\n```\n"
    )
    out.write(format_heat_report(heat))
    out.write("\n```\n\n")


def _fmt_num(value, pattern: str = "{:.3f}") -> str:
    if value is None:
        return "—"
    return pattern.format(value)


def _section_capacity(out: io.StringIO, obs_dir: str) -> None:
    """Capacity planning from a serve daemon's persistent obs archive."""
    from repro.obs.store import capacity_report

    report = capacity_report(obs_dir)
    info = report["archive"]
    out.write("## Capacity — serve archive analysis\n\n")
    out.write(
        f"(archive `{obs_dir}`: {info['segments']} segment(s), "
        f"{info['samples']} sample tick(s), trailing window "
        f"{info['window_seconds']:.0f}s)\n\n"
    )
    queue = report["queue"]
    out.write("### Queue\n\n")
    out.write("| metric | value |\n|---|---|\n")
    out.write(f"| depth (latest) | {_fmt_num(queue['depth_latest'], '{:.0f}')} |\n")
    out.write(
        f"| utilization (latest) | "
        f"{_fmt_num(queue['utilization_latest'], '{:.1%}')} |\n"
    )
    out.write(
        f"| utilization slope | "
        f"{_fmt_num(queue['utilization_slope_per_s'], '{:+.5f}/s')} |\n"
    )
    eta = queue["projected_saturation_seconds"]
    out.write(
        "| projected saturation | "
        + (f"~{eta:.0f}s at current trend |\n" if eta is not None
           else "not on current trend |\n")
    )
    pool = report["pool"]
    out.write(
        f"\npool hit ratio: first {_fmt_num(pool['hit_ratio_first'], '{:.1%}')}"
        f" → latest {_fmt_num(pool['hit_ratio_latest'], '{:.1%}')}"
        f" (mean {_fmt_num(pool['hit_ratio_mean'], '{:.1%}')})\n\n"
    )
    if report["tenants"]:
        out.write("### Tenants\n\n")
        out.write(
            "| tenant | charged cycles | demand (window) | budget left | "
            "exhaustion ETA | wait-p95 trend |\n"
        )
        out.write("|---|---|---|---|---|---|\n")
        for tenant, row in sorted(report["tenants"].items()):
            eta = row["projected_budget_exhaustion_seconds"]
            slope = row["queue_wait_p95_slope_per_s"]
            out.write(
                f"| {tenant} "
                f"| {_fmt_num(row['charged_cycles_latest'], '{:.0f}')} "
                f"| {_fmt_num(row['demand_cycles_window'], '{:.0f}')} "
                f"| {_fmt_num(row['budget_remaining_ratio'], '{:.1%}')} "
                f"| {f'~{eta:.0f}s' if eta is not None else '—'} "
                f"| {_fmt_num(slope, '{:+.5f}/s')} |\n"
            )
        out.write("\n")
    if report["alerts"]:
        rendered = ", ".join(
            f"{rule}×{count}" for rule, count in sorted(report["alerts"].items())
        )
        out.write(f"alert transitions: {rendered}\n\n")
    else:
        out.write("alert transitions: none archived\n\n")


def _section_figure7(out: io.StringIO, configs, connections: int) -> None:
    out.write("## Figure 7 — Apache httperf throughput ratio\n\n")
    points = run_httperf_sweep(configs["apache"], connections=connections)
    out.write("| rate (req/s) | baseline | FACE-CHANGE | ratio |\n")
    out.write("|---|---|---|---|\n")
    for p in points:
        out.write(
            f"| {p.rate} | {p.baseline_throughput:.2f} | "
            f"{p.facechange_throughput:.2f} | {p.ratio:.3f} |\n"
        )
    out.write("\n(paper: flat below ~55 req/s, degrading beyond)\n\n")


def generate_prometheus(
    scale: int = 4,
    app: str = "top",
    configs: Optional[Dict[str, KernelViewConfig]] = None,
) -> str:
    """One enforced run rendered as Prometheus text exposition.

    ``repro report --format prom``: profiles and runs a single app under
    its kernel view and exports the machine's whole telemetry registry
    through the same :func:`repro.telemetry.export.format_prometheus`
    path the serve daemon's scrape endpoint uses -- so batch-run and
    daemon metrics share one exposition format.
    """
    from repro.apps.base import launch
    from repro.apps.catalog import APP_CATALOG
    from repro.core.facechange import FaceChange
    from repro.guest.machine import boot_machine
    from repro.kernel.runtime import Platform
    from repro.telemetry.export import format_prometheus
    from repro.telemetry.export import snapshot as telemetry_snapshot

    if app not in APP_CATALOG:
        raise ValueError(
            f"unknown application {app!r} "
            f"(available: {', '.join(sorted(APP_CATALOG))})"
        )
    if configs is None:
        configs = profile_applications(apps=[app], scale=scale)
    machine = boot_machine(platform=Platform.KVM)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(configs[app], comm=app)
    handle = launch(machine, app, APP_CATALOG[app], scale=scale)
    handle.run_to_completion(max_cycles=200_000_000_000)
    return format_prometheus(
        telemetry_snapshot(machine.telemetry), prefix="repro"
    )


def generate_report(
    scale: int = 4,
    views: Sequence[int] = (1, 3, 6, 11),
    connections: int = 60,
    sections: Optional[Sequence[str]] = None,
    configs: Optional[Dict[str, KernelViewConfig]] = None,
    obs_dir: Optional[str] = None,
) -> str:
    """Run the evaluation and return the markdown report.

    ``sections`` may also include ``"trace"`` for the span-journal
    narrative of one enforced run, ``"observability"`` for recorder
    accounting, ``"heat"`` for sampled hotness vs. view coverage, or
    ``"capacity"`` for post-hoc capacity planning over a serve daemon's
    ``--obs-dir`` archive (none are part of the default set: they
    narrate mechanism rather than reproducing a paper figure).  Unknown
    section names raise :class:`ValueError`; so does ``"capacity"``
    without ``obs_dir``.
    """
    if sections:
        unknown = sorted(set(sections) - KNOWN_SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown report section(s): {', '.join(unknown)} "
                f"(choose from: {', '.join(sorted(KNOWN_SECTIONS))})"
            )
    wanted = (
        set(sections)
        if sections
        else {"table1", "table2", "fig6", "fig7", "caches"}
    )
    if "capacity" in wanted and not obs_dir:
        raise ValueError(
            "the capacity section reads a serve observability archive; "
            "pass --obs-dir (repro serve --obs-dir wrote it)"
        )
    out = io.StringIO()
    out.write("# FACE-CHANGE reproduction — evaluation report\n\n")
    out.write(f"(workload scale {scale})\n\n")
    if configs is None and wanted != {"capacity"}:
        # capacity is pure archive analysis: no profiling, no guest runs
        configs = profile_applications(scale=scale)
    if "table1" in wanted:
        _section_table1(out, configs)
    if "table2" in wanted:
        _section_table2(out, configs, scale)
    if "fig6" in wanted:
        _section_figure6(out, configs, views)
    if "fig7" in wanted:
        _section_figure7(out, configs, connections)
    if "caches" in wanted:
        _section_caches(out, configs, scale)
    if "trace" in wanted:
        _section_trace(out, configs, scale)
    if "observability" in wanted:
        _section_observability(out, configs, scale)
    if "heat" in wanted:
        _section_heat(out, configs, scale)
    if "capacity" in wanted:
        _section_capacity(out, obs_dir)
    return out.getvalue()
