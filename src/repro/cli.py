"""Command-line interface for the FACE-CHANGE reproduction.

Usage::

    python -m repro.cli similarity            # Table I
    python -m repro.cli security              # Table II
    python -m repro.cli unixbench --views 3   # one Figure 6 point
    python -m repro.cli httperf               # Figure 7 sweep
    python -m repro.cli profile top -o top.view.json
    python -m repro.cli profile top --library fleet-lib
    python -m repro.cli trace top             # causal chains of one run
    python -m repro.cli fleet --apps top gzip --workers 2

Every command returns a non-zero exit code on failure (unknown
application, unreadable profile, failed run) so scripts and CI can gate
on ``repro.cli`` invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional


def _fail(message: str) -> int:
    """Report a command failure on stderr; exit code for the caller."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _add_guest_flags(parser: argparse.ArgumentParser) -> None:
    """The uniform guest-variant surface shared by the run verbs."""
    parser.add_argument(
        "--guest",
        help="guest build: a named variant (repro.cli guest list) or a "
        "guest config JSON path",
    )
    parser.add_argument(
        "--platform",
        choices=["kvm-pvclock", "qemu-tsc", "kvm", "qemu"],
        help="clocksource platform override (default from the guest config)",
    )
    parser.add_argument(
        "--vcpus", type=int, help="SMP vCPU count override"
    )


def _add_jit_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-jit",
        action="store_true",
        help="disable block translation (superblock JIT); guest state "
        "and virtual-cycle scores are bit-identical either way",
    )


def _apply_jit_flag(args: argparse.Namespace) -> None:
    """Export ``--no-jit`` as ``REPRO_JIT=0`` so everything downstream
    -- machine boots in this process *and* forked fleet workers, which
    re-read the environment in ``FaceChange.enable()`` -- agrees."""
    if getattr(args, "no_jit", False):
        os.environ["REPRO_JIT"] = "0"


def _guest_config(args: argparse.Namespace):
    """Resolve --guest/--platform/--vcpus into one validated GuestConfig.

    Raises :class:`repro.guest.config.GuestConfigError` on bad input.
    """
    from dataclasses import replace

    from repro.guest.config import resolve_guest

    guest = resolve_guest(getattr(args, "guest", None))
    vcpus = getattr(args, "vcpus", None)
    if vcpus is not None and vcpus != guest.vcpus:
        guest = replace(guest, vcpus=vcpus, name="")
    platform = getattr(args, "platform", None)
    if platform:
        guest = guest.with_platform(platform)
    return guest


def _unknown_apps(names: List[str]) -> Optional[str]:
    from repro.apps.catalog import APP_CATALOG

    unknown = [name for name in names if name not in APP_CATALOG]
    if unknown:
        return (
            f"unknown application(s): {', '.join(unknown)} "
            f"(choose from: {', '.join(sorted(APP_CATALOG))})"
        )
    return None


def _cmd_similarity(args: argparse.Namespace) -> int:
    from repro.analysis.similarity import SimilarityMatrix, profile_applications

    problem = _unknown_apps(args.apps or [])
    if problem:
        return _fail(problem)
    print(f"profiling {len(args.apps) if args.apps else 12} applications "
          f"(scale {args.scale})...")
    configs = profile_applications(apps=args.apps or None, scale=args.scale)
    matrix = SimilarityMatrix.build(configs)
    print()
    print(matrix.format_table())
    lo_pair, lo = matrix.min_similarity()
    hi_pair, hi = matrix.max_similarity()
    print(f"\nmin {lo*100:.1f}% {lo_pair}   max {hi*100:.1f}% {hi_pair}")
    return 0


def _cmd_security(args: argparse.Namespace) -> int:
    from repro.analysis.detection import evaluate_attack
    from repro.analysis.similarity import profile_applications
    from repro.malware import ALL_ATTACKS

    attacks = [
        a for a in ALL_ATTACKS
        if not args.attack or a.name.lower().startswith(args.attack.lower())
    ]
    if not attacks:
        return _fail(
            f"no malware sample matches {args.attack!r} "
            f"(choose from: {', '.join(sorted(a.name for a in ALL_ATTACKS))})"
        )
    configs = profile_applications(scale=args.scale)
    print(f"{'Name':<14}{'Host':<9}{'FACE-CHANGE':<13}{'Union view':<12}Evidence")
    per_app = union = 0
    for attack in attacks:
        result = evaluate_attack(attack, configs, scale=args.scale)
        per_app += result.detected_per_app
        union += result.detected_union
        fc = "DETECTED" if result.detected_per_app else "missed"
        un = "detected" if result.detected_union else "missed"
        extra = " +UNKNOWN" if result.unknown_frames else ""
        print(f"{result.name:<14}{result.host_app:<9}{fc:<13}{un:<12}"
              f"{len(result.evidence)} fns{extra}")
    print(f"\nFACE-CHANGE: {per_app}/{len(attacks)}   union: {union}/{len(attacks)}")
    return 0


def _cmd_unixbench(args: argparse.Namespace) -> int:
    from repro.analysis.similarity import profile_applications
    from repro.bench.unixbench import run_unixbench

    baseline = run_unixbench(0, label="baseline")
    if args.views > 0:
        configs = profile_applications(scale=args.scale)
        run = run_unixbench(args.views, configs)
        print(f"{'subtest':<32}{'normalized':>12}")
        for name, value in run.normalized(baseline).items():
            print(f"{name:<32}{value:>12.3f}")
        print(f"{'index':<32}{run.normalized_index(baseline):>12.3f}")
    else:
        print(f"{'subtest':<32}{'score':>12}")
        for name, score in baseline.scores.items():
            print(f"{name:<32}{score:>12.2f}")
    return 0


def _cmd_httperf(args: argparse.Namespace) -> int:
    from repro.analysis.similarity import profile_applications
    from repro.bench.httperf import run_httperf_sweep

    config = profile_applications(apps=["apache"], scale=args.scale)["apache"]
    points = run_httperf_sweep(config, connections=args.connections)
    print(f"{'rate':>6}{'baseline':>12}{'face-change':>13}{'ratio':>9}")
    for p in points:
        print(f"{p.rate:>6}{p.baseline_throughput:>12.2f}"
              f"{p.facechange_throughput:>13.2f}{p.ratio:>9.3f}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.guest.config import GuestConfigError

    problem = _unknown_apps([args.app])
    if problem:
        return _fail(problem)
    try:
        guest = _guest_config(args)
    except GuestConfigError as exc:
        return _fail(str(exc))
    if args.library:
        from repro.fleet import ProfileLibrary, prepare_offline_phase

        library = ProfileLibrary(args.library)
        records = prepare_offline_phase(
            library, [args.app], scale=args.scale, force=args.force,
            guest=guest,
        )
        record = records[args.app]
        config = record.config
        print(f"{args.app}: kernel view {config.size / 1024:.0f} KB, "
              f"{len(config.profile)} ranges, "
              f"{len(record.baseline)} benign baseline recoveries")
        pin = (
            f", pinned to guest build {record.guest_digest[:12]}"
            if record.guest_digest
            else ""
        )
        print(f"stored in library {args.library} as "
              f"{record.digest[:12]}...{pin}")
    else:
        from repro.analysis.similarity import profile_applications

        config = profile_applications(apps=[args.app], scale=args.scale)[args.app]
        print(f"{args.app}: kernel view {config.size / 1024:.0f} KB, "
              f"{len(config.profile)} ranges")
    if args.output:
        config.save(args.output)
        print(f"saved to {args.output}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.kernel_view import KernelViewConfig

    try:
        config = KernelViewConfig.load(args.path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable view configuration {args.path}: {exc}")
    print(f"app:   {config.app}")
    if config.notes:
        print(f"notes: {config.notes}")
    print(f"size:  {config.size / 1024:.1f} KB in {len(config.profile)} ranges")
    for name, ranges in sorted(config.profile.segments.items()):
        print(f"  {name:<14} {len(ranges):>5} ranges  {ranges.size / 1024:>8.1f} KB")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Quickstart run with the flight recorder on, narrated from its journal."""
    from repro.analysis.similarity import profile_applications
    from repro.fleet.jobs import run_under_view
    from repro.guest.config import GuestConfigError
    from repro.guest.machine import boot_machine
    from repro.obs import chains_for_app, render_journal_narrative
    from repro.telemetry import format_counters, to_json

    problem = _unknown_apps([args.app])
    if problem:
        return _fail(problem)
    try:
        guest = _guest_config(args)
    except GuestConfigError as exc:
        return _fail(str(exc))
    attack = None
    if args.attack:
        from repro.malware import ALL_ATTACKS

        matches = [
            a for a in ALL_ATTACKS
            if a.name.lower().startswith(args.attack.lower())
        ]
        if not matches:
            return _fail(f"no malware sample matches {args.attack!r}")
        attack = matches[0]
        if attack.host_app != args.app:
            return _fail(
                f"{attack.name} infects {attack.host_app!r}; run: "
                f"repro.cli trace {attack.host_app} --attack {attack.name}"
            )
    print(f"profiling {args.app} (scale {args.scale})...")
    config = profile_applications(apps=[args.app], scale=args.scale)[args.app]
    machine = boot_machine(config=guest)
    print(f"guest: {guest.label()} (digest {machine.guest_digest[:12]})")
    meta = {"app": args.app, "scale": args.scale}
    if attack is not None:
        meta["attack"] = attack.name
    journal = machine.start_recording(path=args.journal, keep=True, meta=meta)
    infected = f" infected with {attack.name}" if attack is not None else ""
    print(f"running {args.app}{infected} under its kernel view (recording on)...")
    _fc, handle = run_under_view(machine, config, args.app, args.scale, attack=attack)
    failed = not handle.finished
    if failed:
        print("error: workload did not finish within the cycle budget",
              file=sys.stderr)
    print()
    counters = format_counters(machine.telemetry)
    if counters:
        print("== counters ==\n" + counters + "\n")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(to_json(machine.telemetry))
    machine.stop_recording()
    data = journal.data()
    if args.app_only:
        data = chains_for_app(data, args.app)
    print(render_journal_narrative(data, limit=args.limit))
    if args.output:
        print(f"\nwrote telemetry snapshot to {args.output}")
    if args.journal:
        print(f"wrote span journal to {args.journal} "
              f"(render with: repro.cli forensics {args.journal})")
    return 1 if failed else 0


def _run_sampled(
    app: str,
    scale: int,
    interval: int,
    seed: Optional[int],
    probe_symbols: Optional[List[str]] = None,
    probe_comm: Optional[str] = None,
    guest=None,
):
    """Shared harness for ``flame`` and ``probe``: one enforced,
    sampled run of ``app`` under its kernel view.

    Returns ``(machine, sampler, engine, finished)``.
    """
    from repro.analysis.similarity import profile_applications
    from repro.fleet.jobs import run_under_view
    from repro.fleet.spec import DEFAULT_SEED
    from repro.guest.machine import boot_machine
    from repro.obs.profiling.probes import ProbeEngine

    print(f"profiling {app} (scale {scale})...")
    config = profile_applications(apps=[app], scale=scale)[app]
    machine = boot_machine(config=guest)
    print(f"guest: {machine.config.label()} "
          f"(digest {machine.guest_digest[:12]})")
    engine = None
    if probe_symbols:
        engine = ProbeEngine(machine)
        predicate = None
        if probe_comm:
            predicate = lambda task: task.comm == probe_comm  # noqa: E731
        for symbol in probe_symbols:
            engine.arm(symbol, predicate)
    print(f"running {app} under its kernel view (sampling every "
          f"{interval} cycles)...")
    fc, handle = run_under_view(
        machine, config, app, scale,
        seed=DEFAULT_SEED if seed is None else seed, sample_interval=interval,
    )
    return machine, fc.sampler, engine, handle.finished


def _cmd_flame(args: argparse.Namespace) -> int:
    """Sample one enforced run and render its flame graph + top table."""
    problem = _unknown_apps([args.app])
    if problem:
        return _fail(problem)
    from repro.guest.config import GuestConfigError

    try:
        guest = _guest_config(args)
    except GuestConfigError as exc:
        return _fail(str(exc))
    machine, sampler, _engine, finished = _run_sampled(
        args.app, args.scale, args.interval, args.seed, guest=guest
    )
    profile = sampler.profile
    print()
    print(f"{profile.samples} samples "
          f"({len(profile.stacks)} unique stacks)")
    print()
    print(profile.render_flame(width=args.width))
    print()
    print(profile.render_top(limit=args.top))
    if args.output:
        from repro.telemetry import to_json

        with open(args.output, "w") as fh:
            fh.write(to_json(machine.telemetry))
        print(f"\nwrote telemetry snapshot to {args.output}")
    if not finished:
        print("error: workload did not finish within the cycle budget",
              file=sys.stderr)
        return 1
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    """Arm kprobe-style probes during one enforced, sampled run."""
    from repro.obs.profiling.probes import ProbeError

    problem = _unknown_apps([args.app])
    if problem:
        return _fail(problem)
    from repro.guest.config import GuestConfigError

    try:
        guest = _guest_config(args)
    except GuestConfigError as exc:
        return _fail(str(exc))
    try:
        machine, _sampler, engine, finished = _run_sampled(
            args.app,
            args.scale,
            args.interval,
            args.seed,
            probe_symbols=args.funcs,
            probe_comm=args.app if args.app_only else None,
            guest=guest,
        )
    except ProbeError as exc:
        return _fail(str(exc))
    print()
    print(f"{'HITS':>8}  {'FILTERED':>8}  FUNCTION")
    for symbol in args.funcs:
        probe = engine.probes[symbol]
        print(f"{probe.hits:>8}  {probe.filtered:>8}  {probe.symbol}")
    hits = machine.telemetry.labelled.get("probe.hits")
    total = sum(hits.values.values()) if hits is not None else 0
    print(f"\n{total} total probe hit(s) recorded")
    if not finished:
        print("error: workload did not finish within the cycle budget",
              file=sys.stderr)
        return 1
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Render the attack/recovery narrative from a flight-recorder file."""
    from repro.obs import render_forensics
    from repro.telemetry import JournalError

    try:
        print(render_forensics(args.path))
    except JournalError as exc:
        return _fail(str(exc))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Run a declarative fleet of snapshot-forked guests."""
    from repro.fleet import (
        FleetSpec,
        FleetSpecError,
        ProfileLibrary,
        ProfileLibraryError,
        prepare_offline_phase,
        run_fleet,
    )
    from repro.fleet.spec import uniform_spec

    try:
        if args.spec:
            spec = FleetSpec.load(args.spec)
        elif args.matrix:
            if not args.apps:
                return _fail("--matrix needs --apps (plus optional "
                             "--attacks / --guests)")
            problem = _unknown_apps(args.apps)
            if problem:
                return _fail(problem)
            spec = FleetSpec.from_dict(
                {
                    "name": "matrix",
                    "scale": args.scale,
                    "workers": args.workers or 2,
                    "matrix": {
                        "apps": args.apps,
                        "attacks": args.attacks or [],
                        "guests": args.guests or ["default"],
                    },
                }
            )
        elif args.apps:
            problem = _unknown_apps(args.apps)
            if problem:
                return _fail(problem)
            spec = uniform_spec(
                args.apps,
                scale=args.scale,
                workers=args.workers or 2,
                repeat=args.repeat,
                guest=args.guests[0] if args.guests else None,
            )
        else:
            return _fail("provide a spec file or --apps (see --help)")
    except FleetSpecError as exc:
        return _fail(str(exc))
    if args.workers:
        spec.workers = args.workers

    # one offline phase per (kernel build, app set): profiles pin to builds
    builds = {}
    for job in spec.jobs:
        config = job.guest_config()
        entry = builds.setdefault(config.build_digest(), (config, set()))
        entry[1].add(job.app)

    library = ProfileLibrary(args.library)
    try:
        if args.no_offline:
            missing = [
                f"{app}@{config.label()}"
                for build, (config, apps) in sorted(builds.items())
                for app in sorted(apps)
                if library.digest_of(app, build) is None
            ]
            if missing:
                return _fail(
                    f"library {args.library} has no profile for: "
                    f"{', '.join(missing)} (run without --no-offline, or "
                    f"'repro.cli profile <app> --library {args.library}')"
                )
        else:
            for _build, (config, apps) in sorted(builds.items()):
                prepare_offline_phase(
                    library, sorted(apps), scale=args.scale, guest=config
                )
        view = None
        on_message = None
        if args.watch:
            import time as time_mod

            from repro.obs import LiveFleetView

            baselines = {
                job.name: len(
                    library.get(job.app, job.guest_config().build_digest()).baseline
                )
                for job in spec.jobs
            }
            view = LiveFleetView(baselines=baselines)
            for job in spec.jobs:
                view.expect(job.name, app=job.app)
            watch_started = time_mod.monotonic()

            def on_message(message):
                now = time_mod.monotonic() - watch_started
                for notice in view.update(message, now=now):
                    print(notice, flush=True)

        report = run_fleet(
            spec,
            library,
            on_message=on_message,
            heartbeat_interval=args.heartbeat,
            journal_dir=args.journal_dir,
        )
    except ProfileLibraryError as exc:
        return _fail(str(exc))
    if view is not None:
        import time as time_mod

        print()
        print(view.render(now=time_mod.monotonic() - watch_started))
        drifting = view.drifting()
        if drifting:
            print(
                f"profile drift detected: {', '.join(drifting)} "
                "-- re-profile with 'repro.cli profile <app> --library ... --force'"
            )
    if report.journal_paths:
        print(f"wrote {len(report.journal_paths)} job journal(s) to "
              f"{args.journal_dir}")
    print(report.format_summary())
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote fleet report to {args.output}")
    if report.failed:
        print(f"error: {report.failed} job(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant fleet daemon (see repro.serve)."""
    from repro.fleet import ProfileLibrary
    from repro.guest.config import GuestConfigError, resolve_guest
    from repro.serve import DEFAULT_SOCKET, ServeDaemon, TenantPolicy

    socket_path = args.socket or DEFAULT_SOCKET
    if args.apps:
        problem = _unknown_apps(args.apps)
        if problem:
            return _fail(problem)
    try:
        for ref in args.guests or []:
            resolve_guest(ref)
    except GuestConfigError as exc:
        return _fail(str(exc))
    policy = TenantPolicy(
        max_in_flight=args.tenant_in_flight,
        cycle_budget=args.tenant_budget,
    )
    alert_rules = None
    if args.alert_rules:
        from repro.obs.metrics import MetricsError, load_rules

        try:
            alert_rules = load_rules(args.alert_rules)
        except MetricsError as exc:
            return _fail(str(exc))
    daemon = ServeDaemon(
        ProfileLibrary(args.library),
        socket_path=socket_path,
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        max_queue_depth=args.queue_depth,
        default_policy=policy,
        warm_target=args.warm,
        base_seed=args.seed,
        heartbeat_interval=args.heartbeat,
        auto_profile=args.auto_profile,
        profile_scale=args.scale,
        metrics_interval=(
            args.metrics_interval if args.metrics_interval > 0 else None
        ),
        metrics_addr=args.metrics_addr,
        slo_latency=args.slo_latency,
        alert_rules=alert_rules,
        ops_journal=args.ops_journal,
        obs_dir=args.obs_dir,
        obs_rotate_bytes=args.obs_rotate_bytes,
        obs_rotate_seconds=args.obs_rotate_seconds,
        obs_retain_seconds=args.obs_retain_seconds,
        obs_compact_after=args.obs_compact_after,
        alert_webhook=args.alert_webhook,
    )
    daemon.start(apps=args.apps, guests=args.guests)
    scrape = (
        f", metrics on port {daemon.metrics_port}"
        if daemon.metrics_port is not None
        else ""
    )
    print(
        f"serve: pid {os.getpid()} listening on {socket_path} "
        f"({len(daemon.pool.variants())} warm variant(s), "
        f"workers {args.min_workers}..{args.max_workers}, "
        f"queue depth {args.queue_depth}{scrape})",
        flush=True,
    )
    daemon.serve_forever()
    print("serve: stopped")
    return 0


def _ctl_client(args: argparse.Namespace):
    from repro.serve import DEFAULT_SOCKET, ServeClient

    return ServeClient(args.socket or DEFAULT_SOCKET)


def _print_job_row(job: dict) -> None:
    print(
        f"{job['id']:<10} {job['state']:<10} {job['tenant']:<10} "
        f"{job.get('name', ''):<28} {job.get('app', '')}"
    )


def _cmd_ctl(args: argparse.Namespace) -> int:
    """Control a running serve daemon; exit 2 on client-side failures
    (daemon unreachable, unknown job, rejected submission), 1 when the
    daemon reports a failed job."""
    from repro.serve.client import MetricsDisabled, ServeClientError

    try:
        return _ctl_dispatch(args)
    except MetricsDisabled:
        return _fail(
            "metrics recorder disabled: the daemon was started with "
            "--metrics-interval 0, so there is nothing to scrape; "
            "restart it with a positive interval to use "
            f"'ctl {args.ctl_command}'"
        )
    except ServeClientError as exc:
        return _fail(str(exc))


def _ctl_dispatch(args: argparse.Namespace) -> int:
    client = _ctl_client(args)
    cmd = args.ctl_command
    if cmd == "ping":
        info = client.ping()
        print(
            f"ok: daemon pid {info['pid']} protocol v{info['version']} "
            f"({'accepting' if info.get('accepting') else 'draining'})"
        )
        return 0
    if cmd == "submit":
        response = client.submit(
            args.app,
            scale=args.scale,
            attack=args.attack,
            guest=args.guest,
            tenant=args.tenant,
            priority=args.priority,
            name=args.name or "",
            seed=args.seed,
            trace_id=args.trace_id,
        )
        trace = response.get("trace", "")
        print(
            f"submitted {response['id']} ({response['name']})"
            + (f" trace {trace}" if trace else "")
        )
        if not args.wait:
            return 0
        response = client.result(
            response["id"], wait=True, timeout=args.timeout
        )
        return _print_result(response)
    if cmd == "status":
        if args.id:
            job = client.status(args.id)["job"]
            for key in sorted(job):
                print(f"{key:<16} {job[key]}")
            return 0
        jobs = client.status()["jobs"]
        print(f"{'ID':<10} {'STATE':<10} {'TENANT':<10} {'NAME':<28} APP")
        for job in jobs:
            _print_job_row(job)
        return 0
    if cmd == "result":
        response = client.result(args.id, wait=args.wait, timeout=args.timeout)
        return _print_result(response)
    if cmd == "cancel":
        response = client.cancel(args.id)
        print(f"{args.id}: {response['action']}")
        return 0
    if cmd == "stats":
        stats = client.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(_render_stats_table(stats))
        return 0
    if cmd == "metrics":
        if args.prom:
            print(client.metrics(format="prom"), end="")
        elif args.series:
            print(json.dumps(
                client.metrics(format="series"), indent=2, sort_keys=True
            ))
        else:
            print(json.dumps(
                client.metrics(), indent=2, sort_keys=True
            ))
        return 0
    if cmd == "top":
        return _ctl_top(client, args)
    if cmd == "watch":
        from repro.obs import LiveFleetView

        view = LiveFleetView()
        import time as time_mod

        started = time_mod.monotonic()
        try:
            for event in client.watch():
                now = time_mod.monotonic() - started
                for notice in view.update(event, now=now):
                    print(notice, flush=True)
        except KeyboardInterrupt:
            pass
        print()
        print(view.render(now=time_mod.monotonic() - started))
        return 0
    if cmd == "shutdown":
        summary = client.shutdown(drain=not args.no_drain, timeout=args.timeout)
        states = summary.get("jobs", {})
        drained = "drained" if summary.get("drained") else "NOT fully drained"
        jobs = ", ".join(
            f"{k}={v}" for k, v in sorted(states.items())
        ) or "none"
        print(f"daemon stopped ({drained}; jobs: {jobs})")
        return 0
    return _fail(f"unknown ctl command {args.ctl_command!r}")


def _render_stats_table(stats: dict) -> str:
    """Human-readable ``ctl stats`` (``--json`` keeps the raw dump)."""
    queue = stats.get("queue", {})
    workers = stats.get("workers", {})
    states = queue.get("states", {})
    lines = [
        f"daemon     pid {stats.get('pid', '?')}  "
        f"protocol v{stats.get('version', '?')}  "
        f"up {stats.get('uptime_seconds', 0.0):.0f}s  "
        f"{'accepting' if queue.get('accepting') else 'draining'}",
        f"queue      depth {queue.get('depth', 0)}/"
        f"{queue.get('max_depth', 0)}  running {queue.get('running', 0)}  "
        + (
            "jobs " + ", ".join(
                f"{state}={count}" for state, count in sorted(states.items())
            )
            if states
            else "no jobs yet"
        ),
        f"workers    alive {workers.get('alive', 0)}  "
        f"desired {workers.get('desired', 0)}  "
        f"bounds {workers.get('min', 0)}..{workers.get('max', 0)}"
        + (
            f"  pids {' '.join(map(str, workers['pids']))}"
            if workers.get("pids")
            else ""
        ),
    ]
    pool = stats.get("pool", {})
    for digest in sorted(pool, key=lambda d: pool[d].get("label", d)):
        entry = pool[digest]
        lines.append(
            f"pool       {entry.get('label', digest):<14} "
            f"warm {entry.get('warm', 0)}/{entry.get('target', 0)}  "
            f"hits {entry.get('hits', 0)}  misses {entry.get('misses', 0)}  "
            f"refills {entry.get('refills', 0)}"
        )
    tenants = queue.get("tenants", {})
    if tenants:
        lines.append("")
        lines.append(
            f"{'tenant':<12} {'infl':>5} {'done':>6} {'fail':>5} "
            f"{'cancel':>6} {'cycles':>14} {'budget-left':>12} {'rejected':>9}"
        )
        for name, tenant in sorted(tenants.items()):
            remaining = tenant.get("remaining_cycles")
            lines.append(
                f"{name:<12} {tenant.get('in_flight', 0):>5} "
                f"{tenant.get('completed', 0):>6} "
                f"{tenant.get('failed', 0):>5} "
                f"{tenant.get('cancelled', 0):>6} "
                f"{tenant.get('charged_cycles', 0):>14} "
                f"{remaining if remaining is not None else '-':>12} "
                f"{sum(tenant.get('rejections', {}).values()):>9}"
            )
    serve = stats.get("serve", {})
    counters = {
        name: value
        for name, value in serve.get("counters", {}).items()
        if value
    }
    if counters:
        lines.append("")
        for name, value in sorted(counters.items()):
            lines.append(f"{name:<40} {value:>12}")
    for name, values in sorted(serve.get("labelled_counters", {}).items()):
        if not values:
            continue
        lines.append(f"{name:<40} {sum(values.values()):>12}")
        for label, count in sorted(values.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {label:<38} {count:>12}")
    lifetime = stats.get("jobs_telemetry", {})
    if lifetime.get("sources"):
        lines.append("")
        lines.append(
            f"lifetime job telemetry: {lifetime['sources']} job(s) merged, "
            f"{len(lifetime.get('counters', {}))} counters"
        )
    return "\n".join(line.rstrip() for line in lines)


def _ctl_top(client, args: argparse.Namespace) -> int:
    """The refreshing terminal dashboard over the ``metrics`` op."""
    from repro.obs import render_service_top

    import time as time_mod

    iterations = 1 if args.once else args.count
    shown = 0
    try:
        while True:
            frame = render_service_top(client.metrics())
            if not args.once:
                # ANSI clear + home keeps the table in place like top(1)
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            shown += 1
            if iterations and shown >= iterations:
                return 0
            time_mod.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _print_result(response: dict) -> int:
    job = response["job"]
    result = response.get("result") or {}
    state = job["state"]
    if state == "done":
        line = (
            f"{job['id']} done: {result.get('name', job.get('name', ''))} "
            f"cycles={result.get('cycles')} syscalls={result.get('syscalls')}"
        )
        if result.get("attack"):
            verdict = "DETECTED" if result.get("detected") else "missed"
            line += f" attack={result['attack']} {verdict}"
        print(line)
        return 0
    print(
        f"error: {job['id']} {state}: {job.get('error') or '(no detail)'}",
        file=sys.stderr,
    )
    return 1


def _resolve_guest_ref(ref: str):
    from repro.guest.config import resolve_guest

    return resolve_guest(ref)


def _cmd_guest_list(args: argparse.Namespace) -> int:
    from repro.guest.config import VARIANTS

    print(f"{'NAME':<14} {'DIGEST':<14} {'BUILD':<14} {'PLATFORM':<12} "
          f"{'VCPUS':>5}  MODULES")
    for name in sorted(VARIANTS):
        config = VARIANTS[name]
        print(
            f"{name:<14} {config.digest()[:12]:<14} "
            f"{config.build_digest()[:12]:<14} {config.platform:<12} "
            f"{config.vcpus:>5}  {', '.join(config.modules) or '(none)'}"
        )
    return 0


def _cmd_guest_show(args: argparse.Namespace) -> int:
    from repro.guest.config import GuestConfigError

    try:
        config = _resolve_guest_ref(args.ref)
    except GuestConfigError as exc:
        return _fail(str(exc))
    print(config.describe())
    return 0


def _cmd_guest_digest(args: argparse.Namespace) -> int:
    from repro.guest.config import GuestConfigError

    try:
        config = _resolve_guest_ref(args.ref)
    except GuestConfigError as exc:
        return _fail(str(exc))
    print(config.build_digest() if args.build else config.digest())
    return 0


def _cmd_guest_diff(args: argparse.Namespace) -> int:
    from repro.guest.config import GuestConfigError

    try:
        left = _resolve_guest_ref(args.left)
        right = _resolve_guest_ref(args.right)
    except GuestConfigError as exc:
        return _fail(str(exc))
    rows = left.diff(right)
    if not rows:
        print(f"{left.label()} and {right.label()} are identical "
              f"(digest {left.digest()[:12]})")
        return 0
    print(f"{left.label()} -> {right.label()}:")
    for row in rows:
        print(f"  {row}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Query the persistent observability archive a serve daemon wrote
    with ``--obs-dir`` (works offline -- no daemon required)."""
    from repro.obs.store import (
        ObsStoreError,
        query_series,
        render_query_prom,
        render_query_table,
        render_trace,
    )

    try:
        if args.obs_command == "query":
            result = query_series(
                args.obs_dir,
                name=args.series,
                label=args.label,
                since=args.since,
                until=args.until,
                resolution=args.resolution,
            )
            if args.format == "json":
                print(json.dumps(result, indent=2, sort_keys=True))
            elif args.format == "prom":
                print(render_query_prom(result), end="")
            else:
                print(render_query_table(result))
            return 0
        if args.obs_command == "trace":
            print(
                render_trace(args.obs_dir, args.trace_id, limit=args.limit)
            )
            return 0
    except ObsStoreError as exc:
        return _fail(str(exc))
    return _fail(f"unknown obs command {args.obs_command!r}")


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_prometheus, generate_report

    try:
        if args.format == "prom":
            if args.sections:
                return _fail("--sections only applies to --format md")
            text = generate_prometheus(scale=args.scale, app=args.app)
        else:
            text = generate_report(
                scale=args.scale,
                sections=args.sections,
                obs_dir=args.obs_dir,
            )
    except ValueError as exc:
        return _fail(str(exc))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="FACE-CHANGE (DSN 2014) reproduction experiments",
    )
    parser.add_argument(
        "--scale", type=int, default=4, help="workload scale (default 4)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("similarity", help="Table I similarity matrix")
    p.add_argument("apps", nargs="*", help="subset of applications")
    p.set_defaults(fn=_cmd_similarity)

    p = sub.add_parser("security", help="Table II attack evaluation")
    p.add_argument("--attack", help="only attacks whose name starts with this")
    p.set_defaults(fn=_cmd_security)

    p = sub.add_parser("unixbench", help="Figure 6 UnixBench point")
    p.add_argument("--views", type=int, default=1, help="views loaded (0=baseline)")
    p.set_defaults(fn=_cmd_unixbench)

    p = sub.add_parser("httperf", help="Figure 7 httperf sweep")
    p.add_argument("--connections", type=int, default=60)
    p.set_defaults(fn=_cmd_httperf)

    p = sub.add_parser("profile", help="profile one application")
    p.add_argument("app")
    p.add_argument("-o", "--output", help="save the view configuration JSON")
    p.add_argument(
        "--library",
        help="store the profile (plus benign baseline) in this fleet "
        "profile library instead of a bare JSON file",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="re-profile even if the library already has this app",
    )
    _add_guest_flags(p)
    _add_jit_flag(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser(
        "inspect", help="summarize a kernel view configuration file"
    )
    p.add_argument("path")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser(
        "trace",
        help="run one app under its view, narrate its span journal",
    )
    p.add_argument("app", nargs="?", default="top")
    p.add_argument("-o", "--output", help="save the telemetry snapshot JSON")
    p.add_argument(
        "--limit", type=int, default=200,
        help="max causal chains shown (default 200)",
    )
    p.add_argument(
        "--app-only",
        action="store_true",
        help="only show chains attributable to the traced application",
    )
    p.add_argument(
        "--journal",
        help="also write the span journal (JSONL) to this file",
    )
    p.add_argument(
        "--attack",
        help="infect the run with this Table II malware sample "
        "(the app must be the sample's host)",
    )
    _add_guest_flags(p)
    _add_jit_flag(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "flame",
        help="sample one enforced run, render a text flame graph "
        "and top-N hot-function table",
    )
    p.add_argument("app", nargs="?", default="find_pipe")
    p.add_argument(
        "--interval",
        type=int,
        default=20_000,
        help="sampling period in virtual cycles (default 20000)",
    )
    p.add_argument(
        "--seed", type=int, help="pin the workload RNG for a replayable run"
    )
    p.add_argument(
        "--width", type=int, default=40, help="flame-graph bar width"
    )
    p.add_argument(
        "--top", type=int, default=10, help="rows in the hot-function table"
    )
    p.add_argument("-o", "--output", help="save the telemetry snapshot JSON")
    _add_guest_flags(p)
    _add_jit_flag(p)
    p.set_defaults(fn=_cmd_flame)

    p = sub.add_parser(
        "probe",
        help="arm kprobe-style probes on kernel functions during one "
        "enforced run, report hit counts",
    )
    p.add_argument("funcs", nargs="+", help="kernel function symbol(s)")
    p.add_argument(
        "--app", default="find_pipe", help="application to run (default find_pipe)"
    )
    p.add_argument(
        "--app-only",
        action="store_true",
        help="only count hits while the probed app is current (VMI filter)",
    )
    p.add_argument(
        "--interval",
        type=int,
        default=20_000,
        help="sampling period in virtual cycles (default 20000)",
    )
    p.add_argument(
        "--seed", type=int, help="pin the workload RNG for a replayable run"
    )
    _add_guest_flags(p)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser(
        "forensics",
        help="render the causal attack/recovery narrative from a journal",
    )
    p.add_argument(
        "path",
        help="journal file: a span journal (repro trace --journal / "
        "fleet --journal-dir), an ops journal or an obs archive file",
    )
    p.set_defaults(fn=_cmd_forensics)

    p = sub.add_parser(
        "fleet", help="run a fleet of snapshot-forked guests"
    )
    p.add_argument(
        "spec", nargs="?", help="fleet spec JSON file (see repro.fleet.spec)"
    )
    p.add_argument(
        "--apps", nargs="+", help="quick spec: one job per app (no spec file)"
    )
    p.add_argument(
        "--repeat", type=int, default=1, help="jobs per app with --apps"
    )
    p.add_argument(
        "--matrix",
        action="store_true",
        help="expand an app x attack x guest-variant cross-product from "
        "--apps / --attacks / --guests (each variant is snapshotted once)",
    )
    p.add_argument(
        "--attacks", nargs="+",
        help="with --matrix: malware samples to inject on their host apps",
    )
    p.add_argument(
        "--guests", nargs="+",
        help="guest variants (names or config JSON paths); with --matrix "
        "every variant runs the whole app x attack grid",
    )
    p.add_argument("--workers", type=int, help="worker count (overrides spec)")
    p.add_argument(
        "--library",
        default=".fleet-library",
        help="profile library directory (default .fleet-library)",
    )
    p.add_argument(
        "--no-offline",
        action="store_true",
        help="fail instead of profiling when the library lacks an app",
    )
    p.add_argument(
        "--watch",
        action="store_true",
        help="stream live per-job heartbeats, liveness and profile-drift "
        "notices while the fleet runs",
    )
    p.add_argument(
        "--journal-dir",
        help="collect each job's span journal into this directory",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=0.5,
        help="worker heartbeat interval in seconds (default 0.5)",
    )
    p.add_argument("-o", "--output", help="write the fleet report JSON")
    _add_jit_flag(p)
    p.set_defaults(fn=_cmd_fleet)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant fleet daemon (warm snapshot pools, "
        "priority job queue, autoscaling workers; control with ctl)",
    )
    p.add_argument(
        "--socket",
        default=None,
        help="control address: unix socket path or host:port "
        "(default .repro-serve.sock)",
    )
    p.add_argument(
        "--library",
        default=".fleet-library",
        help="profile library directory (default .fleet-library)",
    )
    p.add_argument(
        "--apps", nargs="+",
        help="profile these apps up front (once per kernel build)",
    )
    p.add_argument(
        "--guests", nargs="+",
        help="guest variants to pre-boot warm snapshot pools for "
        "(default: the default variant)",
    )
    p.add_argument(
        "--min-workers", type=int, default=1,
        help="worker process floor (default 1)",
    )
    p.add_argument(
        "--max-workers", type=int, default=4,
        help="worker process ceiling (default 4)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission cap on queued jobs (default 64)",
    )
    p.add_argument(
        "--warm", type=int, default=2,
        help="pre-forked clones kept warm per variant in each worker "
        "process (default 2)",
    )
    p.add_argument(
        "--tenant-in-flight", type=int,
        help="per-tenant cap on queued+running jobs (default unlimited)",
    )
    p.add_argument(
        "--tenant-budget", type=int,
        help="per-tenant virtual-cycle budget across the daemon's "
        "lifetime (default unlimited)",
    )
    p.add_argument(
        "--auto-profile",
        action="store_true",
        help="profile unknown apps on first submission instead of "
        "rejecting with no-profile",
    )
    p.add_argument(
        "--heartbeat", type=float, default=0.25,
        help="streamed heartbeat interval in seconds (default 0.25)",
    )
    p.add_argument(
        "--seed", type=int, default=20140623,
        help="base seed for derived per-job seeds (default 20140623, "
        "matching repro fleet)",
    )
    p.add_argument(
        "--metrics-interval", type=float, default=1.0,
        help="metrics sampling cadence in seconds; 0 disables the "
        "recorder entirely (default 1.0)",
    )
    p.add_argument(
        "--metrics-addr",
        help="also expose Prometheus text over HTTP at host:port "
        "(port 0 picks a free port)",
    )
    p.add_argument(
        "--slo-latency", type=float,
        help="per-tenant submit->result latency SLO target in seconds",
    )
    p.add_argument(
        "--alert-rules",
        help="JSON file of alert rules (default: the built-in rule set)",
    )
    p.add_argument(
        "--ops-journal",
        help="append alert transitions to this journal file "
        "(readable by repro forensics)",
    )
    p.add_argument(
        "--obs-dir",
        help="persist metrics samples, alert transitions, lifecycle "
        "events and per-request trace journals to this directory "
        "(query later with repro obs)",
    )
    p.add_argument(
        "--obs-rotate-bytes", type=int, default=1 << 20,
        help="rotate archive segments past this size (default 1 MiB)",
    )
    p.add_argument(
        "--obs-rotate-seconds", type=float, default=300.0,
        help="rotate archive segments past this age (default 300)",
    )
    p.add_argument(
        "--obs-retain-seconds", type=float, default=7 * 24 * 3600.0,
        help="delete archive segments older than this (default 7 days)",
    )
    p.add_argument(
        "--obs-compact-after", type=float, default=3600.0,
        help="downsample closed segments older than this to 60s "
        "resolution (default 3600)",
    )
    p.add_argument(
        "--alert-webhook",
        help="POST alert transitions as JSON to this URL (bounded "
        "retry on a background thread; never blocks the daemon)",
    )
    _add_jit_flag(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "ctl", help="control a running serve daemon"
    )
    p.add_argument(
        "--socket",
        default=None,
        help="daemon control address (default .repro-serve.sock)",
    )
    csub = p.add_subparsers(dest="ctl_command", required=True)
    c = csub.add_parser("ping", help="check the daemon is alive")
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser("submit", help="submit one job")
    c.add_argument("app", help="application to run")
    c.add_argument("--attack", help="malware sample to inject (host app)")
    c.add_argument("--guest", help="guest variant name or config JSON path")
    c.add_argument("--tenant", default="default", help="tenant id")
    c.add_argument(
        "--priority", type=int, default=0,
        help="higher runs first (default 0)",
    )
    c.add_argument("--name", help="explicit job name (default auto)")
    c.add_argument("--seed", type=int, help="explicit job seed")
    c.add_argument(
        "--trace-id",
        help="explicit request trace id (default: minted client-side); "
        "follow it later with repro obs trace",
    )
    c.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )
    c.add_argument(
        "--timeout", type=float, help="with --wait: give up after this long"
    )
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser("status", help="list jobs, or show one")
    c.add_argument("id", nargs="?", help="job id (omit for the full table)")
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser("result", help="fetch a job's result")
    c.add_argument("id", help="job id")
    c.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    c.add_argument(
        "--timeout", type=float, help="with --wait: give up after this long"
    )
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser("cancel", help="cancel a queued or running job")
    c.add_argument("id", help="job id")
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser("stats", help="show daemon stats")
    c.add_argument(
        "--json", action="store_true",
        help="raw JSON dump instead of the table",
    )
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser(
        "metrics", help="fetch the daemon's service metrics"
    )
    c.add_argument(
        "--prom", action="store_true",
        help="Prometheus text exposition instead of JSON",
    )
    c.add_argument(
        "--series", action="store_true",
        help="raw ring-buffer time series instead of the summary",
    )
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser(
        "top",
        help="live service dashboard: queue, pools, tenants, SLOs, "
        "alerts (Ctrl-C to stop)",
    )
    c.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    c.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh cadence in seconds (default 2.0)",
    )
    c.add_argument(
        "--count", type=int, default=0,
        help="stop after this many frames (default: until Ctrl-C)",
    )
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser(
        "watch",
        help="stream daemon events through the live fleet view "
        "(Ctrl-C to stop)",
    )
    c.set_defaults(fn=_cmd_ctl)
    c = csub.add_parser("shutdown", help="stop the daemon")
    c.add_argument(
        "--no-drain",
        action="store_true",
        help="cancel queued jobs instead of draining them",
    )
    c.add_argument(
        "--timeout", type=float, help="give up waiting after this long"
    )
    c.set_defaults(fn=_cmd_ctl)

    p = sub.add_parser(
        "guest", help="inspect guest build variants (configs and digests)"
    )
    gsub = p.add_subparsers(dest="guest_command", required=True)
    g = gsub.add_parser("list", help="list the named guest variants")
    g.set_defaults(fn=_cmd_guest_list)
    g = gsub.add_parser("show", help="describe one guest config")
    g.add_argument("ref", help="variant name or guest config JSON path")
    g.set_defaults(fn=_cmd_guest_show)
    g = gsub.add_parser("digest", help="print a guest config's digest")
    g.add_argument("ref", help="variant name or guest config JSON path")
    g.add_argument(
        "--build",
        action="store_true",
        help="print the build digest (platform excluded; profiles pin to it)",
    )
    g.set_defaults(fn=_cmd_guest_digest)
    g = gsub.add_parser("diff", help="field-by-field diff of two configs")
    g.add_argument("left", help="variant name or guest config JSON path")
    g.add_argument("right", help="variant name or guest config JSON path")
    g.set_defaults(fn=_cmd_guest_diff)

    p = sub.add_parser(
        "obs",
        help="query a serve daemon's persistent observability archive "
        "(written with serve --obs-dir; works after the daemon stops)",
    )
    osub = p.add_subparsers(dest="obs_command", required=True)
    o = osub.add_parser(
        "query", help="replay archived time series over a time range"
    )
    o.add_argument(
        "--obs-dir", required=True, help="archive directory to read"
    )
    o.add_argument(
        "--series", help="one series name (default: all archived series)"
    )
    o.add_argument("--label", help="narrow to one label (e.g. a tenant)")
    o.add_argument(
        "--since", type=float, help="unix-seconds lower bound (inclusive)"
    )
    o.add_argument(
        "--until", type=float, help="unix-seconds upper bound (inclusive)"
    )
    o.add_argument(
        "--resolution", type=float,
        help="pick the ring closest to this resolution in seconds",
    )
    o.add_argument(
        "--format",
        choices=("table", "json", "prom"),
        default="table",
        help="table (default), json (full export) or prom (text "
        "exposition rebuilt from the archive)",
    )
    o.set_defaults(fn=_cmd_obs)
    o = osub.add_parser(
        "trace",
        help="narrate one request end to end: lifecycle events, alerts "
        "in flight, and the guest span forest",
    )
    o.add_argument("trace_id", help="the trace id echoed by ctl submit")
    o.add_argument(
        "--obs-dir", required=True, help="archive directory to read"
    )
    o.add_argument(
        "--limit", type=int, default=25,
        help="cap on span chains rendered (default 25)",
    )
    o.set_defaults(fn=_cmd_obs)

    p = sub.add_parser(
        "report", help="run the full evaluation, emit a markdown report"
    )
    p.add_argument("-o", "--output", help="write the report to this file")
    p.add_argument(
        "--sections",
        nargs="*",
        help="subset of sections to run (see repro.analysis.report."
        "KNOWN_SECTIONS); unknown names fail with a non-zero exit",
    )
    p.add_argument(
        "--obs-dir",
        help="serve observability archive backing the capacity section "
        "(required for --sections capacity)",
    )
    p.add_argument(
        "--format",
        choices=("md", "prom"),
        default="md",
        help="md: markdown evaluation report (default); prom: run one "
        "enforced workload and emit its telemetry as Prometheus text",
    )
    p.add_argument(
        "--app",
        default="top",
        help="with --format prom: the application to run (default top)",
    )
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    _apply_jit_flag(args)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
