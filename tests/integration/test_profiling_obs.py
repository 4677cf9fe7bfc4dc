"""Integration: sampling profiler, probes and heat analysis on live
enforced runs -- the PR's acceptance criteria."""

import pytest

from repro.apps.base import launch
from repro.apps.catalog import APP_CATALOG
from repro.core.facechange import FaceChange
from repro.core.kernel_view import KernelViewConfig
from repro.core.rangelist import BASE_KERNEL, KernelProfile
from repro.guest.config import DEFAULT_GUEST_CONFIG
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform
from repro.obs.profiling import ProbeEngine, ProbeError, analyze_heat
from repro.obs.profiling.sampler import SampleProfile, SamplingProfiler
from repro.telemetry.export import snapshot as telemetry_snapshot
from repro.telemetry.merge import merge_snapshots

SEED = 1234
DEFAULT_BUILD = DEFAULT_GUEST_CONFIG.build_digest()


def sampled_run(app, config, scale=2, seed=SEED, interval=20_000,
                probes=(), recording=False):
    """One enforced run of ``app`` under its view with the sampler on."""
    machine = boot_machine(platform=Platform.KVM)
    journal = None
    if recording:
        journal = machine.start_recording(keep=True)
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(config, comm=app)
    sampler = SamplingProfiler(
        machine,
        interval=interval,
        view_provider=lambda cpu: fc.switcher.current_index[cpu],
    )
    sampler.install()
    engine = ProbeEngine(machine)
    for symbol in probes:
        engine.arm(symbol)
    handle = launch(machine, app, APP_CATALOG[app], scale=scale, seed=seed)
    machine.run_to_exit([handle], 200_000_000_000)
    assert handle.finished
    return machine, sampler, engine, journal


class TestFlameAcceptance:
    def test_find_pipe_top_table_names_vfs_pipe_functions(self, app_configs):
        _machine, sampler, _engine, _ = sampled_run(
            "find_pipe", app_configs["find_pipe"], scale=3
        )
        profile = sampler.profile
        assert profile.samples > 20
        top_symbols = [row[0] for row in profile.function_rows()[:10]]
        vfs_pipe = {
            "d_lookup", "link_path_walk", "vfs_read", "vfs_write",
            "pipe_read", "pipe_write", "generic_permission",
            "ext4_find_entry", "do_filp_open", "sys_getdents",
        }
        assert vfs_pipe & set(top_symbols), top_symbols
        # the pipe transport shows up in the stacks themselves
        folded = profile.folded()
        assert any(
            "pipe_read" in stack or "pipe_write" in stack
            for stack in folded
        )

    def test_same_seed_runs_sample_identically(self, app_configs):
        profiles = []
        for _ in range(2):
            _m, sampler, _e, _ = sampled_run(
                "find_pipe", app_configs["find_pipe"], scale=2
            )
            profiles.append(sampler.profile)
        assert profiles[0].stacks == profiles[1].stacks
        assert profiles[0].functions == profiles[1].functions


class TestBitIdentity:
    def test_scores_identical_with_sampler_and_probes_on(self, app_configs):
        """The tentpole contract, at test scale: virtual-cycle scores
        are bit-identical whether the statistical layer is on or off."""
        scores = []
        for instrumented in (False, True):
            machine = boot_machine(platform=Platform.KVM)
            fc = FaceChange(machine)
            fc.enable()
            fc.load_view(app_configs["find_pipe"], comm="find_pipe")
            if instrumented:
                sampler = SamplingProfiler(machine, interval=10_000)
                sampler.install()
                engine = ProbeEngine(machine)
                engine.arm("pipe_write")
                engine.arm("vfs_read")
            handle = launch(
                machine, "find_pipe", APP_CATALOG["find_pipe"],
                scale=2, seed=SEED,
            )
            machine.run_to_exit([handle], 200_000_000_000)
            assert handle.finished
            scores.append(
                (machine.cycles, machine.runtime.syscalls_executed)
            )
        assert scores[0] == scores[1]


class TestProbes:
    def test_probe_counts_and_spans(self, app_configs):
        machine, _sampler, engine, journal = sampled_run(
            "find_pipe", app_configs["find_pipe"],
            probes=("pipe_write",), recording=True,
        )
        probe = engine.probes["pipe_write"]
        assert probe.hits > 0
        hits = machine.telemetry.labelled.get("probe.hits")
        assert hits.values["pipe_write"] == probe.hits
        probe_spans = [
            r for r in journal.records()
            if r.get("t") == "span" and r.get("kind") == "probe"
        ]
        assert len(probe_spans) == probe.hits
        assert all(s["attrs"]["symbol"] == "pipe_write" for s in probe_spans)
        assert all(s["attrs"]["rip"] == probe.address for s in probe_spans)
        # the span is the hit's one record: no event repeats it
        assert not any(
            r.get("t") == "event" and r.get("kind") == "probe"
            for r in journal.records()
        )

    def test_probe_composes_with_resume_trap_address(self, app_configs):
        """A probe on resume_userspace shares its trap address with
        FACE-CHANGE's own per-vCPU resume traps; both must fire and
        either may be removed first (the PR 1 regression area)."""
        machine = boot_machine(platform=Platform.KVM)
        fc = FaceChange(machine)
        fc.enable()
        fc.load_view(app_configs["top"], comm="top")
        engine = ProbeEngine(machine)
        probe = engine.arm("resume_userspace")
        handle = launch(machine, "top", APP_CATALOG["top"], scale=2,
                        seed=SEED)
        machine.run_to_exit([handle], 200_000_000_000)
        assert handle.finished
        assert probe.hits > 0
        assert fc.stats.view_switches > 0  # FACE-CHANGE still switched
        # disarm the probe first; FACE-CHANGE must stay functional
        engine.disarm("resume_userspace")
        fc.disable()  # then tear down FACE-CHANGE's own traps
        assert not machine.hypervisor.trap_consumers(probe.address)

    def test_predicate_filters_by_comm(self, app_configs):
        machine = boot_machine(platform=Platform.KVM)
        fc = FaceChange(machine)
        fc.enable()
        fc.load_view(app_configs["find_pipe"], comm="find_pipe")
        engine = ProbeEngine(machine)
        probe = engine.arm(
            "pipe_read", predicate=lambda task: task.comm == "wc"
        )
        handle = launch(
            machine, "find_pipe", APP_CATALOG["find_pipe"],
            scale=2, seed=SEED,
        )
        machine.run_to_exit([handle], 200_000_000_000)
        assert handle.finished
        assert probe.hits > 0  # the consumer child reads the pipe

    def test_unknown_symbol_rejected(self, machine):
        engine = ProbeEngine(machine)
        with pytest.raises(ProbeError):
            engine.arm("no_such_function")


class TestHeat:
    def test_heat_flags_injected_hot_unprofiled_function(self, app_configs):
        machine, sampler, _engine, _ = sampled_run(
            "find_pipe", app_configs["find_pipe"], scale=3
        )
        rows = sampler.profile.function_rows(comm="find_pipe")
        hot = next(r for r in rows if r[1] == BASE_KERNEL)
        symbol, _segment, _count, fn_start, fn_end = hot
        # inject the gap: rebuild the profile without the hot function
        config = app_configs["find_pipe"]
        injected = KernelProfile()
        for seg, ranges in config.profile.segments.items():
            for begin, end in ranges:
                if seg == BASE_KERNEL:
                    if begin < fn_start:
                        injected.add(seg, begin, min(end, fn_start))
                    if end > fn_end:
                        injected.add(seg, max(begin, fn_end), end)
                else:
                    injected.add(seg, begin, end)
        gapped = KernelViewConfig(app="find_pipe", profile=injected)
        snapshot = telemetry_snapshot(machine.telemetry)
        heat = analyze_heat(snapshot, {"find_pipe": gapped})
        flagged = {h.symbol for h in heat.hot_unprofiled}
        assert symbol in flagged
        # against the true profile the same function is NOT flagged
        clean = analyze_heat(snapshot, {"find_pipe": config})
        assert symbol not in {h.symbol for h in clean.hot_unprofiled}

    def test_fleet_merged_heat_equals_solo_heat(self, app_configs, monkeypatch):
        """Per-worker snapshots merged by telemetry/merge.py yield the
        same heat as analyzing each worker solo."""
        from repro.fleet.jobs import run_job_on_fresh_machine
        from repro.fleet.library import ProfileRecord
        from repro.fleet.spec import FleetJob

        monkeypatch.setenv("REPRO_SAMPLE_INTERVAL", "20000")
        snapshots = []
        for app, seed in (("find_pipe", 11), ("top", 22)):
            record = ProfileRecord(
                config=app_configs[app], baseline=[], guest_digest=DEFAULT_BUILD
            )
            job = FleetJob(app=app, scale=2, seed=seed, name=f"{app}#0")
            result = run_job_on_fresh_machine(job, record)
            assert result.ok
            snapshots.append(result.telemetry)
        merged = merge_snapshots(snapshots)
        configs = {
            "find_pipe": app_configs["find_pipe"],
            "top": app_configs["top"],
        }
        merged_heat = analyze_heat(merged, configs)
        solo_fp = analyze_heat(snapshots[0], {"find_pipe": configs["find_pipe"]})
        solo_top = analyze_heat(snapshots[1], {"top": configs["top"]})
        assert merged_heat.apps["find_pipe"] == solo_fp.apps["find_pipe"]
        assert merged_heat.apps["top"] == solo_top.apps["top"]
        # overhead attribution merges additively
        assert merged_heat.overhead.samples == (
            solo_fp.overhead.samples + solo_top.overhead.samples
        )

    def test_merged_profile_equals_sum_of_workers(self, app_configs,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE_INTERVAL", "20000")
        from repro.fleet.jobs import run_job_on_fresh_machine
        from repro.fleet.library import ProfileRecord
        from repro.fleet.spec import FleetJob

        record = ProfileRecord(
            config=app_configs["find_pipe"], baseline=[], guest_digest=DEFAULT_BUILD
        )
        results = [
            run_job_on_fresh_machine(
                FleetJob(app="find_pipe", scale=2, seed=seed,
                         name=f"find_pipe#{i}"),
                record,
            )
            for i, seed in enumerate((5, 5))
        ]
        workers = [SampleProfile.from_snapshot(r.telemetry) for r in results]
        # same seed -> same samples on both workers (determinism)
        assert workers[0].stacks == workers[1].stacks
        merged = SampleProfile.from_snapshot(
            merge_snapshots([r.telemetry for r in results])
        )
        expected = SampleProfile.merged(workers)
        assert merged.stacks == expected.stacks
        assert merged.functions == expected.functions
        assert merged.samples == expected.samples


class TestReportSection:
    def test_heat_section_renders(self, app_configs):
        from repro.analysis.report import generate_report

        text = generate_report(
            scale=2, sections=["heat"], configs=app_configs
        )
        assert "## Heat" in text
        assert "overhead attribution" in text
        assert "find_pipe" in text

    def test_unknown_section_raises(self, app_configs):
        from repro.analysis.report import generate_report

        with pytest.raises(ValueError, match="unknown report section"):
            generate_report(
                scale=2, sections=["heat", "bogus"], configs=app_configs
            )
