"""Fleet spec validation, worker counts, crash isolation, determinism."""

import os
import re
import signal

import pytest

from repro.fleet import (
    FleetSpec,
    FleetSpecError,
    ProfileLibrary,
    prepare_offline_phase,
    run_fleet,
)
from repro.fleet.jobs import execute_job
from repro.fleet.spec import FleetJob, derive_seed, uniform_spec
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform
from repro.telemetry.merge import merge_snapshots


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_from_dict_assigns_unique_job_names():
    spec = FleetSpec.from_dict(
        {"jobs": [{"app": "top"}, {"app": "top"}, {"app": "gzip"}]}
    )
    assert [j.name for j in spec.jobs] == ["top#0", "top#1", "gzip#0"]


def test_spec_rejects_unknown_app():
    with pytest.raises(FleetSpecError, match="unknown application"):
        FleetSpec.from_dict({"jobs": [{"app": "nosuch"}]})


def test_spec_rejects_unknown_attack():
    with pytest.raises(FleetSpecError, match="unknown malware"):
        FleetSpec.from_dict({"jobs": [{"app": "top", "attack": "nosuch"}]})


def test_spec_rejects_attack_host_mismatch():
    with pytest.raises(FleetSpecError, match="infects"):
        FleetSpec.from_dict({"jobs": [{"app": "gzip", "attack": "Injectso"}]})


def test_spec_rejects_empty_jobs_and_bad_keys():
    with pytest.raises(FleetSpecError, match="non-empty"):
        FleetSpec.from_dict({"jobs": []})
    with pytest.raises(FleetSpecError, match="unknown spec keys"):
        FleetSpec.from_dict({"jobs": [{"app": "top"}], "bogus": 1})
    with pytest.raises(FleetSpecError, match="unknown keys"):
        FleetSpec.from_dict({"jobs": [{"app": "top", "bogus": 1}]})


def test_spec_json_round_trip(tmp_path):
    spec = FleetSpec.from_dict(
        {"name": "rt", "workers": 3, "seed": 99,
         "jobs": [{"app": "top", "scale": 5}]}
    )
    path = tmp_path / "spec.json"
    import json

    path.write_text(json.dumps(spec.to_dict()))
    loaded = FleetSpec.load(path)
    assert loaded.name == "rt"
    assert loaded.workers == 3
    assert loaded.seed == 99
    assert loaded.jobs[0].scale == 5


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(1, "top#0") == derive_seed(1, "top#0")
    assert derive_seed(1, "top#0") != derive_seed(1, "top#1")
    assert derive_seed(1, "top#0") != derive_seed(2, "top#0")
    spec = FleetSpec.from_dict({"jobs": [{"app": "top", "seed": 42}]})
    assert spec.jobs[0].effective_seed(spec.seed) == 42


# ---------------------------------------------------------------------------
# runner (shared library fixture keeps this fast)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    lib = ProfileLibrary(tmp_path_factory.mktemp("fleet-lib"))
    prepare_offline_phase(lib, ["top", "gzip"], scale=2)
    return lib


def test_one_and_two_worker_runs_agree(library):
    one = run_fleet(uniform_spec(["top", "gzip"], scale=2, workers=1), library)
    two = run_fleet(uniform_spec(["top", "gzip"], scale=2, workers=2), library)
    assert one.mode == two.mode == "processes"
    assert one.failed == two.failed == 0
    one_scores = {r["name"]: (r["cycles"], r["syscalls"]) for r in one.results}
    two_scores = {r["name"]: (r["cycles"], r["syscalls"]) for r in two.results}
    assert one_scores == two_scores


def test_same_job_twice_has_identical_telemetry(library):
    """Fleet-determinism regression: one job run twice, telemetry diffed."""
    snapshot = boot_machine(platform=Platform.KVM).snapshot()
    job = FleetJob(app="top", scale=2, name="top#0")
    record = library.get("top")
    first = execute_job(snapshot.fork(), job, record)
    second = execute_job(snapshot.fork(), job, record)
    assert first.score == second.score
    assert first.telemetry["counters"] == second.telemetry["counters"]
    assert first.telemetry["labelled_counters"] == second.telemetry["labelled_counters"]
    assert first.telemetry["histograms"] == second.telemetry["histograms"]


def test_worker_crash_fails_job_not_fleet(library, monkeypatch):
    import repro.serve.daemon as daemon_mod

    real_execute = daemon_mod.execute_job

    def exploding(machine, job, record, base_seed=0, progress=None):
        if job.app == "gzip":
            raise RuntimeError("simulated guest crash")
        return real_execute(
            machine, job, record, base_seed=base_seed, progress=progress
        )

    monkeypatch.setattr(daemon_mod, "execute_job", exploding)
    spec = uniform_spec(["top", "gzip"], scale=2, workers=2)
    report = run_fleet(spec, library)
    by_name = {r["name"]: r for r in report.results}
    assert by_name["top#0"]["ok"]
    assert not by_name["gzip#0"]["ok"]
    assert "simulated guest crash" in by_name["gzip#0"]["error"]
    assert report.failed == 1


def test_missing_profile_is_a_library_error(library):
    from repro.fleet import ProfileLibraryError

    spec = uniform_spec(["bash"], scale=1, workers=1)
    with pytest.raises(ProfileLibraryError, match="bash"):
        run_fleet(spec, library)


def test_report_merges_fleet_telemetry(library):
    spec = uniform_spec(["top"], scale=2, workers=1, repeat=2)
    report = run_fleet(spec, library)
    snapshot = boot_machine().snapshot()
    singles = [
        execute_job(snapshot.fork(), job, library.get("top")).telemetry
        for job in spec.jobs
    ]
    merged = report.telemetry
    assert merged["sources"] == 2
    # two identical guests: merged counters are exactly double
    for name, value in singles[0]["counters"].items():
        assert merged["counters"][name] == 2 * value
    # the session's merge is the batch merge of the same jobs
    expected = merge_snapshots(singles)
    for key in ("counters", "labelled_counters", "histograms", "sources"):
        assert merged[key] == expected[key], key
    summary = report.format_summary()
    assert "2/2 jobs completed" in summary


def test_exhausted_cycle_budget_fails_job(library):
    spec = FleetSpec(
        jobs=[FleetJob(app="top", scale=2, max_cycles=1_000)], workers=1
    )
    report = run_fleet(spec, library)
    assert report.failed == 1
    assert "budget" in report.results[0]["error"]


def test_sigkilled_worker_fails_only_its_job(library, monkeypatch):
    """A worker SIGKILLed mid-job fails that job alone, with an error
    naming its pid and signal; the fleet still returns, and leaves no
    spawner or worker process behind."""
    import repro.serve.daemon as daemon_mod
    import repro.serve.worker as worker_mod

    pids = []
    real_init, real_spawn = worker_mod.Spawner.__init__, worker_mod.Spawner.spawn

    def init(self, worker_main):
        real_init(self, worker_main)
        pids.append(self.pid)

    def spawn(self, slot):
        worker = real_spawn(self, slot)
        pids.append(worker.pid)
        return worker

    real_execute = daemon_mod.execute_job

    def dying(machine, job, record, base_seed=0, progress=None):
        def fatal(m, fc):
            progress(m, fc)
            if job.app == "gzip":
                os.kill(os.getpid(), signal.SIGKILL)

        return real_execute(machine, job, record, base_seed=base_seed, progress=fatal)

    monkeypatch.setattr(worker_mod.Spawner, "__init__", init)
    monkeypatch.setattr(worker_mod.Spawner, "spawn", spawn)
    monkeypatch.setattr(daemon_mod, "execute_job", dying)
    spec = uniform_spec(["top", "gzip"], scale=2, workers=2)
    report = run_fleet(spec, library)
    by_name = {r["name"]: r for r in report.results}
    assert by_name["top#0"]["ok"], by_name["top#0"]["error"]
    assert not by_name["gzip#0"]["ok"]
    match = re.fullmatch(
        r"WorkerCrashed: worker pid (\d+) was killed by SIGKILL "
        r"while running the job",
        by_name["gzip#0"]["error"],
    )
    assert match and int(match.group(1)) in pids[1:]
    assert report.failed == 1
    # the spawner, both workers, and the crashed one's replacement
    # unless the drain began first
    assert len(pids) >= 3
    assert [pid for pid in pids if os.path.exists(f"/proc/{pid}")] == []
