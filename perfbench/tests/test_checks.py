import os
import threading
import time
from pathlib import Path

import pytest

import run
import serve_load


class FixedReferences(serve_load.References):
    def score(self, library, spec):
        return (True, 1000, 10)


def _record(cycles, syscalls, error=""):
    spec = serve_load.JobSpec(serve_load.Entry("top"), seed=7)
    record = serve_load.JobRecord(spec=spec, name="s0-0000-top", error=error)
    record.result = {"ok": True, "cycles": cycles, "syscalls": syscalls}
    return record


def test_mismatched_job_score_counts_as_failed():
    refs = FixedReferences(scale=1)
    assert refs.check(Path("lib"), _record(1000, 10)) == ""
    problems = [
        refs.check(Path("lib"), _record(1001, 10)),
        refs.check(Path("lib"), _record(1000, 10, error="SubmissionRejected: queue-full")),
    ]
    assert all(problems)
    result = run.finish(attempted=3, failures=[p for p in problems if p], metrics={}, probes=[])
    assert result == {"correct": False, "attempted": 3, "failed": 2, "metrics": {}}


def _session(good, errored):
    """A finished fake session: ``good`` matching jobs, then ``errored``
    rejected ones, over ten measured seconds."""
    session = serve_load.Session(workdir=Path("lib"))
    session.ready_ns = 2_000_000_000
    session.end_ns = 10_000_000_000
    session.peak_rss_kb = 81920
    for i in range(good):
        record = _record(1000, 10)
        record.latency_s = 0.05 + i / 1000.0
        session.jobs.append(record)
    session.jobs += [_record(0, 0, error="SubmissionRejected: queue-full") for _ in range(errored)]
    return session


def test_errored_jobs_are_counted_and_the_result_still_prints():
    sessions = [_session(good=25, errored=3), _session(good=20, errored=2)]
    attempted, failures = run.check_jobs(sessions, FixedReferences(scale=1))
    assert (attempted, len(failures)) == (50, 5)
    # 45 good jobs are too few for a p90 with ten samples beyond it
    values = run.serve_metrics(sessions, job_set=16, failures=failures)
    assert len(failures) == 6 and failures[-1].startswith("latency: p90 of 45 samples")
    result = run.finish(attempted, failures, run.metric_block(values, run.END_TO_END), probes=[])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 50, 6)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["jobs_per_s"]["value"] == pytest.approx(45 / 20.0)
    # 50..69 ms twice, 70..74 ms once: rank 23 of 45 is 61 ms
    assert result["metrics"]["latency_p50_ms"]["value"] == pytest.approx(61)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(2.0)


class FakeClient:
    """Accepts every job and finishes it at once."""

    def __init__(self, fail_on=None):
        self.lock = threading.Lock()
        self.names = []
        self.fail_on = fail_on

    def submit(self, app, scale, attack, guest, name, seed):
        with self.lock:
            self.names.append(name)
            if len(self.names) == self.fail_on:
                raise RuntimeError("connection lost")
        return {"id": name}

    def result(self, job_id, wait, timeout):
        time.sleep(0.001)
        job = {"state": "done", "submitted_at": 0.0, "started_at": 0.0, "finished_at": 0.0}
        return {"job": job, "result": {"ok": True, "cycles": 1, "syscalls": 1}}


def test_closed_loop_callers_share_one_job_sequence():
    mix = serve_load.MIXES["serve-throughput"]
    specs = serve_load.job_specs(mix, 3)
    client = FakeClient()
    records, peak_rss_kb = serve_load._closed_loop(
        client, mix, serve_load.job_sequence(specs, 3), 0.0, 0, "t", os.getpid()
    )
    # no time asked for: the callers stop once the RSS job count is reached
    assert serve_load.RSS_JOBS <= len(records) < serve_load.RSS_JOBS + mix.callers
    assert sorted(r.name for r in records) == sorted(client.names)
    assert len(set(client.names)) == len(client.names) and peak_rss_kb > 0
    expected = serve_load.job_sequence(specs, 3)
    issued = sorted(records, key=lambda r: r.name)
    assert [r.spec for r in issued] == [next(expected) for _ in issued]


def test_a_caller_that_crashes_fails_the_session():
    mix = serve_load.MIXES["serve-throughput"]
    specs = serve_load.job_specs(mix, 3)
    with pytest.raises(RuntimeError, match="connection lost"):
        serve_load._closed_loop(
            FakeClient(fail_on=5), mix, serve_load.job_sequence(specs, 3), 0.0, 0, "t", os.getpid()
        )


def test_job_specs_follow_the_seed():
    mix = serve_load.MIXES["serve-latency"]
    assert serve_load.job_specs(mix, 1) == serve_load.job_specs(mix, 1)
    assert serve_load.job_specs(mix, 1) != serve_load.job_specs(mix, 2)
    specs = serve_load.job_specs(mix, 1)
    assert len(specs) == len(mix.entries) * serve_load.SEEDS_PER_ENTRY
    first = serve_load.job_sequence(specs, 1)
    again = serve_load.job_sequence(specs, 1)
    assert [next(first) for _ in range(40)] == [next(again) for _ in range(40)]


def test_every_run_reports_every_declared_metric():
    import json

    root = Path(__file__).resolve().parents[2]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.per_layer_names()
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
