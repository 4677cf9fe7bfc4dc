"""Serve daemon end-to-end: real guests, bit-identity with the batch fleet.

The control plane is unit-tested in ``tests/unit/test_serve_daemon.py``
with fake jobs in the worker processes; here jobs really boot, fork and
run, and the headline invariant is enforced: a job submitted to the
daemon produces **exactly** the virtual-cycle score (cycles, syscalls)
that the same job produces in a ``repro fleet`` batch run.
"""

import pytest

from repro.fleet import ProfileLibrary, prepare_offline_phase, run_fleet
from repro.fleet.spec import FleetSpec
from repro.serve import ServeDaemon, TenantPolicy


@pytest.fixture(scope="module")
def library(tmp_path_factory):
    lib = ProfileLibrary(tmp_path_factory.mktemp("serve-lib"))
    prepare_offline_phase(lib, ["top", "bash"], scale=2)
    return lib


@pytest.fixture()
def daemon(library):
    d = ServeDaemon(library, min_workers=1, max_workers=2, warm_target=1)
    d.start()
    yield d
    d.shutdown(timeout=30.0)


def test_daemon_scores_bit_identical_to_batch_fleet(library):
    jobs = [
        {"app": "top"},
        {"app": "top", "attack": "Injectso"},
        {"app": "top", "guest": "qemu-tsc"},
        {"app": "bash", "attack": "KBeast"},
    ]
    spec = FleetSpec.from_dict(
        {"name": "ref", "workers": 2, "scale": 2, "jobs": jobs}
    )
    report = run_fleet(spec, library)
    assert report.failed == 0
    batch = {
        r["name"]: (r["cycles"], r["syscalls"]) for r in report.results
    }

    # two worker processes, with both guest variants pre-booted
    daemon = ServeDaemon(
        library, min_workers=2, max_workers=2, warm_target=1
    )
    daemon.start(guests=["default", "qemu-tsc"])
    try:
        assert len(daemon.stats()["workers"]["pids"]) == 2
        queued = [daemon.submit({**job, "scale": 2}) for job in jobs]
        for qjob in queued:
            done = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
            assert done is not None and done.state == "done", done.error

        # same auto-assigned names -> same derived seeds -> same scores
        assert [q.job.name for q in queued] == [j.name for j in spec.jobs]
        served = {
            q.job.name: (q.result["cycles"], q.result["syscalls"])
            for q in queued
        }
        assert served == batch

        # both attacks are detected through warm-forked clones too
        for qjob in (queued[1], queued[3]):
            assert qjob.result["detected"] is True
            assert qjob.result["evidence"]

        # jobs came off the workers' warm pools, and lifetime telemetry
        # covers all four
        pool = daemon.stats()["pool"]
        assert sum(v["hits"] + v["misses"] for v in pool.values()) == 4
        assert daemon.stats()["jobs_telemetry"]["sources"] == 4
    finally:
        daemon.shutdown(timeout=30.0)


def test_real_budget_exhaustion_aborts_mid_job(library):
    daemon = ServeDaemon(
        library,
        min_workers=1,
        max_workers=1,
        warm_target=0,
        default_policy=TenantPolicy(cycle_budget=10_000),
    )
    daemon.start()
    try:
        qjob = daemon.submit({"app": "top", "scale": 2})
        done = daemon.queue.wait_terminal(qjob.id, timeout=120.0)
        assert done.state == "failed"
        assert "budget exhausted mid-job" in done.error
        # the partial consumption was charged, pinning the tenant
        tenants = daemon.queue.describe()["tenants"]
        assert tenants["default"]["charged_cycles"] > 10_000
        assert daemon.queue.remaining_budget("default") == 0
    finally:
        daemon.shutdown(timeout=30.0)


def test_cancel_queued_job_behind_a_busy_worker(library):
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0
    )
    daemon.start()
    try:
        running = daemon.submit({"app": "top", "scale": 2})
        queued = daemon.submit({"app": "top", "scale": 2})
        assert daemon.queue.cancel(queued.id) in (
            "cancelled", "cancel-requested"
        )
        done = daemon.queue.wait_terminal(running.id, timeout=120.0)
        assert done.state == "done"
        final = daemon.queue.wait_terminal(queued.id, timeout=120.0)
        assert final.state == "cancelled"
    finally:
        daemon.shutdown(timeout=30.0)


def test_job_timeout_fails_the_job_and_the_daemon_keeps_serving(library):
    daemon = ServeDaemon(
        library, min_workers=1, max_workers=1, warm_target=0
    )
    daemon.start()
    try:
        late = daemon.submit({"app": "top", "scale": 2, "timeout": 0.001})
        done = daemon.queue.wait_terminal(late.id, timeout=120.0)
        assert done.state == "failed"
        assert done.error == "TimeoutError: job exceeded wall-clock timeout"
        after = daemon.submit({"app": "top", "scale": 2})
        done = daemon.queue.wait_terminal(after.id, timeout=120.0)
        assert done.state == "done", done.error
    finally:
        daemon.shutdown(timeout=30.0)


def test_backlog_keeps_no_journal_segments_live_watchers_get_them(daemon):
    sink, _ = daemon.subscribe()
    qjob = daemon.submit({"app": "top", "scale": 2})
    received = []
    while not any(
        e["type"] == "done" and e.get("id") == qjob.id for e in received
    ):
        received.append(sink.get(timeout=120.0))
    daemon.unsubscribe(sink)
    assert any(e["type"] == "journal" for e in received)
    kinds = {e["type"] for e in daemon._events}
    assert {"queued", "start", "done"} <= kinds
    assert "journal" not in kinds
