"""One run path: ``Machine.run_to_exit`` and the one enforced run.

``run_to_exit`` is the only loop that runs a workload to its exit, and
:func:`repro.fleet.jobs.run_under_view` the only enforced run, so Table
II and a fleet job must reach the same verdict on the same attack.
"""

import pytest

from repro.analysis.detection import evaluate_attack
from repro.fleet.jobs import JobAborted, profile_app_offline, run_job_on_fresh_machine
from repro.fleet.spec import DEFAULT_SEED, FleetJob
from repro.guest.machine import RUN_SLICE, boot_machine
from repro.kernel.objects import Compute
from repro.malware import ALL_ATTACKS

#: a budget several slices long, far short of the spinner's end
BUDGET = 2_000_000


def _spinner():
    while True:
        yield Compute(100_000)


def _short():
    for _ in range(20):
        yield Compute(50_000)


def test_a_spinning_task_outlives_the_budget():
    machine = boot_machine()
    task = machine.spawn("spin", _spinner)
    assert machine.run_to_exit([task], BUDGET) is False
    assert not task.finished
    assert machine.cycles >= BUDGET


def test_the_budget_counts_from_the_current_cycle():
    machine = boot_machine()
    machine.run(max_cycles=5 * BUDGET, step_budget=RUN_SLICE)
    start = machine.cycles
    assert start >= 5 * BUDGET
    task = machine.spawn("spin", _spinner)
    assert machine.run_to_exit([task], BUDGET) is False
    # an absolute bound of BUDGET would have stopped before any slice
    assert machine.cycles >= start + BUDGET


def test_progress_runs_before_every_exit_check_the_last_included():
    machine = boot_machine()
    task = machine.spawn("short", _short)
    seen = []
    assert machine.run_to_exit(
        [task], BUDGET * 10, lambda: seen.append((machine.cycles, task.finished))
    )
    # the first check precedes any guest instruction, the last sees the exit
    assert seen[0] == (0, False)
    assert seen[-1][1] is True
    assert all(not finished for _cycles, finished in seen[:-1])
    assert len(seen) >= 2


def test_an_abort_raised_from_progress_propagates():
    machine = boot_machine()
    task = machine.spawn("spin", _spinner)
    calls = []

    def progress():
        calls.append(machine.cycles)
        if len(calls) == 3:
            raise JobAborted("cancelled", machine.cycles)

    with pytest.raises(JobAborted) as aborted:
        machine.run_to_exit([task], BUDGET * 100, progress)
    assert aborted.value.reason == "cancelled"
    assert len(calls) == 3
    assert not task.finished


def test_table_two_and_a_fleet_job_share_one_verdict():
    """evaluate_attack and execute_job reach the same evidence on the
    same attack, baseline and seed."""
    injectso = next(a for a in ALL_ATTACKS if a.name == "Injectso")
    record = profile_app_offline("top", scale=1)
    table = evaluate_attack(injectso, {"top": record.config}, scale=1)
    job = run_job_on_fresh_machine(
        FleetJob(app="top", scale=1, attack="Injectso", seed=DEFAULT_SEED),
        record,
    )
    assert job.ok
    assert table.evidence == job.evidence
    assert table.evidence
    assert table.detected_per_app is job.detected is True
