"""Live fleet view: state machine, drift detection, stall reporting."""

from repro.obs import LiveFleetView


def _heartbeat(name, recoveries, verdicts=None, cycles=0):
    return {
        "type": "heartbeat",
        "job": name,
        "cycles": cycles,
        "recoveries": recoveries,
        "verdicts": verdicts or {},
    }


def test_lifecycle_state_transitions():
    view = LiveFleetView()
    view.expect("top#0", app="top")
    assert view.jobs["top#0"].state == "pending"
    notices = view.update({"type": "start", "job": "top#0", "app": "top"}, now=1.0)
    assert notices == ["[fleet] top#0: started"]
    assert view.jobs["top#0"].state == "running"
    view.update(_heartbeat("top#0", 2, cycles=500), now=2.0)
    assert view.jobs["top#0"].cycles == 500
    notices = view.update(
        {"type": "done", "job": "top#0", "ok": True, "cycles": 900}, now=3.0
    )
    assert notices == ["[fleet] top#0: done"]
    status = view.jobs["top#0"]
    assert status.state == "done" and status.cycles == 900


def test_failed_job_keeps_first_error_line():
    view = LiveFleetView()
    view.update(
        {"type": "done", "job": "gzip#0", "ok": False,
         "error": "boom\ntraceback..."},
        now=1.0,
    )
    status = view.jobs["gzip#0"]
    assert status.state == "failed"
    assert view.notices[-1] == "[fleet] gzip#0: FAILED boom"


def test_drift_flagged_once_and_only_past_threshold():
    view = LiveFleetView(baselines={"gzip#0": 5}, drift_factor=2.0, drift_margin=3)
    view.expect("gzip#0", app="gzip")
    # threshold = 2*5+3 = 13; at the threshold is still fine
    assert view.update(_heartbeat("gzip#0", 13), now=1.0) == []
    notices = view.update(_heartbeat("gzip#0", 14), now=2.0)
    assert len(notices) == 1
    assert "PROFILE DRIFT" in notices[0]
    assert "re-profile gzip" in notices[0]
    assert view.drifting() == ["gzip#0"]
    # flagged exactly once, even as the count keeps growing
    assert view.update(_heartbeat("gzip#0", 50), now=3.0) == []


def test_captured_attacks_do_not_count_toward_drift():
    view = LiveFleetView(baselines={"bash#0": 0}, drift_factor=2.0, drift_margin=3)
    msg = _heartbeat(
        "bash#0", 20, verdicts={"captured-attack": 18, "anomalous": 2}
    )
    assert view.update(msg, now=1.0) == []
    assert view.jobs["bash#0"].non_attack_recoveries == 2
    assert view.drifting() == []


def test_no_baseline_means_no_drift_check():
    view = LiveFleetView(baselines={})
    assert view.update(_heartbeat("top#0", 10_000), now=1.0) == []
    assert view.drifting() == []


def test_journal_segments_accumulate():
    view = LiveFleetView()
    view.update(
        {"type": "journal", "job": "top#0",
         "records": [{"seq": 1}, {"seq": 3}], "dropped": 1},
        now=1.0,
    )
    view.update(
        {"type": "journal", "job": "top#0", "records": [{"seq": 4}],
         "dropped": 0},
        now=2.0,
    )
    status = view.jobs["top#0"]
    assert status.journal_records == 3
    assert status.journal_dropped == 1
    assert "dropped=1" in view.render(now=2.0)


def test_stall_detection_only_for_running_jobs():
    view = LiveFleetView(stall_after=5.0)
    view.update({"type": "start", "job": "slow#0"}, now=0.0)
    view.update({"type": "start", "job": "fast#0"}, now=0.0)
    view.update({"type": "done", "job": "fast#0", "ok": True}, now=1.0)
    assert view.stalled(now=6.0) == ["slow#0"]
    rendered = view.render(now=6.0)
    slow_line = next(ln for ln in rendered.splitlines() if "slow#0" in ln)
    assert "STALLED" in slow_line
    fast_line = next(ln for ln in rendered.splitlines() if "fast#0" in ln)
    assert "STALLED" not in fast_line


def test_render_lists_every_expected_job():
    view = LiveFleetView()
    view.expect("a#0", app="top")
    view.expect("b#0", app="gzip")
    rendered = view.render(now=0.0)
    assert "a#0" in rendered and "b#0" in rendered
    assert "pending" in rendered


# ---------------------------------------------------------------------------
# serve-daemon event folding (repro ctl watch)
# ---------------------------------------------------------------------------


def test_queued_event_registers_pending_job():
    view = LiveFleetView()
    notices = view.update(
        {"type": "queued", "id": "job-0001", "job": "top#0", "app": "top"},
        now=1.0,
    )
    assert notices == ["[fleet] top#0: queued"]
    assert view.jobs["top#0"].state == "pending"


def test_cancelled_event_is_terminal_with_note():
    view = LiveFleetView()
    view.update({"type": "queued", "job": "top#0", "app": "top"}, now=0.0)
    notices = view.update(
        {"type": "cancelled", "job": "top#0",
         "error": "cancelled while queued"},
        now=1.0,
    )
    assert notices == ["[fleet] top#0: CANCELLED"]
    status = view.jobs["top#0"]
    assert status.state == "cancelled"
    assert status.note == "cancelled while queued"


def test_rejected_event_creates_no_job_row():
    view = LiveFleetView()
    notices = view.update(
        {"type": "rejected", "app": "top", "tenant": "acme",
         "reason": "queue-full", "error": "queue is full (64 queued)"},
        now=1.0,
    )
    assert len(notices) == 1
    assert "rejected (queue-full)" in notices[0]
    assert view.jobs == {}


def test_rejected_tallies_surface_in_watch_footer():
    view = LiveFleetView()
    for _ in range(2):
        view.update(
            {"type": "rejected", "app": "top", "tenant": "acme",
             "reason": "queue-full", "error": "queue is full"},
            now=1.0,
        )
    view.update(
        {"type": "rejected", "app": "top", "tenant": "acme",
         "reason": "tenant-budget", "error": "budget exhausted"},
        now=2.0,
    )
    assert view.rejections == {"queue-full": 2, "tenant-budget": 1}
    rendered = view.render(now=3.0)
    assert "rejected: queue-full=2, tenant-budget=1" in rendered


def test_watch_dropped_events_accumulate_and_render():
    view = LiveFleetView()
    notices = view.update({"type": "watch-dropped", "dropped": 5}, now=1.0)
    assert notices == [
        "[serve] watch stream dropped 5 event(s) (consumer fell behind)"
    ]
    view.update({"type": "watch-dropped", "dropped": 2}, now=2.0)
    assert view.watch_dropped == 7
    assert "watch events dropped: 7" in view.render(now=3.0)


def test_alert_events_fire_and_resolve_in_view():
    view = LiveFleetView()
    notices = view.update(
        {"type": "alert", "rule": "queue-saturation", "label": "",
         "state": "firing", "value": 1.0, "threshold": 0.8,
         "description": "queue saturated"},
        now=1.0,
    )
    assert notices == [
        "[serve] ALERT firing: queue-saturation -- queue saturated"
    ]
    assert "alerts firing: queue-saturation" in view.render(now=2.0)
    notices = view.update(
        {"type": "alert", "rule": "queue-saturation", "label": "",
         "state": "resolved", "value": 0.0, "threshold": 0.8},
        now=3.0,
    )
    assert notices == ["[serve] alert resolved: queue-saturation"]
    assert "alerts firing" not in view.render(now=4.0)


def test_footer_absent_without_service_state():
    view = LiveFleetView()
    view.expect("a#0", app="top")
    rendered = view.render(now=0.0)
    assert "rejected:" not in rendered
    assert "alerts firing" not in rendered
    assert "watch events dropped" not in rendered


def test_serve_lifecycle_events_are_notices_only():
    view = LiveFleetView()
    started = view.update(
        {"type": "serve-started", "pid": 42, "variants": ["a", "b"]}, now=0.0
    )
    assert started == ["[serve] started (2 warm variant(s))"]
    scaled = view.update({"type": "scaled", "workers": 3, "pressure": 7}, now=1.0)
    assert scaled == ["[serve] scaled workers to 3 (pressure 7)"]
    stopped = view.update({"type": "serve-stopped", "drained": True}, now=2.0)
    assert stopped == ["[serve] stopped"]
    assert view.jobs == {}


def test_spawner_exit_is_a_notice_not_a_job_row():
    view = LiveFleetView()
    notices = view.update({"type": "serve-spawner-exited", "pid": 42}, now=0.0)
    assert notices == [
        "[serve] worker spawner pid 42 exited: no worker process can be "
        "added or replaced"
    ]
    assert view.jobs == {}



def test_unknown_event_adds_no_job_row():
    view = LiveFleetView()
    view.expect("top#0", app="top")
    before = view.render(now=0.0)
    assert view.update({"type": "some-new-daemon-event", "pid": 1}) == []
    assert list(view.jobs) == ["top#0"]
    assert view.render(now=0.0) == before

# ---------------------------------------------------------------------------
# the ctl top frame (pure formatter over the metrics op response)
# ---------------------------------------------------------------------------


def test_render_service_top_full_frame():
    from repro.obs import render_service_top

    frame = render_service_top({
        "pid": 42,
        "uptime_seconds": 12.7,
        "samples": 13,
        "interval": 1.0,
        "queue": {"depth": 2.0, "running": 1.0, "utilization": 0.5},
        "workers": {"alive": 2.0, "desired": 2.0, "utilization": 0.5},
        "pool": {"hit_ratio": 0.75, "variants": {"default": {"warm": 2.0}}},
        "throughput": {"finished_total": 9.0, "finished_per_min": 4.5},
        "tenants": {
            "acme": {
                "in_flight": 1.0,
                "charged_cycles": 123456.0,
                "budget_remaining_ratio": 0.4,
                "rejected": 2.0,
                "queue_wait": {"count": 3, "p50": 0.1, "p95": 0.2,
                               "p99": 0.2, "mean": 0.1},
                "latency": {"count": 3, "p50": 1.0, "p95": 2.0, "p99": 2.5,
                            "mean": 1.2},
                "slo": {"target_seconds": 2.0, "met": 2, "missed": 1,
                        "compliance": 2 / 3},
            }
        },
        "alerts": {
            "active": [
                {"rule": "queue-saturation", "label": "", "since": 10.0,
                 "value": 1.0}
            ],
            "transitions": 1,
        },
    })
    assert "repro serve  pid 42  up 13s  samples 13 @ 1s" in frame
    assert "queue   depth 2  running 1  utilization 50%" in frame
    assert "default: 2 warm" in frame
    assert "rate 4.5/min" in frame
    acme = next(ln for ln in frame.splitlines() if ln.startswith("acme"))
    assert "123456" in acme and "67%" in acme and "40%" in acme
    assert "FIRING queue-saturation  value 1" in frame


def test_render_service_top_empty_daemon():
    from repro.obs import render_service_top

    frame = render_service_top({
        "pid": 1, "samples": 0, "interval": 1.0,
        "queue": {}, "workers": {}, "pool": {}, "throughput": {},
        "tenants": {}, "alerts": {"active": [], "transitions": 0},
    })
    assert "alerts: none firing" in frame
    assert "depth -" in frame  # no samples yet: dashes, not crashes
