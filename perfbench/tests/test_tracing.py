import threading

import tracing


def add(log, name, start, end, parent=-1):
    """Append one span to ``log``; returns its index."""
    for column, value in zip((log.name, log.parent, log.rid, log.start, log.end), (name, parent, 0, start, end)):
        column.append(value)
    return len(log.start) - 1


def test_self_time_subtracts_direct_children_per_thread():
    names = ["outer", "inner", "leaf"]
    a = tracing.ThreadLog("a")
    outer = add(a, 0, 0, 100)
    inner = add(a, 1, 10, 60, parent=outer)
    add(a, 2, 20, 30, parent=inner)
    add(a, 2, 40, 45, parent=inner)
    add(a, 1, 70, 80, parent=outer)
    b = tracing.ThreadLog("b")
    # same names on another thread, overlapping a's spans in time
    root = add(b, 0, 5, 55)
    add(b, 2, 10, 50, parent=root)
    # an open span (end 0) and its open parent contribute nothing
    open_parent = add(b, 1, 60, 0)
    add(b, 2, 61, 0, parent=open_parent)

    totals = tracing.self_times(names, [a, b])
    assert totals.n == {"outer": 2, "inner": 2, "leaf": 3}
    assert totals.self_ns == {
        "outer": (100 - 50 - 10) + (50 - 40),
        "inner": (50 - 10 - 5) + 10,
        "leaf": 10 + 5 + 40,
    }
    only_b = tracing.self_times(names, [a, b], threads=lambda t: t == "b")
    assert only_b.self_ns == {"outer": 10, "leaf": 40}
    # selection by start time keeps each selected span's self time
    late = tracing.self_times(names, [a, b], window=(15, 100))
    assert late.self_ns == {"inner": 10, "leaf": 10 + 5}


def test_wrappers_record_nesting_per_thread_and_request_ids():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def outer(n):
        return sum(traced_leaf() for _ in range(n))

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_outer = tracer.wrap("outer", outer)

    def worker(n):
        tracer.log().current_rid = tracer.rid_id(f"job-{n}")
        assert traced_outer(n) == n

    threads = [threading.Thread(target=worker, args=(n,), name=f"w{n}") for n in (1, 2, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    by_thread = {log.thread: log for log in tracer.logs}
    assert sorted(by_thread) == ["w1", "w2", "w3"]
    for n in (1, 2, 3):
        log = by_thread[f"w{n}"]
        assert len(log.start) == n + 1
        assert list(log.parent) == [-1] + [0] * n
        assert set(log.rid) == {tracer.rids.index(f"job-{n}")}
        assert all(e >= s > 0 for s, e in zip(log.start, log.end))
    totals = tracing.self_times(tracer.names, tracer.logs)
    assert totals.n == {"outer": 3, "leaf": 6}
    wall = sum(log.end[0] - log.start[0] for log in tracer.logs)
    assert sum(totals.self_ns.values()) == wall


def test_dump_round_trip(tmp_path):
    tracer = tracing.Tracer()
    traced = tracer.wrap("f", lambda: None)
    traced()
    traced()
    path = tmp_path / "spans"
    tracer.dump(str(path))
    dump = tracing.load(str(path))
    assert dump.names == ["f"]
    assert [log.thread for log in dump.logs] == [threading.current_thread().name]
    assert list(dump.logs[0].end) == list(tracer.logs[0].end)


def test_install_wraps_every_listed_entry_point_and_uninstall_restores():
    import repro.hypervisor.vcpu as vcpu
    import repro.fleet.snapshot as snapshot

    run = vcpu.Vcpu.run
    decode = vcpu.decode
    capture = snapshot.MachineSnapshot.__dict__["capture"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vcpu.Vcpu.run is not run
        assert vcpu.decode.__wrapped__ is decode
        assert isinstance(snapshot.MachineSnapshot.__dict__["capture"], classmethod)
        assert len(tracer._patches) == len(tracing.WRAPS) + 2
    finally:
        tracer.uninstall()
    assert vcpu.Vcpu.run is run
    assert vcpu.decode is decode
    assert snapshot.MachineSnapshot.__dict__["capture"] is capture
