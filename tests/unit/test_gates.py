"""The benchmark gate runner (``benchmarks/gates.py``) on fake passes."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "gates.py"
_SPEC = importlib.util.spec_from_file_location("gates", _PATH)
gates = importlib.util.module_from_spec(_SPEC)
sys.modules["gates"] = gates
_SPEC.loader.exec_module(gates)

A = gates.Mode("a", entry=None)
B = gates.Mode("b", entry=None)
C = gates.Mode("c", entry=None)


def _passes(a, b, metric="wall_s"):
    return {
        mode: [{metric: v, "scores": {}, "checks": {}} for v in values]
        for mode, values in (("a", a), ("b", b))
    }


def _scored(a, b):
    return {
        mode: [{"scores": s, "checks": {}} for s in values]
        for mode, values in (("a", a), ("b", b))
    }


def test_median_and_iqr():
    assert gates.median_iqr([5.0, 1.0, 3.0, 4.0, 100.0]) == (4.0, 2.0)
    assert gates.median_iqr([1.0, 2.0, 3.0, 4.0]) == (2.5, 1.5)
    assert gates.median_iqr([7.0]) == (7.0, 0.0)


@pytest.mark.parametrize("top,ok", [(6.0, True), (5.99, False), (9.0, True)])
def test_at_least_ratio_is_judged_on_medians(top, ok):
    gate = gates.Ratio("speedup", "wall_s", A, B, ">=", 3.0)
    # one outlier repeat per mode moves no median
    verdict = gate.evaluate((A, B), _passes([top] * 4 + [0.1], [2.0] * 4 + [50.0]), 1)
    assert verdict.ok is ok
    assert verdict.threshold == ">= 3.0"
    assert "IQR" in verdict.detail


@pytest.mark.parametrize(
    "top,grace,ok",
    [(2.3, 0.0, True), (2.31, 0.0, False), (2.8, 0.5, True), (2.81, 0.5, False)],
)
def test_at_most_ratio_with_grace(top, grace, ok):
    gate = gates.Ratio("overhead", "wall_s", A, B, "<=", 1.15, grace_s=grace)
    verdict = gate.evaluate((A, B), _passes([top] * 3, [2.0] * 3), 1)
    assert verdict.ok is ok
    assert verdict.value == round(top / 2.0, 4)


def test_ratio_outside_its_scales_does_not_apply():
    gate = gates.Ratio("speedup", "wall_s", A, B, ">=", 2.0, scales=(2,))
    assert gate.evaluate((A, B), _passes([1.0], [1.0]), 1).ok is None
    assert gate.evaluate((A, B), _passes([1.0], [1.0]), 2).ok is False


def test_identical_names_the_mismatching_key():
    same = {"x": 1.5, "y": [3, 4]}
    gate = gates.Identical()
    assert gate.evaluate((A, B), _scored([same, same], [same]), 1).ok is True
    verdict = gate.evaluate(
        (A, B), _scored([same, same], [same, {"x": 1.5, "y": [3, 5]}]), 1
    )
    assert verdict.ok is False
    assert verdict.detail == "y: b#1 [3, 5] != [3, 4]"
    missing = gate.evaluate((A, B), _scored([same], [{"x": 1.5}]), 1)
    assert missing.detail == "y: b#0 None != [3, 4]"


@pytest.mark.parametrize("got,ok", [(101.9, True), (98.1, True), (98.0, False)])
def test_drift_is_strictly_below_its_limit(got, ok):
    verdict = gates.Drift(0.02).evaluate(
        (A, B), _scored([{"x": 100.0}], [{"x": got}]), 1
    )
    assert verdict.ok is ok
    assert verdict.detail == "x in b#0"


def test_holds_names_the_failing_pass():
    passes = _passes([1.0, 1.0], [1.0])
    for runs in passes.values():
        for run in runs:
            run["checks"]["alert cycles"] = ""
    gate = gates.Holds("alert cycles")
    assert gate.evaluate((A, B), passes, 1).ok is True
    passes["a"][1]["checks"]["alert cycles"] = "never fired"
    verdict = gate.evaluate((A, B), passes, 1)
    assert verdict.ok is False and verdict.detail == "a#1: never fired"
    assert gates.Holds("alert cycles", (B,)).evaluate((A, B), passes, 1).ok


def _recording_session(tmp_path, calls):
    def record(mode, kwargs, cwd):
        calls.append(mode.name)
        return {"wall_s": 1.0, "scores": {}, "checks": {}}

    return gates.Session(1, tmp_path, run_pass=record)


@pytest.mark.parametrize("reverse", [False, True])
def test_first_mode_alternates_and_shared_passes_run_once(tmp_path, reverse):
    calls = []
    workload = gates.Workload("w")
    scenarios = [
        gates.Scenario("one", workload, (A, B)),
        gates.Scenario("two", workload, (A, C)),
    ]
    session = _recording_session(tmp_path, calls)
    gates.run(scenarios, session, reverse=reverse)
    rounds = [calls[i:i + 3] for i in range(0, len(calls), 3)]
    assert len(rounds) == gates.REPEATS == 5
    forward, backward = ["a", "b", "c"], ["b", "a", "c"]
    expected = [backward, forward] if reverse else [forward, backward]
    assert rounds == [expected[r % 2] for r in range(5)]
    assert {key: len(runs) for key, runs in session.passes.items()} == {
        ("w", "a"): 5, ("w", "b"): 5, ("w", "c"): 5,
    }


_FAKE_PASS = '''
_warm = False


def timed(scale, cost):
    """Costs ``cost`` cold and half of it once this interpreter has run
    it before, like a process-wide translation cache."""
    global _warm
    wall = cost / 2 if _warm else cost
    _warm = True
    return {"wall_s": wall, "scores": {"x": scale}, "checks": {}}
'''


def test_a_warm_second_pass_does_not_decide_the_verdict(
    tmp_path, monkeypatch
):
    (tmp_path / "fake_pass.py").write_text(_FAKE_PASS)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setattr(gates, "REPEATS", 1)
    import fake_pass

    off = gates.Mode("off", fake_pass.timed, args={"cost": 1.0})
    on = gates.Mode("on", fake_pass.timed, args={"cost": 1.1})
    gate = gates.Ratio("overhead", "wall_s", on, off, "<=", 1.15)
    scenario = gates.Scenario("fake", gates.Workload("w"), (off, on), (gate,))

    # both modes in one interpreter: the order decides the verdict
    shared = {}
    for first, second in ((off, on), (on, off)):
        fake_pass._warm = False
        runs = {m.name: [m.entry(1, **m.args)] for m in (first, second)}
        shared[first.name] = gate.evaluate((off, on), runs, 1).ok
    assert shared == {"off": True, "on": False}

    # one fresh interpreter per pass: the same verdict either way
    verdicts = []
    for reverse in (False, True):
        session = gates.Session(1, tmp_path / f"s{reverse}")
        session.workdir.mkdir()
        result = gates.run([scenario], session, reverse=reverse)["fake"]
        verdicts.append([(g["name"], g["ok"], g["value"]) for g in result["gates"]])
    assert verdicts[0] == verdicts[1] == [("overhead", True, 1.1)]


def test_a_failing_gate_exits_non_zero_naming_gate_and_scenario(
    tmp_path, monkeypatch, capsys
):
    off = gates.Mode("off", entry=None, args={"cost": 1.0})
    on = gates.Mode("on", entry=None, args={"cost": 2.0})
    scenario = gates.Scenario("fake", gates.Workload("w"), (off, on), (
        gates.Identical(),
        gates.Ratio("wall overhead", "wall_s", on, off, "<=", 1.15),
    ))
    monkeypatch.setattr(gates, "SCENARIOS", {"fake": scenario})
    monkeypatch.setattr(gates, "OUTPUT", tmp_path / "BENCH_gates.json")
    monkeypatch.setattr(
        gates, "fresh",
        lambda fn, kwargs, env, cwd: {
            "wall_s": kwargs["cost"], "scores": {"x": 1}, "checks": {},
        },
    )
    assert gates.main(["fake"]) == 1
    out = capsys.readouterr().out
    assert "FAIL fake: wall overhead" in out
    assert "FAIL fake: scores identical" not in out
    report = gates.json.loads((tmp_path / "BENCH_gates.json").read_text())
    assert report["schema"] == gates.SCHEMA
    assert [g["name"] for g in report["scenarios"]["fake"]["gates"]] == [
        "scores identical", "wall overhead",
    ]
    assert report["scenarios"]["fake"]["gates"][1]["threshold"] == "<= 1.15"
