"""Forensic flight recorder end-to-end: a captured attack, replayed.

The acceptance path: record a KBeast infection (the hidden-module
rootkit whose backtraces carry UNKNOWN frames), then prove the journal
file reconstructs the *same* span trees as the live in-memory records
and that ``repro forensics`` renders at least one full
exit -> backtrace -> provenance -> recovery chain from it.
"""

import pytest

from repro.analysis.similarity import profile_applications
from repro.cli import main
from repro.core.facechange import FaceChange
from repro.guest.machine import boot_machine
from repro.kernel.runtime import Platform
from repro.malware import ALL_ATTACKS
from repro.obs import attack_trees
from repro.telemetry import build_span_trees, load_journal


@pytest.fixture(scope="module")
def kbeast_journal(tmp_path_factory):
    """Record one KBeast-on-bash run; returns (path, live span trees)."""
    path = tmp_path_factory.mktemp("forensics") / "kbeast.jsonl"
    config = profile_applications(apps=["bash"], scale=1)["bash"]
    machine = boot_machine(platform=Platform.KVM)
    journal = machine.start_recording(
        path=path, keep=True, meta={"app": "bash", "attack": "KBeast"}
    )
    fc = FaceChange(machine)
    fc.enable()
    fc.load_view(config, comm="bash")
    attack = next(a for a in ALL_ATTACKS if a.name == "KBeast")
    handle = attack.launch(machine, scale=1)
    machine.run(
        until=lambda: handle.finished,
        max_cycles=machine.cycles + 20_000_000_000,
        step_budget=50_000,
    )
    live = [n.to_dict() for n in build_span_trees(journal.records())]
    machine.stop_recording()
    return path, live


def test_journal_replays_to_the_live_span_trees(kbeast_journal):
    path, live = kbeast_journal
    data = load_journal(path)
    assert data.complete and data.dropped == 0
    replayed = build_span_trees(data.records)
    assert [n.to_dict() for n in replayed] == live


def test_captured_attack_chain_is_complete(kbeast_journal):
    path, _ = kbeast_journal
    trees = build_span_trees(load_journal(path).records)
    captured = attack_trees(trees)
    assert captured, "KBeast run produced no captured-attack chain"
    # at least one tree carries the full causal chain with real parent
    # links: vmexit -> recovery -> {backtrace, provenance verdict}
    full = []
    for tree in captured:
        if tree.kind != "vmexit":
            continue
        for rec in tree.find("recovery"):
            backtraces = [c for c in rec.children if c.kind == "backtrace"]
            verdicts = [c for c in rec.children if c.kind == "provenance"]
            if backtraces and verdicts:
                full.append((tree, rec, backtraces[0], verdicts[0]))
    assert full, "no vmexit tree contains recovery+backtrace+provenance"
    tree, rec, backtrace, verdict = full[0]
    assert verdict.attrs["verdict"] == "captured-attack"
    assert backtrace.attrs["unknown"] >= 1  # the hidden module's frames
    assert rec.record["parent"] == tree.span_id
    assert backtrace.record["parent"] == rec.span_id
    # spans nest in virtual time
    assert tree.record["start"] <= rec.record["start"]
    assert rec.record["end"] <= tree.record["end"]


def test_forensics_cli_narrates_the_attack(kbeast_journal, capsys):
    path, _ = kbeast_journal
    assert main(["forensics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "captured attacks" in out
    assert "verdict=captured-attack" in out
    assert "UNKNOWN" in out
    assert "vmexit INVALID_OPCODE" in out
    assert "backtrace:" in out


def test_forensics_shows_events_outside_any_span(kbeast_journal, capsys):
    # the rootkit's module load happens outside every span: it must
    # read in cycle order with the chains, not vanish from the narrative
    path, live = kbeast_journal
    loads = [tree for tree in live if tree.get("kind") == "module_load"]
    assert len(loads) == 1 and loads[0]["span"] is None
    assert main(["forensics", str(path)]) == 0
    out = capsys.readouterr().out
    assert "module_load: module=" in out
    assert "view_load: " in out
