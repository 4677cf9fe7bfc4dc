"""CLI smoke tests (small scales to keep them fast)."""

import pytest

from repro.cli import main


def test_profile_command(tmp_path, capsys):
    out = tmp_path / "top.view.json"
    assert main(["--scale", "2", "profile", "top", "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "kernel view" in captured
    assert out.exists()


def test_similarity_subset(capsys):
    assert main(["--scale", "2", "similarity", "top", "gzip"]) == 0
    captured = capsys.readouterr().out
    assert "top" in captured and "gzip" in captured
    assert "min" in captured


def test_unixbench_baseline(capsys):
    assert main(["--scale", "2", "unixbench", "--views", "0"]) == 0
    captured = capsys.readouterr().out
    assert "Pipe-based Context Switching" in captured


def test_security_single_attack(capsys):
    assert main(["--scale", "2", "security", "--attack", "Injectso"]) == 0
    captured = capsys.readouterr().out
    assert "Injectso" in captured
    assert "DETECTED" in captured


def test_inspect_command(tmp_path, capsys):
    out = tmp_path / "gzip.view.json"
    main(["--scale", "2", "profile", "gzip", "-o", str(out)])
    capsys.readouterr()
    assert main(["inspect", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "app:   gzip" in captured
    assert "base kernel" in captured


def test_trace_command(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["--scale", "2", "trace", "top", "-o", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "== counters ==" in captured
    assert "== causal chains ==" in captured
    assert "ctxsw_trap" in captured
    assert "view switch:" in captured
    assert "provenance: verdict=" in captured
    assert out.exists()


def test_trace_app_only_and_limit_filter_chains(capsys):
    argv = ["--scale", "2", "trace", "top", "--app-only", "--limit", "3"]
    assert main(argv) == 0
    captured = capsys.readouterr().out
    chains = captured.split("== causal chains ==", 1)[1]
    assert "further chains omitted" in chains
    assert "comm=top" in chains
    assert "comm=swapper" not in chains


def test_trace_unknown_app(capsys):
    assert main(["trace", "no-such-app"]) != 0
    assert "unknown application" in capsys.readouterr().err


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# failure exit codes (every verb must signal failure to scripts/CI)
# ---------------------------------------------------------------------------


def test_profile_unknown_app_fails(capsys):
    assert main(["profile", "no-such-app"]) != 0
    err = capsys.readouterr().err
    assert "unknown application" in err
    assert "no-such-app" in err


def test_similarity_unknown_app_fails(capsys):
    assert main(["similarity", "top", "no-such-app"]) != 0
    assert "unknown application" in capsys.readouterr().err


def test_security_unknown_attack_fails(capsys):
    assert main(["security", "--attack", "NoSuchSample"]) != 0
    assert "no malware sample" in capsys.readouterr().err


def test_inspect_missing_file_fails(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "absent.json")]) != 0
    assert "unreadable" in capsys.readouterr().err


def test_inspect_malformed_file_fails(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["inspect", str(path)]) != 0
    assert "unreadable" in capsys.readouterr().err


def test_fleet_without_spec_or_apps_fails(capsys):
    assert main(["fleet"]) != 0
    assert "spec file or --apps" in capsys.readouterr().err


def test_fleet_unknown_app_fails(capsys):
    assert main(["fleet", "--apps", "no-such-app"]) != 0
    assert "unknown application" in capsys.readouterr().err


def test_fleet_malformed_spec_fails(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text('{"jobs": []}')
    assert main(["fleet", str(path)]) != 0
    assert "non-empty" in capsys.readouterr().err


def test_fleet_no_offline_with_empty_library_fails(tmp_path, capsys):
    lib = tmp_path / "lib"
    code = main(
        ["fleet", "--apps", "top", "--library", str(lib), "--no-offline"]
    )
    assert code != 0
    assert "no profile" in capsys.readouterr().err


def test_trace_with_no_events_exits_zero(monkeypatch, capsys):
    # regression: an event-free run must render an explicit marker and
    # succeed, not print a blank narrative (or worse, crash)
    from repro.telemetry import Journal

    monkeypatch.setattr(Journal, "append", lambda self, kind, /, **kw: self.seq)
    assert main(["--scale", "2", "trace", "top"]) == 0
    captured = capsys.readouterr().out
    assert "(no eventful chains recorded)" in captured


def test_narrative_of_an_empty_journal_is_marked():
    from repro.obs import render_journal_narrative
    from repro.telemetry import Journal

    text = render_journal_narrative(Journal().data())
    assert "journal: 0 records" in text
    assert "(no eventful chains recorded)" in text


def test_trace_journal_then_forensics(tmp_path, capsys):
    journal = tmp_path / "run.jsonl"
    assert main(
        ["--scale", "2", "trace", "top", "--journal", str(journal)]
    ) == 0
    capsys.readouterr()
    assert journal.exists()
    assert main(["forensics", str(journal)]) == 0
    captured = capsys.readouterr().out
    assert "causal chains" in captured
    assert "vmexit" in captured


def test_trace_attack_requires_the_host_app(capsys):
    assert main(["--scale", "2", "trace", "top", "--attack", "KBeast"]) != 0
    assert "infects 'bash'" in capsys.readouterr().err
    assert main(["--scale", "2", "trace", "top", "--attack", "NoSuch"]) != 0
    assert "no malware sample" in capsys.readouterr().err


def test_forensics_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text("this is not a journal\n")
    assert main(["forensics", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_forensics_names_a_missing_file(tmp_path, capsys):
    path = tmp_path / "missing.jsonl"
    assert main(["forensics", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


def test_forensics_rejects_a_telemetry_snapshot(tmp_path, capsys):
    snap = tmp_path / "telemetry.json"
    assert main(
        ["--scale", "2", "trace", "top", "-o", str(snap)]
    ) == 0
    capsys.readouterr()
    assert main(["forensics", str(snap)]) == 2
    err = capsys.readouterr().err
    assert f"{snap} is not a journal" in err


def test_flame_command(tmp_path, capsys):
    out = tmp_path / "flame.json"
    assert main(
        ["--scale", "2", "flame", "find_pipe", "--seed", "7",
         "-o", str(out)]
    ) == 0
    captured = capsys.readouterr().out
    assert "samples" in captured
    assert "FUNCTION" in captured  # the top-N table header
    assert "all [" in captured  # the flame graph root
    assert out.exists()


def test_flame_unknown_app(capsys):
    assert main(["flame", "no-such-app"]) == 2
    assert "unknown application" in capsys.readouterr().err


def test_probe_command(capsys):
    assert main(
        ["--scale", "2", "probe", "pipe_write", "--app", "find_pipe",
         "--seed", "7"]
    ) == 0
    captured = capsys.readouterr().out
    assert "pipe_write" in captured
    assert "probe hit(s) recorded" in captured


def test_probe_unknown_symbol(capsys):
    assert main(
        ["--scale", "2", "probe", "definitely_not_a_symbol",
         "--app", "find_pipe"]
    ) == 2
    assert "unknown kernel symbol" in capsys.readouterr().err


def test_report_rejects_unknown_section(capsys):
    assert main(["report", "--sections", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "unknown report section" in err
    assert "nonsense" in err


def test_guest_list_shows_variants(capsys):
    assert main(["guest", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("default", "no-net", "smp2-nonet", "qemu-tsc"):
        assert name in out


def test_guest_show_and_digest(capsys):
    from repro.guest.config import VARIANTS

    assert main(["guest", "show", "no-net"]) == 0
    assert "jbd2, ext4" in capsys.readouterr().out
    assert main(["guest", "digest", "no-net"]) == 0
    assert capsys.readouterr().out.strip() == VARIANTS["no-net"].digest()
    assert main(["guest", "digest", "no-net", "--build"]) == 0
    assert capsys.readouterr().out.strip() == VARIANTS["no-net"].build_digest()


def test_guest_diff_and_identical(capsys):
    assert main(["guest", "diff", "default", "no-net"]) == 0
    assert "modules:" in capsys.readouterr().out
    assert main(["guest", "diff", "default", "default"]) == 0
    assert "identical" in capsys.readouterr().out


def test_guest_show_unknown_variant_fails(capsys):
    assert main(["guest", "show", "nosuch"]) != 0
    assert "unknown guest variant" in capsys.readouterr().err


def test_trace_rejects_bad_guest_flags(capsys):
    assert main(["trace", "top", "--guest", "nosuch"]) != 0
    assert "unknown guest variant" in capsys.readouterr().err


def test_fleet_matrix_requires_apps(capsys):
    assert main(["fleet", "--matrix"]) != 0
    assert "--matrix needs --apps" in capsys.readouterr().err
