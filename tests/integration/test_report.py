"""Report generator test (small subset for speed)."""

from repro.analysis.report import generate_report


def test_report_table1_section(app_configs):
    text = generate_report(
        scale=3, sections=["table1"], configs=app_configs
    )
    assert "# FACE-CHANGE reproduction" in text
    assert "## Table I" in text
    assert "similarity range" in text
    assert "firefox" in text
    # only the requested section is present
    assert "## Table II" not in text
    assert "## Figure 6" not in text


def test_report_figure7_section(app_configs):
    text = generate_report(
        scale=3, sections=["fig7"], configs=app_configs
    )
    assert "## Figure 7" in text
    assert "| rate (req/s) |" in text
    assert "## Table I" not in text


def test_report_trace_section(app_configs):
    text = generate_report(scale=1, sections=["trace"], configs=app_configs)
    assert "## Trace" in text
    assert "== counters ==" in text
    assert ". ctxsw_trap comm=top" in text
    assert "view switch:" in text
    assert "recovery: filled" in text
    assert "provenance: verdict=" in text
    assert "## Table I" not in text


def test_report_observability_section(app_configs):
    text = generate_report(
        scale=1, sections=["observability"], configs=app_configs
    )
    assert "## Observability" in text
    rows = [line for line in text.splitlines() if line.startswith("| ")]
    assert any(row.startswith("| span journal | ") for row in rows)
    assert any(row.startswith("| causal chains | ") for row in rows)
    assert not any("trace ring" in row for row in rows)
