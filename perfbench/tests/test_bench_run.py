"""The result line reports exactly the metrics ``BENCHMARK.json`` lists."""

import pytest

from perfbench.run import complete, expected_metrics


def test_manifest_lists_both_metric_kinds():
    end_to_end = expected_metrics(False)
    per_layer = expected_metrics(True)
    assert end_to_end["setup_s"] == "s"
    assert "obs.trace_overhead_pct" in per_layer
    assert not set(end_to_end) & set(per_layer)


def test_untraced_run_must_report_every_end_to_end_metric():
    expected = {"setup_s": "s", "latency_ms": "ms"}
    with pytest.raises(SystemExit, match="missing .*latency_ms"):
        complete({"setup_s": (1.0, "s")}, expected, trace=False)


def test_units_and_names_must_match_the_manifest():
    expected = {"setup_s": "s"}
    with pytest.raises(SystemExit, match="wrong unit"):
        complete({"setup_s": (1.0, "ms")}, expected, trace=False)
    with pytest.raises(SystemExit, match="not listed .*fit_s"):
        complete({"setup_s": (1.0, "s"), "fit_s": (2.0, "s")}, expected,
                 trace=False)


def test_traced_run_reports_untouched_layers_as_zero_in_manifest_order():
    expected = {"nn.backward_s": "s", "serve.pool.chunks": "count",
                "obs.trace_overhead_pct": "%"}
    metrics = {"obs.trace_overhead_pct": (3.5, "%"),
               "nn.backward_s": (0.4, "s")}
    added = complete(metrics, expected, trace=True)
    assert added == ["serve.pool.chunks"]
    assert list(metrics) == list(expected)
    assert metrics["serve.pool.chunks"] == (0.0, "count")
    assert metrics["nn.backward_s"] == (0.4, "s")
