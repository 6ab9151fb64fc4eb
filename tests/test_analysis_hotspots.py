"""Tests for hotspot analysis and the related CLI surfaces."""

import pytest

from repro.analysis.hotspots import hotspot_table, imbalance_factor, per_host_traffic
from repro.capture.records import CaptureMeta, FlowRecord, JobTrace


def flow(src, dst, size, component="shuffle"):
    return FlowRecord(src=src, dst=dst, src_rack=0, dst_rack=0,
                      src_port=13562, dst_port=49000, size=size,
                      start=0.0, end=1.0, component=component)


def make_trace(flows):
    return JobTrace(meta=CaptureMeta(job_id="j", job_kind="t",
                                     input_bytes=1e9), flows=flows)


def test_per_host_traffic_directions():
    trace = make_trace([flow("a", "b", 100.0), flow("a", "c", 50.0),
                        flow("c", "b", 25.0)])
    stats = per_host_traffic(trace)
    assert stats["a"]["tx_bytes"] == 150.0
    assert stats["a"]["rx_bytes"] == 0.0
    assert stats["b"]["rx_bytes"] == 125.0
    assert stats["b"]["rx_flows"] == 2
    assert stats["c"]["tx_flows"] == 1


def test_per_host_traffic_component_filter():
    trace = make_trace([flow("a", "b", 100.0, "shuffle"),
                        flow("a", "b", 900.0, "hdfs_write")])
    stats = per_host_traffic(trace, component="shuffle")
    assert stats["b"]["rx_bytes"] == 100.0


def test_imbalance_factor_even_vs_skewed():
    even = make_trace([flow("a", "b", 100.0), flow("b", "a", 100.0)])
    assert imbalance_factor(even, "rx") == pytest.approx(1.0)
    skewed = make_trace([flow("a", "b", 300.0), flow("b", "c", 1.0),
                         flow("c", "a", 1.0)])
    assert imbalance_factor(skewed, "rx") > 2.5


def test_imbalance_factor_validation_and_empty():
    with pytest.raises(ValueError):
        imbalance_factor(make_trace([]), "sideways")
    assert imbalance_factor(make_trace([]), "rx") == 0.0


def test_hotspot_table_ranks_by_rx():
    trace = make_trace([flow("a", "hot", 1000.0), flow("b", "hot", 1000.0),
                        flow("hot", "cold", 1.0)])
    table = hotspot_table(trace, top=2)
    assert table.rows[0][0] == "hot"
    assert len(table.rows) == 2
    assert "imbalance" in table.notes[0]


def test_cli_validate_and_hotspots(tmp_path, capsys):
    from repro.cli import main

    trace_path = tmp_path / "t.jsonl"
    make_trace([flow("a", "b", 100.0)]).to_jsonl(trace_path)
    assert main(["validate", str(trace_path), str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "count err" in out
    assert "0" in out  # identical traces -> zero errors

    assert main(["report", str(trace_path), "--hotspots"]) == 0
    out = capsys.readouterr().out
    assert "traffic hotspots" in out


# -- probe-output-driven cases (telemetry integration) -------------------------------


@pytest.fixture(scope="module")
def probed_capture():
    from repro.api import run_capture
    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    trace = run_capture("terasort", input_gb=0.25, nodes=4, seed=11,
                        telemetry=telemetry)
    return telemetry, trace


def test_per_host_traffic_conserves_capture_bytes(probed_capture):
    _, trace = probed_capture
    stats = per_host_traffic(trace)
    assert sum(host["tx_bytes"] for host in stats.values()) == \
        pytest.approx(trace.total_bytes())
    assert sum(host["rx_bytes"] for host in stats.values()) == \
        pytest.approx(trace.total_bytes())


def test_hotspot_receivers_match_hdfs_write_counters(probed_capture):
    telemetry, trace = probed_capture
    stats = per_host_traffic(trace, component="hdfs_write")
    written = sum(host["rx_bytes"] for host in stats.values())
    # Replication fans each block out to several receivers, so the bytes
    # received as hdfs_write are at least the client-level write volume.
    assert written > 0
    assert telemetry.registry.value("hdfs.bytes_written") > 0


def test_imbalance_on_real_capture_is_sane(probed_capture):
    _, trace = probed_capture
    factor = imbalance_factor(trace, "rx")
    assert factor >= 1.0
    table = hotspot_table(trace, top=4)
    assert 0 < len(table.rows) <= 4
