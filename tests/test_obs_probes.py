"""Tests for periodic probes: series maths, sampling, lifecycle."""

import pytest

from repro.api import run_capture
from repro.obs.probes import ClusterProbes, ProbeLog, ProbeSeries
from repro.obs.telemetry import Telemetry

EXPECTED_SERIES = {"net.active_flows", "net.throughput_gbps",
                   "net.link_utilisation_mean", "net.link_utilisation_max",
                   "sim.backlog", "yarn.queue_depth"}


def test_probe_series_stats():
    series = ProbeSeries("x")
    series.append(0.0, 1.0)
    series.append(1.0, 5.0)
    series.append(2.0, 3.0)
    assert len(series) == 3
    assert series.mean == pytest.approx(3.0)
    assert series.peak == 5.0
    assert series.peak_time == 1.0


def test_empty_series_stats_are_zero():
    series = ProbeSeries("x")
    assert series.mean == 0.0
    assert series.peak == 0.0
    assert series.peak_time == 0.0


def test_probe_log_roundtrip():
    log = ProbeLog()
    log.sample("a", 0.0, 1.0)
    log.sample("a", 1.0, 2.0)
    log.sample("b", 0.0, 9.0)
    clone = ProbeLog.from_dict(log.to_dict())
    assert clone.series["a"].values == [1.0, 2.0]
    assert clone.series["b"].times == [0.0]
    assert clone.total_samples() == 3


def test_probes_reject_bad_interval():
    with pytest.raises(ValueError):
        ClusterProbes(cluster=None, interval=0.0)


def test_cluster_probes_sample_during_run():
    telemetry = Telemetry.enabled_in_memory(probe_interval=0.5)
    run_capture("terasort", input_gb=0.25, nodes=4, seed=5,
                telemetry=telemetry)
    probes = telemetry.probes
    assert EXPECTED_SERIES <= set(probes.series)
    flows = probes.series["net.active_flows"]
    # t=0 baseline plus one sample per interval across the run.
    assert len(flows) >= 3
    assert flows.times[0] == 0.0
    assert flows.times == sorted(flows.times)
    assert flows.peak > 0  # the job did move traffic
    # Utilisation is a fraction of capacity.
    for value in probes.series["net.link_utilisation_max"].values:
        assert 0.0 <= value <= 1.0 + 1e-9


def test_disabled_telemetry_schedules_no_probes():
    telemetry = Telemetry.disabled()
    run_capture("terasort", input_gb=0.25, nodes=4, seed=5,
                telemetry=telemetry)
    assert telemetry.probes.total_samples() == 0
    assert telemetry.probe_interval == 0.0


# -- bounded series (max_samples downsampling) ---------------------------------------


def test_max_samples_bounds_length_with_stride_doubling():
    series = ProbeSeries("s", max_samples=8)
    for index in range(100):
        series.append(float(index), float(index))
    assert len(series) <= 8
    assert series.samples_seen == 100
    assert series.stride == 16
    # Survivors are exactly the arrival indices divisible by the stride.
    assert series.times == [t for t in range(100) if t % 16 == 0]


def test_downsampled_aggregates_stay_exact():
    series = ProbeSeries("s", max_samples=4)
    values = [3.0, 1.0, 7.0, 2.0, 9.5, 0.5, 4.0, 8.0, 1.5, 6.0]
    for index, value in enumerate(values):
        series.append(float(index), value)
    assert series.mean == pytest.approx(sum(values) / len(values))
    assert series.peak == 9.5
    assert series.peak_time == 4.0  # even if the sample itself was thinned
    assert len(series) <= 4


def test_downsampling_is_deterministic_in_arrival_index():
    def build(times):
        series = ProbeSeries("s", max_samples=4)
        for index, t in enumerate(times):
            series.append(t, float(index))
        return series.values

    # Same arrival count, wildly different timestamps: identical keeps.
    assert build([float(i) for i in range(20)]) == \
        build([i * 0.37 + 5 for i in range(20)])


def test_max_samples_roundtrips_with_exact_aggregates():
    series = ProbeSeries("s", max_samples=4)
    for index in range(33):
        series.append(float(index), float(index % 7))
    clone = ProbeSeries.from_dict(series.to_dict())
    assert clone.times == series.times
    assert clone.samples_seen == 33
    assert clone.mean == pytest.approx(series.mean)
    assert clone.peak == series.peak
    assert clone.peak_time == series.peak_time
    assert clone.stride == series.stride
    # Appends keep honouring the restored stride.
    clone.append(33.0, 1.0)
    assert clone.samples_seen == 34


def test_unbounded_series_keep_legacy_dict_format():
    series = ProbeSeries("s")
    series.append(0.0, 1.0)
    assert set(series.to_dict()) == {"name", "t", "v"}


def test_max_samples_validation_and_log_inheritance():
    with pytest.raises(ValueError):
        ProbeSeries("s", max_samples=1)
    log = ProbeLog(max_samples=8)
    for index in range(50):
        log.sample("a", float(index), 1.0)
    assert len(log.series["a"]) <= 8
    assert log.series["a"].samples_seen == 50
