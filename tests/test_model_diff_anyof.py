"""Tests for sim.any_of and the model diff utility."""

import pytest

from repro.cluster.units import MB
from repro.experiments.campaigns import CampaignConfig, capture_campaign
from repro.modeling.diff import diff_models, diff_table
from repro.modeling.model import fit_job_model
from repro.simkit.core import SimulationError, Simulator


# -- any_of --------------------------------------------------------------------


def test_any_of_fires_with_first_completion():
    sim = Simulator()
    results = []

    def child(sim, delay, value):
        yield sim.timeout(delay)
        return value

    def parent(sim):
        winner = yield sim.any_of([sim.process(child(sim, 3.0, "slow")),
                                   sim.process(child(sim, 1.0, "fast"))])
        results.append((sim.now, winner))

    sim.process(parent(sim))
    sim.run()
    assert results == [(1.0, (1, "fast"))]


def test_any_of_as_timeout_pattern():
    sim = Simulator()
    outcomes = []

    def slow_work(sim):
        yield sim.timeout(100.0)
        return "done"

    def guarded(sim):
        index, payload = yield sim.any_of(
            [sim.process(slow_work(sim)), sim.timeout(5.0, "deadline")])
        outcomes.append((index, payload, sim.now))

    sim.process(guarded(sim))
    sim.run()
    assert outcomes[0] == (1, "deadline", 5.0)


def test_any_of_empty_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.any_of([])


# -- model diff ------------------------------------------------------------------


@pytest.fixture(scope="module")
def models():
    before = fit_job_model(capture_campaign(
        "teragen", sizes_gb=[0.25, 0.5], seed=91,
        campaign=CampaignConfig(replication=2)))
    after = fit_job_model(capture_campaign(
        "teragen", sizes_gb=[0.25, 0.5], seed=91,
        campaign=CampaignConfig(replication=3)))
    return before, after


def test_diff_detects_replication_change(models):
    before, after = models
    diffs = diff_models(before, after, at_gb=1.0)
    write = diffs["hdfs_write"]
    # r=2 puts 1 copy on the wire, r=3 puts 2: volume roughly doubles.
    assert write.volume_change == pytest.approx(1.0, abs=0.35)
    assert write.count_after > write.count_before


def test_diff_table_renders(models):
    before, after = models
    table = diff_table(before, after, at_gb=1.0, labels=("r2", "r3"))
    assert "r2 -> r3" in table.title
    components = [row[0] for row in table.rows]
    assert "hdfs_write" in components
    write_row = next(row for row in table.rows if row[0] == "hdfs_write")
    assert write_row[5].startswith("+")  # volume grew


def test_diff_handles_missing_component(models):
    before, after = models
    # teragen has no shuffle in either model; a synthetic component in
    # one only shows as "new".
    from repro.modeling.model import ComponentModel
    from repro.modeling.distributions import DegenerateDistribution
    from repro.modeling.scaling import LinearLaw

    after.components["shuffle"] = ComponentModel(
        component="shuffle",
        size_dist=DegenerateDistribution(1.0 * MB),
        interarrival_dist=DegenerateDistribution(0.1),
        count_law=LinearLaw(10.0, 0.0),
        volume_law=LinearLaw(10.0 * MB, 0.0))
    try:
        diffs = diff_models(before, after)
        assert diffs["shuffle"].volume_change == float("inf")
        table = diff_table(before, after)
        shuffle_row = next(r for r in table.rows if r[0] == "shuffle")
        assert shuffle_row[5] == "new"
    finally:
        del after.components["shuffle"]
