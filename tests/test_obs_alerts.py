"""Alert rule parsing and the threshold/derivative/absence engine."""

import json

import pytest

from repro.obs.aggregate import EventBroker
from repro.obs.alerts import AlertEngine, AlertRule, load_rules, parse_rule, parse_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.probes import ProbeLog
from repro.obs.trace import MemorySink, Tracer


# -- parsing -------------------------------------------------------------------------


def test_parse_rule_defaults_and_signal_split():
    rule = parse_rule({"name": "hot", "signal": "probe:net.util",
                       "value": 0.9})
    assert rule.type == "threshold"
    assert rule.op == ">"
    assert rule.signal_kind == "probe"
    assert rule.signal_name == "net.util"


@pytest.mark.parametrize("data,match", [
    ({"name": "x", "signal": "probe:s", "typo": 1}, "unknown key"),
    ({"name": "x"}, "at least"),
    ({"name": "x", "signal": "bogus"}, "bad signal"),
    ({"name": "x", "signal": "probe:s", "type": "weird"}, "unknown type"),
    ({"name": "x", "signal": "probe:s", "op": "~"}, "unknown op"),
    ({"name": "x", "signal": "probe:s", "type": "derivative",
      "window_s": 0}, "window_s > 0"),
    ({"name": "x", "signal": "probe:s", "for_s": -1}, "for_s"),
])
def test_parse_rule_rejects_bad_schemas(data, match):
    with pytest.raises(ValueError, match=match):
        parse_rule(data)


def test_parse_rules_accepts_wrapped_doc_and_rejects_duplicates():
    doc = {"rules": [{"name": "a", "signal": "metric:m"},
                     {"name": "b", "signal": "probe:p"}]}
    assert [r.name for r in parse_rules(doc)] == ["a", "b"]
    doc["rules"].append({"name": "a", "signal": "metric:other"})
    with pytest.raises(ValueError, match="duplicate"):
        parse_rules(doc)


def test_load_rules_from_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps([{"name": "n", "signal": "metric:m",
                                 "value": 3}]))
    (rule,) = load_rules(path)
    assert rule.value == 3.0


# -- threshold rules -----------------------------------------------------------------


def _probe_log(name, samples):
    log = ProbeLog()
    for t, v in samples:
        log.sample(name, t, v)
    return log


def test_threshold_fires_and_resolves_edge_triggered():
    engine = AlertEngine([AlertRule("hot", "probe:util", value=0.9)])
    probes = _probe_log("util", [(0.0, 0.5)])
    assert engine.evaluate(probes=probes, now=0.0) == []
    probes.sample("util", 1.0, 0.95)
    (fired,) = engine.evaluate(probes=probes, now=1.0)
    assert (fired["status"], fired["value"]) == ("firing", 0.95)
    # Still breached: no new transition.
    assert engine.evaluate(probes=probes, now=2.0) == []
    assert engine.firing() == ["hot"]
    probes.sample("util", 3.0, 0.2)
    (resolved,) = engine.evaluate(probes=probes, now=3.0)
    assert resolved["status"] == "resolved"
    assert engine.firing() == []


def test_for_s_debounce_requires_sustained_breach():
    engine = AlertEngine([AlertRule("hot", "probe:util", value=0.9,
                                    for_s=2.0)])
    probes = _probe_log("util", [(0.0, 0.95)])
    assert engine.evaluate(probes=probes, now=0.0) == []
    # Breach lapses before for_s: pending resets, no event ever fires.
    probes.sample("util", 1.0, 0.1)
    assert engine.evaluate(probes=probes, now=1.0) == []
    probes.sample("util", 2.0, 0.95)
    assert engine.evaluate(probes=probes, now=2.0) == []
    probes.sample("util", 4.0, 0.95)
    (fired,) = engine.evaluate(probes=probes, now=4.0)
    assert fired["status"] == "firing"


def test_metric_threshold_over_registry_and_snapshot():
    registry = MetricsRegistry()
    registry.counter("campaign.quarantined").inc(2)
    rule = AlertRule("q", "metric:campaign.quarantined", value=0.0)
    engine = AlertEngine([rule])
    (fired,) = engine.evaluate(metrics=registry, now=0.0)
    assert fired["value"] == 2.0
    # Snapshot lists (the DirSource path) behave identically.
    engine2 = AlertEngine([rule])
    (fired2,) = engine2.evaluate(metrics=registry.snapshot(), now=0.0)
    assert fired2["value"] == 2.0


# -- derivative rules ----------------------------------------------------------------


def test_probe_derivative_uses_actual_irregular_spacing():
    # Samples at t=0,1,5 with values 0,1,13: the window [1,5] slope is
    # (13-1)/(5-1)=3, not (13-0)/5 — irregular gaps must divide by the
    # real dt of the samples inside the window.
    engine = AlertEngine([AlertRule("ramp", "probe:depth",
                                    type="derivative", value=2.5,
                                    window_s=4.0)])
    probes = _probe_log("depth", [(0.0, 0.0), (1.0, 1.0), (5.0, 13.0)])
    (fired,) = engine.evaluate(probes=probes, now=5.0)
    assert fired["value"] == pytest.approx(3.0)


def test_probe_derivative_not_evaluable_with_one_windowed_sample():
    engine = AlertEngine([AlertRule("ramp", "probe:depth",
                                    type="derivative", value=0.0,
                                    window_s=1.0)])
    probes = _probe_log("depth", [(0.0, 0.0), (10.0, 5.0)])
    # Only the t=10 sample is inside [9, 10]: no slope, no transition.
    assert engine.evaluate(probes=probes, now=10.0) == []


def test_metric_derivative_across_evaluations():
    registry = MetricsRegistry()
    counter = registry.counter("points")
    engine = AlertEngine([AlertRule("rate", "metric:points",
                                    type="derivative", value=1.5)])
    counter.inc(0)
    assert engine.evaluate(metrics=registry, now=0.0) == []  # no history yet
    counter.inc(10)
    (fired,) = engine.evaluate(metrics=registry, now=2.0)
    assert fired["value"] == pytest.approx(5.0)


# -- absence rules -------------------------------------------------------------------


def test_probe_absence_fires_on_silence_and_missing_series():
    engine = AlertEngine([AlertRule("quiet", "probe:util", type="absence",
                                    window_s=2.0)])
    # Series missing entirely: fires.
    (fired,) = engine.evaluate(probes=ProbeLog(), now=0.0)
    assert fired["status"] == "firing"
    # Fresh sample: resolves; then silence past the window: fires again.
    probes = _probe_log("util", [(10.0, 1.0)])
    (resolved,) = engine.evaluate(probes=probes, now=10.5)
    assert resolved["status"] == "resolved"
    (refired,) = engine.evaluate(probes=probes, now=13.0)
    assert refired["status"] == "firing"


def test_metric_absence_tests_registration():
    engine = AlertEngine([AlertRule("gone", "metric:nope", type="absence",
                                    window_s=1.0)])
    (fired,) = engine.evaluate(metrics=MetricsRegistry(), now=0.0)
    assert fired["status"] == "firing"


# -- event fan-out -------------------------------------------------------------------


def test_transitions_reach_broker_and_trace_sink():
    broker = EventBroker()
    subscription = broker.subscribe()
    sink = MemorySink()
    tracer = Tracer(sink=sink, enabled=True)
    engine = AlertEngine([AlertRule("hot", "probe:util", value=0.9)],
                         broker=broker, tracer=tracer)
    probes = _probe_log("util", [(1.0, 0.99)])
    engine.evaluate(probes=probes, now=1.0)
    event = subscription.get(timeout=1.0)
    assert (event["kind"], event["rule"], event["status"]) == \
        ("alert", "hot", "firing")
    (span,) = sink.spans
    assert span.kind == "event"
    assert span.name == "alert:hot"
    assert span.attrs["status"] == "firing"
    subscription.close()
    # The engine's own bounded history keeps the transition too.
    assert engine.to_dict()["events"][-1]["rule"] == "hot"
    assert engine.to_dict()["states"]["hot"]["firing"] is True
