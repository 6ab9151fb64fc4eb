"""Keddah stage 3 — reproducing traffic.

Turns fitted :class:`~repro.modeling.model.JobTrafficModel` objects back
into traffic:

* :mod:`repro.generation.generator` — sample a synthetic
  :class:`~repro.capture.records.JobTrace` (flow sizes, start times and
  endpoint placement per component) for an arbitrary input size,
  including sizes never captured (via the model's scaling laws);
* :mod:`repro.generation.replay` — drive a trace (captured or
  synthetic) through the flow-level network simulator and report
  completion times and link utilisation;
* :mod:`repro.generation.export` — emit schedules for external
  simulators: a generic CSV schedule, an ns-3 C++ application, and an
  ns-3-readable flow schedule.
"""
