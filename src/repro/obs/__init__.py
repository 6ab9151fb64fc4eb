"""Unified telemetry: metrics registry, lifecycle tracing, probes.

The single facade the engine is instrumented through::

    from repro.obs.telemetry import Telemetry

    telemetry = Telemetry.enabled_in_memory()
    cluster = HadoopCluster(spec, config, seed=1, telemetry=telemetry)
    cluster.run([make_job("terasort", input_gb=0.5)])
    telemetry.registry.value("net.flows_completed")
    telemetry.spans               # the job/stage/task/flow span tree
    telemetry.probes.series       # sampled utilisation/backlog series

Everything is disabled by default: an un-configured run keeps its
counters (the registry is the only counter API) but emits no spans,
schedules no probes and allocates no sinks.

Modules: :mod:`~repro.obs.metrics` (the registry),
:mod:`~repro.obs.trace` (spans and sinks), :mod:`~repro.obs.probes`,
:mod:`~repro.obs.telemetry` (the facade), :mod:`~repro.obs.export`,
:mod:`~repro.obs.aggregate` (cross-worker merge and the event broker),
:mod:`~repro.obs.alerts` and :mod:`~repro.obs.server` (the
``keddah serve`` daemon, which pulls in ``http.server``).
"""
