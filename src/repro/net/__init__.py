"""Flow-level (fluid) network simulator.

Models the cluster network as capacitated links shared by concurrent
flows under **max-min fairness** — the standard fluid approximation of
long-lived TCP flows, and the granularity at which Keddah captures and
reproduces Hadoop traffic (per-flow records, not per-packet).

Main entry point is :class:`~repro.net.network.FlowNetwork`:

* ``start_flow(src, dst, size)`` returns a :class:`~repro.net.flow.Flow`
  whose ``done`` signal fires at the fluid completion time;
* flow arrivals/departures trigger max-min rate recomputation
  (:mod:`repro.net.fairshare`); same-instant changes are coalesced into
  one recompute by a zero-delay flush (see ``FlowNetwork.batch``);
* listeners receive each completed flow, which is how the capture stage
  (:mod:`repro.capture`) observes traffic.
"""
