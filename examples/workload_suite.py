#!/usr/bin/env python3
"""Multi-tenant workload study: a cluster under a realistic job mix.

Runs the HiBench-style micro mix under Poisson arrivals, reports
per-job completion times and cluster-level traffic, and fits one
traffic model per job kind from the *contended* captures — showing
that the Keddah pipeline works on multi-tenant traces too.

Run:  python examples/workload_suite.py
"""

from repro.analysis.tables import Table, render_table
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.modeling.model import fit_job_model
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.hibench import MICRO_MIX
from repro.workloads.suite import WorkloadSuite


def main() -> None:
    suite = WorkloadSuite(MICRO_MIX, arrivals=PoissonArrivals(rate=0.2),
                          name="demo")
    outcome = suite.run(
        count=8,
        cluster_spec=ClusterSpec(num_nodes=8, hosts_per_rack=4),
        config=HadoopConfig(block_size=32 * MB, num_reducers=4,
                            scheduler="fair"),
        seed=23)

    table = Table(title="micro mix, Poisson(0.2/s) arrivals, fair scheduler",
                  headers=["job", "kind", "arrival s", "JCT s", "MiB"])
    for result, trace, arrival in zip(outcome.results, outcome.traces,
                                      outcome.arrival_times):
        table.add_row(result.job_id, result.kind, round(arrival, 1),
                      round(result.completion_time, 2),
                      round(trace.total_bytes() / MB, 1))
    print(render_table(table))
    print(f"\nmakespan {outcome.makespan:.1f}s, mean JCT "
          f"{outcome.mean_jct():.1f}s, cluster traffic "
          f"{outcome.total_bytes() / MB:.0f} MiB")

    print("\nper-kind models fitted from the contended captures:")
    for kind, traces in sorted(outcome.traces_by_kind().items()):
        model = fit_job_model(traces)
        parts = ", ".join(f"{name}:{component.size_dist.family}"
                          for name, component in sorted(model.components.items()))
        print(f"  {kind:10s} ({len(traces)} trace(s))  {parts}")


if __name__ == "__main__":
    main()
