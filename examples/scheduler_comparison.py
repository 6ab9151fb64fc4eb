#!/usr/bin/env python3
"""Multi-tenant scheduling study on the simulated cluster.

Submits a mixed workload (two WordCounts in a 'prod' queue, one
TeraSort in 'research') under each YARN scheduler and compares
completion times and traffic — the kind of cluster-configuration
question the Keddah substrate answers without a physical testbed.

Run:  python examples/scheduler_comparison.py
"""

from repro.analysis.jct import makespan
from repro.analysis.tables import Table, render_table
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def run_workload(scheduler: str):
    config = HadoopConfig(block_size=32 * MB, num_reducers=4,
                          scheduler=scheduler)
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            config, seed=11,
                            queue_capacities={"prod": 0.7, "research": 0.3})
    specs = [
        make_job("wordcount", input_gb=0.5, queue="prod", job_id=f"{scheduler}-wc1"),
        make_job("wordcount", input_gb=0.5, queue="prod", job_id=f"{scheduler}-wc2"),
        make_job("terasort", input_gb=0.5, queue="research", job_id=f"{scheduler}-ts"),
    ]
    results, traces = cluster.run(specs, arrival_times=[0.0, 1.0, 2.0])
    return specs, results, traces


def main() -> None:
    table = Table(
        title="Scheduler comparison: 3 concurrent jobs on 8 nodes",
        headers=["scheduler", "job", "queue", "JCT s", "makespan s",
                 "job traffic MiB"])
    for scheduler in ("fifo", "fair", "capacity", "drf"):
        specs, results, traces = run_workload(scheduler)
        span = makespan(results)
        for spec, result, trace in zip(specs, results, traces):
            table.add_row(scheduler, result.kind, spec.queue,
                          round(result.completion_time, 1), round(span, 1),
                          round(trace.total_bytes() / MB, 1))
    print(render_table(table))
    print("\nFIFO serialises the queue (watch the last job's JCT); "
          "fair/drf interleave; capacity honours the 70/30 split.")


if __name__ == "__main__":
    main()
