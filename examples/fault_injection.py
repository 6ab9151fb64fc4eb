#!/usr/bin/env python3
"""Failure study: what does a node crash do to Hadoop's traffic?

Kills a worker (DataNode + NodeManager) in the middle of a TeraSort and
compares the run against a healthy baseline: HDFS re-replication
traffic appears, killed tasks re-execute elsewhere, and the completion
time stretches — recovery behaviour single-job healthy-cluster captures
never show.

Run:  python examples/fault_injection.py
"""

from repro.analysis.tables import Table, render_table
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB
from repro.faults import NODE, FaultEvent, FaultInjector
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def run(fail: bool):
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(block_size=32 * MB, num_reducers=4),
                            seed=17)
    injector = None
    if fail:
        victim = cluster.workers[6]
        injector = FaultInjector(cluster, [FaultEvent(4.0, NODE, victim.name)])
    results, traces = cluster.run(
        [make_job("terasort", input_gb=0.5, job_id="faultdemo")])
    rereplication = sum(r.size for r in cluster.collector.records
                        if r.service == "re-replication")
    return results[0], traces[0], rereplication, injector


def main() -> None:
    table = Table(title="TeraSort 0.5 GiB: healthy vs node crash at t=4s",
                  headers=["scenario", "JCT s", "total MiB",
                           "re-replication MiB", "containers lost",
                           "map attempts"])
    for label, fail in (("healthy", False), ("node crash", True)):
        result, trace, rereplication, injector = run(fail)
        round0 = result.rounds[0]
        table.add_row(
            label,
            round(result.completion_time, 2),
            round(trace.total_bytes() / MB, 1),
            round(rereplication / MB, 1),
            injector.report.containers_lost if injector else 0,
            round0.num_maps + round0.lost_containers)
        if fail:
            report = injector.report
            print(f"injected: {report.injected[0]}")
            print(f"re-replicated {report.blocks_rereplicated} blocks "
                  f"({rereplication / MB:.0f} MiB), "
                  f"{report.containers_lost} containers expired, "
                  f"job failed: {result.failed}")
    print()
    print(render_table(table))


if __name__ == "__main__":
    main()
