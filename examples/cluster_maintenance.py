#!/usr/bin/env python3
"""Maintenance traffic: balancing and decommissioning a live cluster.

Production captures contain traffic no job generates: the balancer
shuffling replicas toward even storage, and decommission drains copying
a retiring node's blocks away.  This script shows both on a cluster
whose storage was deliberately skewed, then runs a job *during* the
drain to show the two traffic classes interleaving.

Run:  python examples/cluster_maintenance.py
"""

from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import MB, fmt_bytes
from repro.faults import DECOMMISSION, FaultEvent, FaultInjector
from repro.hdfs.balancer import Balancer
from repro.jobs.base import make_job
from repro.mapreduce.cluster import HadoopCluster


def main() -> None:
    cluster = HadoopCluster(ClusterSpec(num_nodes=8, hosts_per_rack=4),
                            HadoopConfig(block_size=32 * MB, num_reducers=2),
                            seed=77)

    # Skew the storage: write three files from the same node so its
    # local-first replicas pile up there.
    writer = cluster.workers[0]

    def load(sim):
        for index in range(3):
            yield from cluster.dfs.write_file(
                f"/warehouse/table{index}", 256 * MB, writer, job_id="load")

    cluster.sim.process(load(cluster.sim))
    cluster.sim.run()
    usage = cluster.namenode.bytes_per_node()
    print("storage after skewed loading:")
    for host in sorted(usage, key=lambda h: h.name):
        print(f"  {host.name}: {fmt_bytes(usage[host])}")

    # Balance it.
    balancer = Balancer(cluster.sim, cluster.net, cluster.namenode,
                        bandwidth=40 * MB, threshold=0.2)
    report, _ = balancer.run_once()
    cluster.sim.run()
    print(f"\nbalancer: {report.moves} moves, "
          f"{fmt_bytes(report.bytes_moved)} moved, spread "
          f"{fmt_bytes(report.initial_spread)} -> "
          f"{fmt_bytes(report.final_spread)}")

    # Retire a node gracefully while a job runs.  Fault times are
    # absolute simulation times; the clock already advanced while
    # loading and balancing.
    victim = cluster.workers[3]
    injector = FaultInjector(
        cluster, [FaultEvent(cluster.sim.now + 2.0, DECOMMISSION, victim.name)])
    results, traces = cluster.run([make_job("wordcount", input_gb=0.5)])
    drain = sum(r.size for r in cluster.collector.records
                if r.service == "re-replication")
    print(f"\ndecommissioned {victim.name} during a wordcount run:")
    print(f"  drained {injector.report.blocks_rereplicated} blocks "
          f"({fmt_bytes(drain)}), job finished in "
          f"{results[0].completion_time:.1f}s (failed: {results[0].failed})")
    print(f"  node retired: {cluster.namenode.is_dead(victim)}")


if __name__ == "__main__":
    main()
