"""WorkloadSuite: sample a job mix, run it concurrently, capture it all.

A suite is a weighted mix of (job kind, input size) entries plus an
arrival process.  ``run()`` samples a concrete schedule, executes it on
one cluster (so jobs contend for containers and links, unlike the
isolated single-job captures), and returns per-job results/traces plus
cluster-level aggregates — the input for multi-tenant traffic studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.jct import makespan
from repro.capture.records import JobTrace
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.cluster.units import GB
from repro.jobs.base import JobSpec, make_job
from repro.mapreduce.cluster import HadoopCluster
from repro.mapreduce.result import JobResult
from repro.workloads.arrivals import ArrivalProcess, UniformArrivals


@dataclass(frozen=True)
class MixEntry:
    """One job template in a mix."""

    kind: str
    input_gb: float
    weight: float = 1.0
    queue: str = "default"

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"mix weight must be positive, got {self.weight}")
        if self.input_gb < 0:
            raise ValueError(f"input_gb must be >= 0, got {self.input_gb}")


@dataclass
class SuiteResult:
    """Everything a suite run produced."""

    results: List[JobResult]
    traces: List[JobTrace]
    arrival_times: List[float]
    makespan: float

    def traces_by_kind(self) -> Dict[str, List[JobTrace]]:
        grouped: Dict[str, List[JobTrace]] = {}
        for trace in self.traces:
            grouped.setdefault(trace.meta.job_kind, []).append(trace)
        return grouped

    def mean_jct(self) -> float:
        if not self.results:
            return 0.0
        return sum(r.completion_time for r in self.results) / len(self.results)

    def total_bytes(self) -> float:
        # Per-job traces share overlapping control flows; count each
        # distinct flow once.
        seen = set()
        total = 0.0
        for trace in self.traces:
            for flow in trace.flows:
                if flow.flow_id not in seen:
                    seen.add(flow.flow_id)
                    total += flow.size
        return total


class WorkloadSuite:
    """A weighted job mix with an arrival process."""

    def __init__(self, mix: Sequence[MixEntry],
                 arrivals: Optional[ArrivalProcess] = None,
                 name: str = "suite"):
        if not mix:
            raise ValueError("a workload suite needs at least one mix entry")
        self.mix = list(mix)
        self.arrivals = arrivals or UniformArrivals(span=30.0)
        self.name = name

    def sample_jobs(self, count: int, rng: np.random.Generator) -> List[JobSpec]:
        """Draw ``count`` job specs from the weighted mix."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        weights = np.array([entry.weight for entry in self.mix], dtype=float)
        weights /= weights.sum()
        indices = rng.choice(len(self.mix), size=count, p=weights)
        specs = []
        for order, index in enumerate(indices):
            entry = self.mix[int(index)]
            specs.append(make_job(entry.kind, input_gb=entry.input_gb,
                                  queue=entry.queue,
                                  job_id=f"{self.name}_{order:03d}_{entry.kind}"))
        return specs

    def run(self, count: int, cluster_spec: Optional[ClusterSpec] = None,
            config: Optional[HadoopConfig] = None, seed: int = 0,
            queue_capacities: Optional[Dict[str, float]] = None) -> SuiteResult:
        """Sample, schedule and execute ``count`` jobs on one cluster."""
        rng = np.random.default_rng(seed)
        specs = self.sample_jobs(count, rng)
        arrival_times = self.arrivals.sample(count, rng)
        cluster = HadoopCluster(cluster_spec or ClusterSpec(num_nodes=8),
                                config or HadoopConfig(), seed=seed,
                                queue_capacities=queue_capacities)
        results, traces = cluster.run(specs, arrival_times=arrival_times)
        return SuiteResult(results=results, traces=traces,
                           arrival_times=list(arrival_times),
                           makespan=makespan(results))
