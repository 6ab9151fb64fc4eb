"""The benchmark's workloads: inputs built from a seed, one operation each.

An *operation* is one user-visible unit of Keddah work, driven through
public entry points only:

* ``terasort-64n``: ``CapturePoint.simulate`` of an 8 GiB terasort on a
  64-node tree (4 hosts/rack, fluid backend, scalar engine), then
  ``JobTrace.to_jsonl``.  Output: the trace JSONL.
* ``tpcx-hs-32n``: ``PlanPoint.simulate`` of the ``tpcx-hs`` plan at
  ``scale=4`` on 32 nodes (4 hosts/rack) on the vectorized engine, then
  ``JobTrace.to_jsonl``.  Output: the trace JSONL.
* ``pipeline-5x4``: ``DAGRunner(build_pipeline(spec), root).run()`` of
  the built-in pipeline over the five default jobs at 0.25/0.5/1/2 GiB
  on the default campaign, ``workers=1``, cold in a fresh root.
  Output: the report node's ``report.json``.

A run walks through :data:`SEEDS_PER_RUN` consecutive capture seeds of
the pool of :data:`RECORDED_SEEDS` whose output digests are recorded,
starting at ``SEEDS_PER_RUN * seed`` modulo the pool
(:func:`capture_seeds`).  The simulated work differs between seeds
(terasort-64n captures 6.0k to 7.5k flows depending on the seed), so a
run that repeated one seed would report that seed's cost; giving every
operation of a run its own capture seed puts as many samples of the
workload behind each median as the run has operations.

Every workload has a *smoke* variant with tiny inputs, used as the
warm-up of a full run and by the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

WORKLOADS = ("terasort-64n", "tpcx-hs-32n", "pipeline-5x4")
DEFAULT_SEED = 1
RECORDED_SEEDS = 256    # capture seeds 0..255 have recorded full digests
SEEDS_PER_RUN = 48      # above the ops any workload fits in 30 s (README)


class MissingDigests(RuntimeError):
    """An operation's output has no recorded digest to be checked against."""


def capture_seeds(seed: int) -> List[int]:
    """The capture seeds one benchmark run cycles through."""
    return [(seed * SEEDS_PER_RUN + index) % RECORDED_SEEDS
            for index in range(SEEDS_PER_RUN)]


@dataclass
class OpResult:
    """What one operation produced (read after its timed region)."""

    output: Path            # the file whose sha256 is the op's digest
    flows: int              # flows captured by the operation
    volume_error: float     # mean held-out model volume error (pipeline)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Workload:
    """Inputs for one workload and capture seed; :meth:`run` is one operation."""

    def __init__(self, name: str, seed: int, smoke: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self._build: Callable[[Path], Any]
        if name == "pipeline-5x4":
            self._input = self._pipeline_spec()
            self._build = self._run_pipeline
        else:
            self._input = self._capture_point()
            self._build = self._run_capture

    # -- inputs -------------------------------------------------------------

    def _capture_point(self):
        from repro.cluster.config import ClusterSpec, HadoopConfig
        from repro.experiments.runner import CapturePoint, PlanPoint

        if self.name == "terasort-64n":
            gb, nodes = (0.25, 8) if self.smoke else (8.0, 64)
            return CapturePoint.from_configs(
                "terasort", gb, self.seed,
                ClusterSpec(num_nodes=nodes, hosts_per_rack=4),
                HadoopConfig())
        scale, nodes = (0.25, 4) if self.smoke else (4, 32)
        return PlanPoint.from_configs(
            "tpcx-hs", self.seed,
            ClusterSpec(num_nodes=nodes, hosts_per_rack=4,
                        engine="vectorized"),
            HadoopConfig(), {"scale": scale})

    def _pipeline_spec(self):
        from repro.experiments.campaigns import DEFAULT_JOBS, DEFAULT_SIZES_GB
        from repro.experiments.pipelines import PipelineSpec

        if self.smoke:
            jobs, sizes = ("terasort", "grep"), (0.125, 0.25)
        else:
            jobs, sizes = tuple(DEFAULT_JOBS), tuple(DEFAULT_SIZES_GB)
        return PipelineSpec(jobs=jobs, sizes_gb=sizes, seed=self.seed,
                            workers=1)

    # -- one operation ------------------------------------------------------

    def run(self, workdir: Path) -> Any:
        """The timed part of one operation: all program work, no checks."""
        return self._build(workdir)

    def _run_capture(self, workdir: Path):
        _, trace = self._input.simulate()
        output = workdir / "trace.jsonl"
        trace.to_jsonl(output)
        return output, trace.flow_count()

    def _run_pipeline(self, workdir: Path):
        from repro.experiments.dag import DAGRunner
        from repro.experiments.pipelines import build_pipeline

        return DAGRunner(build_pipeline(self._input), workdir / "root").run()

    def collect(self, produced: Any) -> OpResult:
        """Read an operation's output and counts (outside the timing)."""
        if self.name != "pipeline-5x4":
            output, flows = produced
            return OpResult(output=output, flows=flows, volume_error=0.0)
        if not produced.ok:
            raise RuntimeError(f"pipeline failed: {produced.states()}")

        def output_path(node: str, output: str) -> Path:
            outcome = produced.outcomes[node]
            return (produced.root / outcome.dir
                    / outcome.outputs[output]["path"])

        classification = json.loads(
            output_path("classify", "classification").read_text())
        validation = json.loads(
            output_path("validate", "validation").read_text())
        errors = [row["mean_volume_error"] for row in validation["jobs"]]
        return OpResult(
            output=output_path("report", "report_json"),
            flows=sum(point["flows"] for point in classification["points"]),
            volume_error=sum(errors) / len(errors))


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def recorded_digests(path: Path, workload: str, seeds: List[int],
                     smoke: bool) -> Dict[int, str]:
    """The recorded output digest of each capture seed; refuse any gap."""
    if not path.is_file():
        raise MissingDigests(f"no recorded digests at {path}")
    size = "smoke" if smoke else "full"
    table = json.loads(path.read_text()).get(size, {}).get(workload, {})
    missing = [seed for seed in seeds if str(seed) not in table]
    if missing:
        raise MissingDigests(f"no recorded {size} digest for {workload} "
                             f"capture seeds {missing}")
    return {seed: table[str(seed)] for seed in seeds}
