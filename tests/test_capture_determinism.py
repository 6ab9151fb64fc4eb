"""A capture depends only on its arguments, whichever entry point runs it.

Every public capture path — ``run_capture`` (job and plan),
``run_capture_campaign``, ``capture_plan`` and ``keddah capture``
(``--job``/``--plan``, with and without ``--store``) — resolves a
content-keyed :class:`~repro.experiments.runner.CapturePoint` or
:class:`~repro.experiments.runner.PlanPoint`.  So its JSONL bytes must
not move with process history: not when called twice in one process,
not in reversed order, not in a fresh interpreter, and not when a
capture store is in the way.  The point keys themselves are pinned, so
warm stores keep hitting.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api import run_capture, run_capture_campaign
from repro.cli import main
from repro.cluster.config import ClusterSpec, HadoopConfig
from repro.experiments import campaigns
from repro.experiments.runner import CapturePoint, PlanPoint
from repro.experiments.store import STORE_ENV_VAR

GB = 0.125
NODES = 4
SEED = 1
TINY_CAMPAIGN = campaigns.CampaignConfig(nodes=NODES)


def _jsonl(traces, path: Path) -> bytes:
    data = b""
    for index, trace in enumerate(traces):
        out = path / f"trace{index}.jsonl"
        trace.to_jsonl(out)
        data += out.read_bytes()
    return data


def _cli(path: Path, store: bool, *argv: str) -> bytes:
    out = path / "cli.jsonl"
    args = ["capture", *argv, "--nodes", str(NODES), "--seed", str(SEED),
            "-o", str(out)]
    if store:
        args += ["--store", str(path / "store")]
    assert main(args) == 0
    return out.read_bytes()


CLI_JOB = ("--job", "terasort", "--input-gb", str(GB))
CLI_PLAN = ("--plan", "tpcx-hs", "--scale", str(GB))

CAPTURES = {
    "run_capture-job": lambda path: _jsonl(
        [run_capture("terasort", input_gb=GB, nodes=NODES, seed=SEED)], path),
    "run_capture-plan": lambda path: _jsonl(
        [run_capture(plan="tpcx-hs", plan_params={"scale": GB},
                     nodes=NODES, seed=SEED)], path),
    "run_capture_campaign": lambda path: _jsonl(
        run_capture_campaign("grep", [GB / 2, GB], nodes=NODES, seed=SEED),
        path),
    "capture_plan": lambda path: _jsonl(
        [campaigns.capture_plan("tpcx-hs", {"scale": GB}, seed=SEED,
                                campaign=TINY_CAMPAIGN)[1]], path),
    "cli-job": lambda path: _cli(path, False, *CLI_JOB),
    "cli-job-store": lambda path: _cli(path, True, *CLI_JOB),
    "cli-plan": lambda path: _cli(path, False, *CLI_PLAN),
    "cli-plan-store": lambda path: _cli(path, True, *CLI_PLAN),
}
NAMES = list(CAPTURES)


def capture(name: str, path: Path) -> bytes:
    """One capture through entry point ``name``, simulated afresh.

    The process memo is dropped first and every ``--store`` run gets an
    empty store, so each call really simulates.
    """
    path.mkdir(parents=True)
    campaigns.clear_cache()
    return CAPTURES[name](path)


def capture_all(names, root: Path) -> dict:
    return {name: capture(name, root / name) for name in names}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module", autouse=True)
def no_persistent_store():
    saved_env = os.environ.pop(STORE_ENV_VAR, None)
    saved_store = campaigns.get_store()
    campaigns.set_store(None)
    yield
    campaigns.set_store(saved_store)
    if saved_env is not None:
        os.environ[STORE_ENV_VAR] = saved_env


@pytest.fixture(scope="module")
def forward(tmp_path_factory):
    """Every entry point once, in declaration order."""
    return capture_all(NAMES, tmp_path_factory.mktemp("forward"))


@pytest.fixture(scope="module")
def fresh_process(tmp_path_factory):
    """sha256 of every entry point's bytes, computed in a new interpreter."""
    root = tmp_path_factory.mktemp("fresh")
    env = dict(os.environ)
    env.pop(STORE_ENV_VAR, None)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [part for part in env.get("PYTHONPATH", "").split(os.pathsep)
                 if part])
    script = ("import json, sys\n"
              "from pathlib import Path\n"
              "import tests.test_capture_determinism as t\n"
              "captures = t.capture_all(t.NAMES, Path(sys.argv[1]))\n"
              "print(json.dumps({name: t.digest(data)"
              " for name, data in captures.items()}))\n")
    repo_root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script, str(root)],
                          cwd=repo_root, env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_twice_in_one_process_is_byte_identical(name, forward, tmp_path):
    assert forward[name]
    assert capture(name, tmp_path / "again") == forward[name]


def test_reversed_order_is_byte_identical(forward, tmp_path):
    backwards = capture_all(list(reversed(NAMES)), tmp_path)
    assert {name: digest(data) for name, data in backwards.items()} == {
        name: digest(data) for name, data in forward.items()}


@pytest.mark.parametrize("name", NAMES)
def test_fresh_process_is_byte_identical(name, forward, fresh_process):
    assert fresh_process[name] == digest(forward[name])


@pytest.mark.parametrize("kind", ["job", "plan"])
def test_store_only_caches(kind, forward):
    assert forward[f"cli-{kind}-store"] == forward[f"cli-{kind}"]


def test_run_capture_is_the_capture_point(forward, tmp_path):
    spec = ClusterSpec(num_nodes=NODES, hosts_per_rack=4)
    _, trace = CapturePoint.from_configs("terasort", GB, SEED, spec,
                                         HadoopConfig()).simulate()
    assert _jsonl([trace], tmp_path) == forward["run_capture-job"]
    assert trace.meta.job_id == "job_terasort_7c4a431bef"


def test_point_keys_are_pinned():
    """Store and logical keys, as recorded before this contract existed."""
    spec = ClusterSpec(num_nodes=4, hosts_per_rack=4)
    job = CapturePoint.from_configs("terasort", GB, SEED, spec, HadoopConfig())
    assert job.key() == ("0897fcfab45772f90dbd61cc09a9fc2c"
                         "17dcc3501435e231b1d1aa63f693f2e1")
    assert job.logical_key() == ("7c4a431bef8f78127e9ae8fce21a9b4e"
                                 "93a364c8af7e9ec86833f85aacfa54d3")
    plan = PlanPoint.from_configs("tpcx-hs", SEED, spec, HadoopConfig(),
                                  {"scale": GB})
    assert plan.key() == ("5b457f3b3b104447a46fcc14970dcdc4"
                          "0560519f714924d758cbc723f4110b29")
    assert plan.logical_key() == ("d59f5aa22abaa16771468ec7167e8a3e"
                                  "5413795036353211019332d0e0fa962c")
