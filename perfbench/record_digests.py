"""Record the sha256 of each workload's output into ``digests.json``.

Run from the repository root after a change that is *meant* to change
the captured bytes (a perf change must not)::

    python3 perfbench/record_digests.py

Full-size digests are recorded for every capture seed of the pool a
benchmark run draws from (``RECORDED_SEEDS``, about twenty minutes on
two cores); smoke digests only for the capture seeds of
``--seed DEFAULT_SEED``, the one the benchmark's own tests run.  The
benchmark refuses a run whose capture seeds have no recorded digest.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import DIGESTS, OUT_DIR, use_checkout_src  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", default=None)
    args = parser.parse_args(argv)

    use_checkout_src()
    from perfbench.workloads import (
        DEFAULT_SEED,
        RECORDED_SEEDS,
        WORKLOADS,
        Workload,
        capture_seeds,
        fresh_dir,
        sha256_file,
    )

    recorded = (json.loads(DIGESTS.read_text()) if DIGESTS.is_file()
                else {})
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True,
                            cwd=HERE.parent).stdout.strip()
    recorded["recorded_at_commit"] = commit or "unknown"
    workdir = fresh_dir(OUT_DIR, "record")
    try:
        for name in args.workload or WORKLOADS:
            for smoke in (True, False):
                seeds = (capture_seeds(DEFAULT_SEED) if smoke
                         else range(RECORDED_SEEDS))
                table = {}
                recorded.setdefault("smoke" if smoke else "full",
                                    {})[name] = table
                for seed in seeds:
                    workload = Workload(name, seed, smoke=smoke)
                    opdir = fresh_dir(workdir, "op")
                    result = workload.collect(workload.run(opdir))
                    table[str(seed)] = sha256_file(result.output)
                    print(f"{name} smoke={smoke} seed={seed} "
                          f"{table[str(seed)][:16]}", flush=True)
                DIGESTS.write_text(json.dumps(recorded, indent=1,
                                              sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
