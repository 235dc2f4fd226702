"""Rewrite bench/reference/<workload>/seed<N>.csv, one sample per reference seed.

    python3 bench/update_reference.py [WORKLOAD ...]

Run from the root of a source checkout. Only a change that is meant to move
results beyond rtol 1e-9 should rewrite the references, and it says so.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEEDS, WORKLOADS


def main(names) -> None:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in REFERENCE_SEEDS:
            workdir = root / ".bench_work" / "reference" / name
            shutil.rmtree(workdir, ignore_errors=True)
            scenario = workload.prepare(seed, workdir / "input")
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve().parent / "sample.py"),
                 str(scenario), str(workdir / "out"), "--t0", repr(time.monotonic())],
                check=True, env=env, stdout=subprocess.DEVNULL,
            )
            target = workload.reference(seed)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(workdir / "out" / "metrics.csv", target)
        print(f"wrote {len(REFERENCE_SEEDS)} references under {target.parent}")


if __name__ == "__main__":
    main(sys.argv[1:])
