"""The benchmark's workloads: each turns a seed into a scenario file and its inputs.

Generation happens before any sample starts and is never timed. The program
only sees the scenario file written here (and, for weather_stream, the grid
file it names).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

DEFAULT_SEED = 0
# Seeds with a stored metrics.csv reference (bench/reference/<workload>/seed<N>.csv).
REFERENCE_SEEDS = range(0, 11)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], dict]  # (seed, workdir) -> scenario mapping
    rmse_ceiling: float  # final_rmse must stay below this for every seed
    w2_ceiling: float | None = None  # same for final_w2, where w2 is requested
    agents_agree: bool = False  # complete graph, one round: every agent equals the fusion center

    def prepare(self, seed: int, workdir: Path) -> Path:
        """Write the seeded inputs and the scenario file; return the scenario path."""
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "scenario.yaml"
        path.write_text(yaml.safe_dump(self.build(seed, workdir), sort_keys=False))
        return path

    def reference(self, seed: int) -> Path:
        return Path(__file__).resolve().parent / "reference" / self.name / f"seed{seed}.csv"


def _weather_stream(seed: int, workdir: Path) -> dict:
    # 60x60 sites x 12 epochs: every agent predicts at all 3600 sites per
    # epoch. Past about 16 epochs this kernel (J=50, temporal lengthscale 4)
    # no longer tracks the seasonal cycle and Hampel weighting rejects the
    # data, so rmse grows without bound; 12 epochs keeps the run inside the
    # regime where accuracy is meaningful.
    from gossipgp.harness.streams import write_synthetic_weather_csv

    grid = workdir / "weather.csv"
    write_synthetic_weather_csv(grid, nlat=60, nlon=60, epochs=12, seed=seed)
    return {
        "seed": seed,
        "topology": {"kind": "complete", "num_agents": 4},
        "consensus": {"rounds": 1, "mode": "sum"},
        "ensemble": {
            "shared_J": 50,
            "base_seed": 3,
            "temporal_lengthscale": 4.0,
            "members": [{"lengthscales": [0.25, 0.25], "prior_variance": 1.0,
                         "obs_variance": 0.05}],
        },
        "dynamics": {"mode": "spatiotemporal"},
        "robust": {"kind": "hampel"},
        "stream": {"kind": "grid_file", "path": str(grid)},
        "eval": {"metrics": ["rmse", "npll"], "mode": "global", "epochs": "all"},
    }


def _ensemble_w2(seed: int, workdir: Path) -> dict:
    return {
        "seed": seed,
        "topology": {"kind": "ring", "num_agents": 6},
        "consensus": {"rounds": 4, "mode": "sum"},
        "ensemble": {
            "shared_J": 200,
            "base_seed": 0,
            "members": [{"lengthscales": [ls, ls], "prior_variance": 1.0,
                         "obs_variance": 0.05} for ls in (0.15, 0.3, 0.6)],
        },
        "dynamics": {"mode": "static"},
        "robust": {"kind": "hampel"},
        "stream": {"kind": "synthetic",
                   "synthetic": {"kind": "static_gp", "epochs": 8, "batch_size": 20}},
        "outliers": {"epoch": 4, "fraction": 0.3, "magnitude_sd": 8.0, "agents": [0],
                     "seed": seed},
        "eval": {"metrics": ["rmse", "npll", "w2"], "epochs": [4, 7]},
    }


def _sparse_gossip(seed: int, workdir: Path) -> dict:
    return {
        "seed": seed,
        "topology": {"kind": "grid", "num_agents": 16},
        "consensus": {"rounds": 60, "mode": "sum"},
        "ensemble": {
            "shared_J": 150,
            "base_seed": 0,
            "members": [{"lengthscales": [0.3, 0.3], "prior_variance": 1.0,
                         "obs_variance": 0.05}],
        },
        "dynamics": {"mode": "b2p", "nu": 0.9},
        "robust": {"kind": "none"},
        "stream": {"kind": "synthetic",
                   "synthetic": {"kind": "drifting_gp", "epochs": 12, "batch_size": 20,
                                 "drift_scale": 0.05}},
        "eval": {"metrics": ["rmse", "npll"], "epochs": [5, 11]},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weather_stream",
            why="read-heavy: 4 agents predict at 3600 grid sites every epoch at dim 100; "
                "gossip and W2 are near zero, so it bypasses consensus and W2 work",
            build=_weather_stream,
            rmse_ceiling=0.2,
            agents_agree=True,
        ),
        Workload(
            name="ensemble_w2",
            why="dense algebra at dim 400: Cholesky per agent and member, two eigh per "
                "W2 pair, M=3 mixture prediction and an outlier burst",
            build=_ensemble_w2,
            rmse_ceiling=0.15,
            w2_ceiling=1.0,
        ),
        Workload(
            name="sparse_gossip",
            why="write-heavy: 16 agents on a 4x4 grid mix 60 rounds per epoch and b2p "
                "forgetting rewrites every state; predictions are rare",
            build=_sparse_gossip,
            rmse_ceiling=0.4,
        ),
    )
}
