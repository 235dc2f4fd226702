"""Cross-version result anchor: fresh runs match the committed metrics.csv files.

The golden files under tests/golden/ were written by an earlier version of
the program. Later versions may reorder floating-point work, and OpenBLAS
may pick different kernels from run to run, so the comparison is at rtol
1e-9, not byte for byte (TestDeterminism in test_runner.py keeps the
same-build byte identity). The <name>.resolved.txt files are the
config_resolved.txt echo of each scenario, and must match byte for byte.
"""
from pathlib import Path

import numpy as np
import pytest

from gossipgp.harness.config import load_config, load_scenario, resolved_yaml, scenario_from_dict
from gossipgp.harness.metrics import read_metrics_csv, write_metrics_csv
from gossipgp.harness.runner import run_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "weather_demo": ROOT / "configs" / "weather_demo.yaml",
    "ring_w2_hampel": GOLDEN / "ring_w2_hampel.yaml",
}


def _cells(records):
    return [(r.t, r.agent_id) for r in records], np.array(
        [[np.nan if v is None else v for v in (r.rmse, r.npll, r.w2_to_centralized)]
         for r in records]
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_run_matches_golden(name, tmp_path):
    cfg = load_config(CASES[name])
    if cfg["stream"]["kind"] == "grid_file":
        cfg["stream"]["path"] = str(ROOT / cfg["stream"]["path"])
    out = tmp_path / "metrics.csv"
    write_metrics_csv(out, run_scenario(scenario_from_dict(cfg)).records)
    keys, got = _cells(read_metrics_csv(out))
    want_keys, want = _cells(read_metrics_csv(GOLDEN / f"{name}.csv"))
    assert keys == want_keys
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.allclose(got, want, rtol=1e-9, atol=0.0, equal_nan=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_resolved_echo_matches_golden(name):
    # config_resolved.txt is compared byte for byte: it depends on no float work.
    want = (GOLDEN / f"{name}.resolved.txt").read_text()
    assert resolved_yaml(load_scenario(CASES[name])) == want
