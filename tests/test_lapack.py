"""The loop's BLAS/LAPACK, reached without importing the scipy.linalg package.

Importing scipy.linalg costs about 0.25 s per process, and a scenario runs
as its own process. gossipgp._lapack loads scipy's f2py extensions on their
own instead. These tests check that no package import pulls scipy.linalg
in, that a run imports nothing once the package is loaded, and that the
direct LAPACK calls give bitwise what scipy.linalg's functions give.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gossipgp
import gossipgp.info_filter as info_filter_mod
from gossipgp import InfoState, _lapack, factorize
from gossipgp._lapack import eigvalsh
from gossipgp.info_filter import _lower

from conftest import pack


def run_fresh(code: str, *args: str) -> str:
    """stdout of `code` run by a fresh interpreter that imports this checkout's package."""
    src = str(Path(gossipgp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_package_import_leaves_scipy_linalg_out():
    code = "import sys, gossipgp, gossipgp.harness; print('scipy.linalg' in sys.modules)"
    assert run_fresh(code) == "False"


def test_missing_extension_is_an_import_error_that_names_it():
    with pytest.raises(ImportError, match=r"extension scipy\.linalg\._fnone is not in "):
        _lapack._extension("_fnone")
    assert "scipy.linalg._fnone" not in sys.modules


@pytest.mark.parametrize("first", ["gossipgp", "scipy.linalg"])
def test_scipy_linalg_shares_the_loaded_extensions(first):
    # Either import order leaves one module object per extension.
    imports = ["import gossipgp._lapack as L", "import scipy.linalg"]
    code = "\n".join(imports if first == "gossipgp" else imports[::-1]) + (
        "\nprint(scipy.linalg.blas._fblas is L.blas, scipy.linalg.lapack._flapack is L.lapack,"
        " scipy.linalg.lapack.dpotrf is L.lapack.dpotrf)"
    )
    assert run_fresh(code) == "True True True"


RUN_IMPORTS = """
import sys
from pathlib import Path
from gossipgp.harness import (run_scenario, scenario_from_dict, write_metrics_csv,
                              write_synthetic_weather_csv)

out = Path(sys.argv[1])
grid = out / "w.csv"
write_synthetic_weather_csv(grid, nlat=6, nlon=8, epochs=3, seed=4)
common = {
    "topology": {"kind": "ring", "num_agents": 4},
    "ensemble": {"shared_J": 8, "temporal_lengthscale": 3.0,
                 "members": [{"lengthscales": 0.4}, {"lengthscales": 0.2}]},
    "dynamics": {"mode": "b2p", "nu": 0.9},
    "robust": {"kind": "hampel"},
}
streams = {
    "grid_file": ({"kind": "grid_file", "path": str(grid)}, "stitched"),
    "synthetic": ({"kind": "synthetic",
                   "synthetic": {"epochs": 3, "batch_size": 10, "num_eval_points": 20}},
                  "global"),
}
kind = sys.argv[2]
stream, mode = streams[kind]
scenario = scenario_from_dict({**common, "stream": stream,
                               "eval": {"mode": mode, "metrics": ["rmse", "npll", "w2"]}})
before = set(sys.modules)
result = run_scenario(scenario)
write_metrics_csv(out / "metrics.csv", result.records)
print(sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("kind", ["grid_file", "synthetic"])
def test_run_imports_nothing(tmp_path, kind):
    # A module a run imports on first use would be timed as part of the run.
    assert run_fresh(RUN_IMPORTS, str(tmp_path), kind) == "[]"


def random_spd_state(rng, dim):
    """A packed SPD state with a random eta, as the runner holds one."""
    G = rng.standard_normal((dim, 2 * dim))
    D = G @ G.T / dim + 0.1 * np.eye(dim)
    return InfoState(D=pack(D), eta=rng.standard_normal(dim),
                     obs_variance=0.1, prior_variance=1.0)


@pytest.mark.parametrize("dim", [1, 6, 40, 101])
def test_factor_and_mean_are_scipys_bits(dim):
    # factorize calls dpotrf and dpotrs with cho_factor's and cho_solve's
    # arguments, so the factor and the mean are theirs bit for bit.
    rng = np.random.default_rng(dim)
    for _ in range(3):
        state = random_spd_state(rng, dim)
        factor = factorize(state)
        L, lower = scipy.linalg.cho_factor(_lower(state.D, dim), lower=True,
                                           overwrite_a=True, check_finite=False)
        mu = scipy.linalg.cho_solve((L, lower), state.eta, check_finite=False)
        assert factor.L.tobytes() == L.tobytes() and factor.L.flags.f_contiguous
        assert factor.mu.tobytes() == mu.tobytes()


def test_mean_leaves_eta_in_place():
    state = random_spd_state(np.random.default_rng(0), 8)
    eta = state.eta.copy()
    factorize(state)
    assert state.eta.tobytes() == eta.tobytes()


@pytest.mark.parametrize("dim", [1, 5, 40, 101])
@pytest.mark.parametrize("lower", [0, 1])
def test_eigvalsh_gives_scipys_bits(dim, lower):
    # The helper makes the call scipy.linalg.eigvalsh's default driver makes.
    rng = np.random.default_rng(10 * dim + lower)
    for _ in range(3):
        G = rng.standard_normal((dim, dim))
        a = np.asfortranarray(G + G.T)
        # Garbage in the triangle not read: only the named one counts.
        a[np.triu_indices(dim, 1) if lower else np.tril_indices(dim, -1)] = np.nan
        expected = scipy.linalg.eigvalsh(a.copy(order="F"), lower=bool(lower),
                                         overwrite_a=True, check_finite=False)
        got = eigvalsh(a.copy(order="F"), lower=lower, overwrite_a=1)
        assert got.tobytes() == expected.tobytes()


def test_illegal_dpotrf_argument_is_a_value_error(monkeypatch):
    # Only a LAPACK argument error has info < 0; it is not a failed
    # factorization, so it is neither retried nor reported as degenerate.
    monkeypatch.setattr(info_filter_mod.lapack, "dpotrf", lambda a, **kwargs: (a, -4))
    state = random_spd_state(np.random.default_rng(1), 4)
    with pytest.raises(ValueError, match="dpotrf rejected its argument 4"):
        factorize(state)
