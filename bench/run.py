"""gossipgp benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src, and inputs and outputs go under ./.bench_work. One workload runs at a
time, closed loop, from this single process. Each sample is a fresh
interpreter (bench/sample.py) that loads the scenario, runs it and writes
metrics.csv, as a command-line user does; samples repeat until S seconds
are used. No BLAS or OpenMP thread variable is set; the inherited values are
recorded with the result.

--trace 0 reports the end-to-end metrics: median run_s, median setup_s over
every process started (setup-only probes included) and median peak RSS.
--trace 1 alternates untraced and traced samples and reports per-layer
calls, self time and counts from the traced ones, plus the tracing overhead
(median traced run_s minus median untraced run_s).

Every sample's metrics.csv is checked: all requested cells finite, final
rmse (and w2) under the workload's ceiling, agents equal where the topology
makes them so, repeatable within the run, and, for seeds 0 to 10, equal at
rtol 1e-9 to bench/reference/<workload>/seed<N>.csv. A failed check counts
as a failed sample. The last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from spans import self_times  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_SEEDS, WORKLOADS, Workload  # noqa: E402

HARD_LIMIT_S = 170.0  # every sample is killed by then, so a run ends within 180 s
SETUP_PROBES = 4
MIN_SAMPLES = 3
RTOL = 1e-9  # cross-version tolerance for metrics.csv
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CSV_HEADER = ["t", "agent_id", "rmse", "npll", "w2_to_centralized"]
COLUMN = {"rmse": "rmse", "npll": "npll", "w2": "w2_to_centralized"}

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Public functions whose calls and self time the traced run reports.
TRACED_FUNCTIONS = (
    "features.feature_matrix",
    "info_filter.predict_batch",
    "info_filter.posterior_moments",
    "info_filter.apply_increment",
    "info_filter.cho_factor",
    "robust.weights_for",
    "robust.robust_increment",
    "dynamics.apply_forgetting",
    "dynamics.augment_time_matrix",
    "consensus.consensus_sum",
    "ensemble.mixture_predict_batch",
    "ensemble.update_evidence",
    "ensemble.init_ensemble",
    "harness.metrics.wasserstein2_gaussians",
    "harness.metrics.rmse",
    "harness.metrics.npll",
    "harness.metrics.write_metrics_csv",
    "harness.streams.load_grid_dataset",
    "harness.streams.synth_stream",
    "harness.streams.inject_outliers",
    "harness.config.load_scenario",
    "harness.runner.materialize_stream",
    "harness.runner.run_scenario",
)

# Counts measured at layer boundaries, and counts computed from them and the
# scenario's dimensions (prefix "computed."), with their units.
COUNTS = {
    "features.feature_matrix.rows": "count",
    "info_filter.jitter_retries": "count",
    "robust.downweighted": "count",
    "robust.zeroed": "count",
    "consensus.floats_per_agent_epoch": "floats",
    "consensus.messages_per_epoch": "count",
    "harness.streams.rows": "count",
    "computed.cholesky_flops": "flop",
    "computed.eigh_calls": "count",
    "computed.factorizations_per_epoch": "count",
    "computed.factorization_target_per_epoch": "count",
    "trace.overhead_s": "s",
}

# Stage entry points whose inner work is itself traced, so their self time
# alone says little: these also report total (inclusive) seconds.
STAGES = (
    "harness.config.load_scenario",
    "harness.runner.materialize_stream",
)

PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in TRACED_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{fn}.total_s": "s" for fn in STAGES},
    **COUNTS,
}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


class Sampler:
    """Samples of one workload at one seed, with their checks."""

    def __init__(self, root: Path, workload: Workload, seed: int):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.workdir = root / ".bench_work" / workload.name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.scenario = workload.prepare(seed, self.workdir / "input")
        with open(self.scenario) as fp:
            self.requested = yaml.safe_load(fp)["eval"]["metrics"]
        self.reference = (
            read_metrics(workload.reference(seed)) if seed in REFERENCE_SEEDS else None
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p
        )
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.walls: list[float] = []
        self.first_rows: dict | None = None
        self.reports: list[dict] = []  # passing full samples, in order
        self._count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def fits(self, count: int, seconds: float) -> bool:
        """Whether `count` more typical samples end within the window (and the hard limit)."""
        limit = min(seconds, HARD_LIMIT_S - 10.0)
        return self.elapsed() + count * statistics.median(self.walls or [0.0]) <= limit

    def _fail(self, message: str, counted: bool) -> None:
        self.problems.append(message)
        if counted:
            self.failed += 1

    def sample(self, setup_only: bool = False, trace: bool = False) -> None:
        """One fresh-interpreter sample; a passing full sample is added to `reports`."""
        self._count += 1
        out = self.workdir / f"sample{self._count}"
        spans_path = self.workdir / f"sample{self._count}.spans.json"
        cmd = [sys.executable, str(BENCH_DIR / "sample.py"), str(self.scenario), str(out)]
        if setup_only:
            cmd.append("--setup-only")
        else:
            self.attempted += 1
        if trace:
            cmd += ["--trace", str(spans_path)]
        label = f"sample {self._count}"
        timeout = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                timeout=timeout, env=self.env,
            )
        except subprocess.TimeoutExpired:
            self._fail(f"{label} timed out after {timeout:.0f} s", not setup_only)
            return
        if not setup_only:
            self.walls.append(time.monotonic() - t0)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self._fail(f"{label} exited {proc.returncode}: {tail[0]}", not setup_only)
            return
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        module = Path(report["module"]).resolve()
        if not module.is_relative_to(self.src.resolve()):
            self._fail(f"{label} imported gossipgp from {module}, not {self.src}",
                       not setup_only)
            return
        self.setup_s.append(report["setup_s"])
        if setup_only:
            return
        problems = self.check(out / "metrics.csv")
        if problems:
            self._fail(f"{label}: " + "; ".join(problems), True)
            return
        report["metrics_csv"] = (out / "metrics.csv").read_bytes()
        if trace:
            with open(spans_path) as fp:
                report["trace"] = json.load(fp)
        self.reports.append(report)

    def check(self, path: Path) -> list[str]:
        try:
            rows = read_metrics(path)
        except (OSError, ValueError) as exc:
            return [f"unreadable metrics.csv: {exc}"]
        problems = []
        wanted = {COLUMN[m] for m in self.requested}
        for (t, k), cells in rows.items():
            for col, value in cells.items():
                if col in wanted and (value is None or not math.isfinite(value)):
                    problems.append(f"{col} at t={t} agent {k} is {value}")
                if col not in wanted and value is not None:
                    problems.append(f"unrequested {col} at t={t} agent {k}")
        if problems or not rows:
            return problems or ["metrics.csv has no rows"]
        final = final_means(rows)
        if not final["rmse"] < self.workload.rmse_ceiling:
            problems.append(
                f"final_rmse {final['rmse']} not under {self.workload.rmse_ceiling}"
            )
        ceiling = self.workload.w2_ceiling
        if ceiling is not None and not final["w2_to_centralized"] < ceiling:
            problems.append(f"final_w2 {final['w2_to_centralized']} not under {ceiling}")
        if self.workload.agents_agree:
            for (t, k), cells in rows.items():
                if not cells_close(cells, rows[(t, 0)]):
                    problems.append(f"agent {k} differs from agent 0 at t={t}")
        if self.reference is not None and not rows_close(rows, self.reference):
            problems.append(f"differs from the seed-{self.seed} reference at rtol {RTOL}")
        if self.first_rows is None:
            self.first_rows = rows
        elif not rows_close(rows, self.first_rows):
            problems.append("differs from the first sample of this run")
        return problems


def read_metrics(path: Path) -> dict:
    """metrics.csv as {(t, agent): {column: float or None}}."""
    with open(path, newline="") as fp:
        reader = csv.reader(fp)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        rows = {}
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"malformed row {row!r}")
            rows[(int(row[0]), int(row[1]))] = {
                col: float(cell) if cell else None
                for col, cell in zip(CSV_HEADER[2:], row[2:])
            }
    return rows


def cells_close(a: dict, b: dict) -> bool:
    return all(
        (a[c] is None and b[c] is None)
        or (a[c] is not None and b[c] is not None
            and math.isclose(a[c], b[c], rel_tol=RTOL, abs_tol=0.0))
        for c in CSV_HEADER[2:]
    )


def rows_close(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(cells_close(a[key], b[key]) for key in a)


def final_means(rows: dict) -> dict:
    """Mean over agents of each column at the last evaluated epoch."""
    last = max(t for t, _ in rows)
    final = [cells for (t, _), cells in rows.items() if t == last]
    return {
        col: (statistics.fmean(c[col] for c in final) if final[0][col] is not None else None)
        for col in CSV_HEADER[2:]
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure_end_to_end(sampler: Sampler, seconds: float) -> tuple[dict, list[str]]:
    for _ in range(SETUP_PROBES):
        sampler.sample(setup_only=True)
    while True:
        sampler.sample()
        if sampler.attempted >= MIN_SAMPLES and not sampler.fits(1, seconds):
            break
    samples = sampler.reports
    if not samples:
        raise BenchError("no sample succeeded: " + "; ".join(sampler.problems))
    run_s = [s["run_s"] for s in samples]
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(sampler.setup_s),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    lines = [
        f"run_s: median {metrics['run_s']:.4f} s, max {max(run_s):.4f} s over n={len(run_s)} "
        f"samples (too few for a tail percentile with 10 samples beyond it)",
        f"setup_s: median {metrics['setup_s']:.4f} s, n={len(sampler.setup_s)} "
        f"({SETUP_PROBES} setup-only probes)",
        f"peak_rss_mb: median {metrics['peak_rss_mb']:.1f} MB",
    ]
    return metrics, lines


def measure_layers(sampler: Sampler, seconds: float) -> tuple[dict, list[str]]:
    while True:
        sampler.sample()
        sampler.sample(trace=True)
        if not sampler.fits(2, seconds):
            break
    traced = [r for r in sampler.reports if "trace" in r]
    untraced = [r for r in sampler.reports if "trace" not in r]
    if not (untraced and traced):
        raise BenchError("no traced/untraced pair succeeded: " + "; ".join(sampler.problems))

    per_sample = [
        (*self_times(report["trace"]["spans"]), report["trace"]["counts"])
        for report in traced
    ]
    calls, _, _, counts = per_sample[0]
    if any(c != calls or n != counts for c, _, _, n in per_sample[1:]):
        sampler.problems.append("traced counts differ between traced samples")
    dims = traced[0]["dims"]
    epochs = dims["epochs"]
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = calls.get(fn, 0)
        metrics[f"{fn}.self_s"] = statistics.median(s.get(fn, 0.0) for _, s, _, _ in per_sample)
    for fn in STAGES:
        metrics[f"{fn}.total_s"] = statistics.median(t.get(fn, 0.0) for _, _, t, _ in per_sample)
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in untraced))
    metrics.update({
        "features.feature_matrix.rows": counts.get("features.feature_matrix.rows", 0),
        "info_filter.jitter_retries": counts.get("info_filter.jitter_retries", 0),
        "robust.downweighted": counts.get("robust.downweighted", 0),
        "robust.zeroed": counts.get("robust.zeroed", 0),
        "consensus.floats_per_agent_epoch": counts.get("consensus.floats_sent", 0) / epochs,
        "consensus.messages_per_epoch": counts.get("consensus.messages", 0) / epochs,
        "harness.streams.rows": counts.get("harness.streams.rows", 0),
        "computed.cholesky_flops": counts.get("computed.cholesky_flops", 0.0),
        "computed.eigh_calls": 2 * calls.get("harness.metrics.wasserstein2_gaussians", 0),
        "computed.factorizations_per_epoch": calls.get("info_filter.cho_factor", 0) / epochs,
        "computed.factorization_target_per_epoch":
            dims["members"] * (dims["agents"] + (1 if dims["oracle"] else 0)),
        "trace.overhead_s": overhead,
    })
    lines = [
        f"traced {len(traced)} and untraced {len(untraced)} samples; tracing overhead "
        f"{overhead:+.4f} s on a median untraced run_s of "
        f"{statistics.median(r['run_s'] for r in untraced):.4f} s",
        "computed.* counts are derived from traced counts and scenario dimensions "
        "(Cholesky flops = sum of n^3/3; two eigh per W2 pair)",
    ]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gossipgp" / "__init__.py").is_file():
        print(f"no gossipgp source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    try:
        sampler = Sampler(root, workload, args.seed)
        if args.trace:
            values, lines = measure_layers(sampler, args.seconds)
            units = PER_LAYER
        else:
            values, lines = measure_end_to_end(sampler, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env = environment()
    final = final_means(sampler.first_rows)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{sampler.attempted - sampler.failed} of {sampler.attempted} samples passed "
          f"in {sampler.elapsed():.1f} s")
    for line in lines:
        print(line)
    print(f"final_rmse: {final['rmse']:.6g} (ceiling {workload.rmse_ceiling}); "
          f"final_npll: {final['npll']:.6g} nats; final_w2: "
          + ("not requested" if final["w2_to_centralized"] is None
             else f"{final['w2_to_centralized']:.6g} (ceiling {workload.w2_ceiling})"))
    for problem in sampler.problems:
        print(f"check failed: {problem}")
    print("env: " + json.dumps(env))
    result = {
        "correct": not sampler.problems,
        "attempted": sampler.attempted,
        "failed": sampler.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(sampler.workdir / "result.json", "w") as fp:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "trace": args.trace, "env": env}, fp, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
