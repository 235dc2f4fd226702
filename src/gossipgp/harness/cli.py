"""Command-line entry points.

gossipgp run <config.yaml> --out DIR [--seed N] [--snapshots 0,5,10]
gossipgp sweep <config.yaml> --param consensus.rounds=1,2,5,10,20 --out DIR

run writes metrics.csv, config_resolved.txt, and snapshots/ under --out.
sweep repeats the scenario once per parameter value, writes each run under
--out/<leaf>_<value>/, and collects the final evaluated epoch of every run
into --out/sweep_summary.csv.

Exit codes: 0 success, 1 runtime failure (numerical or module error with
epoch/agent context, or outputs that cannot be written), 2 configuration or
input error, a scenario or grid file that cannot be read included.
"""
from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager
from pathlib import Path

import yaml

from ..info_filter import NumericalDegeneracyError
from .config import ConfigError, load_config, resolved_yaml, scenario_from_dict
from .metrics import CSV_HEADER, _row, write_metrics_csv
from .runner import RunError, RunResult, run_scenario, save_snapshot

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossipgp",
        description="Decentralized random-feature GP regression simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config", help="scenario YAML file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument(
        "--snapshots", default=None,
        help="comma-separated epochs to snapshot (overrides eval.snapshots)",
    )

    p_sweep = sub.add_parser("sweep", help="run a scenario across parameter values")
    p_sweep.add_argument("config", help="scenario YAML file")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument(
        "--param", required=True,
        help="dotted key and comma-separated values, e.g. consensus.rounds=1,2,5",
    )
    p_sweep.add_argument("--seed", type=int, default=None, help="override scenario seed")
    return parser


def _parse_epochs(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"cannot parse snapshot epochs from {text!r}") from None


def _apply_override(cfg: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = cfg
    for key in keys[:-1]:
        nxt = node.get(key)
        if nxt is None:
            nxt = {}
            node[key] = nxt
        if not isinstance(nxt, dict):
            raise ConfigError(f"cannot descend into {key!r} of --param path {dotted!r}")
        node = nxt
    node[keys[-1]] = value


@contextmanager
def _writing():
    """An OSError inside becomes a RunError: outputs that cannot be written exit 1."""
    try:
        yield
    except OSError as exc:
        raise RunError(f"cannot write outputs: {exc}") from exc


def _write_run(out_dir: Path, result: RunResult) -> None:
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "metrics.csv", result.records)
        (out_dir / "config_resolved.txt").write_text(resolved_yaml(result.scenario))
        if result.snapshots:
            snap_dir = out_dir / "snapshots"
            snap_dir.mkdir(exist_ok=True)
            for t, rows in sorted(result.snapshots.items()):
                for k in range(result.scenario.num_agents):
                    save_snapshot(snap_dir / f"epoch_{t}_agent_{k}.bin", rows[k].models)


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.snapshots is not None:
        cfg.setdefault("eval", {})["snapshots"] = _parse_epochs(args.snapshots)
    scenario = scenario_from_dict(cfg)
    result = run_scenario(scenario)
    out_dir = Path(args.out)
    _write_run(out_dir, result)
    print(f"wrote {out_dir / 'metrics.csv'} ({len(result.records)} rows)")
    if result.snapshots:
        n_files = len(result.snapshots) * scenario.num_agents
        print(f"wrote {n_files} snapshots under {out_dir / 'snapshots'}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if "=" not in args.param:
        raise ConfigError(f"--param must look like key.path=v1,v2 (got {args.param!r})")
    dotted, _, raw_values = args.param.partition("=")
    dotted = dotted.strip()
    tokens = [tok.strip() for tok in raw_values.split(",") if tok.strip() != ""]
    if not dotted or not tokens:
        raise ConfigError(f"--param must name a key and at least one value: {args.param!r}")
    leaf = dotted.split(".")[-1]

    out_dir = Path(args.out)
    runs = {}  # sub-directory -> (token, value), checked before any run starts
    for tok in tokens:
        value = yaml.safe_load(tok)
        sub_dir = out_dir / f"{leaf}_{value}"
        if sub_dir in runs:
            raise ConfigError(
                f"--param values {runs[sub_dir][0]!r} and {tok!r} would both write {sub_dir}"
            )
        runs[sub_dir] = (tok, value)
    with _writing():
        out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for sub_dir, (_, value) in runs.items():
        sub_cfg = yaml.safe_load(yaml.safe_dump(cfg))  # deep copy via round-trip
        _apply_override(sub_cfg, dotted, value)
        scenario = scenario_from_dict(sub_cfg)
        result = run_scenario(scenario)
        _write_run(sub_dir, result)
        if result.records:
            last_t = max(r.t for r in result.records)
            for r in sorted(result.records, key=lambda r: (r.t, r.agent_id)):
                if r.t == last_t:
                    summary_rows.append((value, r))
        print(f"{dotted}={value}: wrote {sub_dir / 'metrics.csv'}")

    summary_path = out_dir / "sweep_summary.csv"
    with _writing(), open(summary_path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow((dotted,) + CSV_HEADER)
        for value, r in summary_rows:
            writer.writerow([str(value)] + _row(r))
    print(f"wrote {summary_path}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ValueError, TypeError, yaml.YAMLError, OSError) as exc:
        # ConfigError, GridParseError, module validation and unreadable inputs
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RunError, NumericalDegeneracyError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
