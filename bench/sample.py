"""One benchmark sample in a fresh interpreter, run as a user runs a scenario.

    python3 bench/sample.py SCENARIO OUT_DIR --t0 T [--setup-only] [--trace SPANS_JSON]

T is the caller's time.monotonic() taken just before it started this
process, so setup_s covers interpreter start, imports and load_scenario.
run_s covers run_scenario until metrics.csv is written. Prints one JSON line.
With --trace, public library functions are wrapped (see spans.py) and the
spans are written to SPANS_JSON when the run ends.
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("scenario")
    parser.add_argument("out_dir")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    import gossipgp
    from gossipgp.harness import config, metrics, runner

    scenario = config.load_scenario(args.scenario)
    report = {"setup_s": time.monotonic() - args.t0, "module": gossipgp.__file__}
    if not args.setup_only:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        result = runner.run_scenario(scenario)
        metrics.write_metrics_csv(out / "metrics.csv", result.records)
        end = time.perf_counter()
        report["run_s"] = end - start
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["dims"] = {
            "agents": scenario.num_agents,
            "members": scenario.ensemble.num_members,
            "epochs": len(result.stream.epochs),
            "oracle": result.oracle_state is not None,
        }
        if tracer is not None:
            with open(args.trace, "w") as fp:
                json.dump({"run_start": start, "run_end": end, "spans": tracer.spans,
                           "counts": dict(tracer.counts)}, fp)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
