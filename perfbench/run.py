"""Serving benchmark: steady-state offers/s, offer latency, decision quality.

Run from the repository root::

    python3 perfbench/run.py --workload churn-offer --seed 1 --seconds 16 --trace 0

``--workload all`` runs every workload in turn.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
and untraced windows and prints the per-layer metrics. A report goes to
standard error and to ``perfbench/out/``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Failed output checks make ``correct`` false and the exit
code 1. The program is imported from ``src/`` beside this directory;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_repeat(name: str, record: dict, failures: list[str]) -> None:
    """Decision-derived values must repeat across runs at one seed.

    The first run at a seed in this checkout stores its values; later
    runs (traced or not) must reproduce them exactly.
    """
    path = OUT / "records" / f"{name}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        if stored != record:
            failures.append(f"decision-derived values differ from {path}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy

        import harness
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the program under {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        workloads = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        workloads = [WORKLOADS[args.workload]]
    else:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    return max(
        run_workload(workload, args, harness, numpy.__version__)
        for workload in workloads
    )


def run_workload(workload, args, harness, numpy_version: str) -> int:
    """Run one workload and print its metrics; 1 if a check failed."""
    run = harness.Run(workload, args.seed, args.seconds, bool(args.trace))
    run.execute()
    record = run.records[0]
    check_repeat(f"{workload.name}-seed{args.seed}", record, run.failures)

    if args.trace:
        metrics = harness.per_layer(run)
        windows = run.windows + run.traced_windows
    else:
        metrics = harness.end_to_end(run)
        windows = run.windows
    metrics_json = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    environment = {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "batch_backend": run.batch_backend or "n/a (shard workers)",
    }
    report = {
        "workload": workload.name,
        "why": workload.why,
        "environment": environment,
        "windows": {
            "untraced": len(run.windows),
            "traced": len(run.traced_windows),
        },
        "offers_per_window": record["offers"],
        "by_window": {
            "offers_per_s": [w.offers_per_s for w in run.windows],
            "offer_p50_us": [w.latency(0.5) * 1e6 for w in run.windows],
            "offer_p99_us": [w.latency(0.99) * 1e6 for w in run.windows],
            "peak_rss_mb": [w.peak_rss_mb for w in run.windows],
            "slowdown": [harness.window_slowdown(w) for w in run.windows],
        },
        "machine_slowdown": harness.run_slowdown(windows),
        "wall_timings": harness.wall_timings(run),
        "setup_s_by_setup": run.setup_times,
        "occupancy": harness.occupancy_report(run),
        "error_rate": failed / attempted,
        "decision_record": record,
        "failures": run.failures,
        "metrics": metrics_json,
    }
    if workload.single_offers:
        report["offer_latency_by_class_us"] = {
            name: {
                "samples": n, "p50": p50 * 1e6, "p99": p99 * 1e6,
                # Ten samples beyond the 99th percentile need 1000.
                "p99_supported": n >= 1000,
            }
            for name, (n, p50, p99) in harness.class_latencies(run).items()
        }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if run.tracer is not None:
        run.tracer.write(OUT / f"{stem}-spans.jsonl")

    print(json.dumps(report, indent=1), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit}")
    print(f"{'error_rate':28s} {failed / attempted:16.6g} ratio")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json,
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
