#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads (four of them gated).

    python3 bench/run.py --workload <name|all> --seed N [--seconds S]
                         [--trace 0|1 | --traced] [--smoke] [--json OUT]
    python3 bench/run.py --check-repeat [--seed N] [--smoke]

A single workload prints its metrics by name with unit and direction and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is non-zero when any operation failed.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(1, str(BENCH_DIR.parent / "src"))

import common  # noqa: E402
import spec  # noqa: E402

MODULES = {
    "social_interp": "wl_interp",
    "road_interp": "wl_interp",
    "native": "wl_native",
    "evolve": "wl_evolve",
    "serve_mixed": "wl_serve",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*spec.ALL_WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny graphs, a few seconds in all")
    parser.add_argument("--json", metavar="OUT", help="also write the full result document")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--print-spec", action="store_true", help="print BENCHMARK.json")
    args = parser.parse_args(argv)
    args.trace = 1 if args.traced else args.trace
    return args


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    workdir = common.make_workdir(args.workload)
    common.isolate_env(workdir)
    # A SIGTERM (driver timeout) must still unwind: kill the server, drop the workdir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spans = common.SpanLog(enabled=bool(args.trace))
    cfg = common.Config(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=workdir,
        spans=spans,
    )
    try:
        module = importlib.import_module(MODULES[args.workload])
        started = time.perf_counter()
        result = module.run(cfg)
        wall_s = time.perf_counter() - started
        document = report(args, result, wall_s)
        if args.trace:
            span_path = common.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans.write(span_path)
            document["span_file"] = str(span_path.relative_to(common.ROOT))
            print(f"# spans: {document['span_file']} ({len(spans.spans)} spans)")
        if args.json:
            Path(args.json).write_text(json.dumps(document, indent=2))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = result["tally"]
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": document["metrics"],
            }
        )
    )
    return 0 if tally.failed == 0 else 1


def report(args, result: dict, wall_s: float) -> dict:
    """Print every metric by name, unit and direction; return the document."""
    tally = result["tally"]
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}  wall {wall_s:.1f} s")
    for key, value in result["config"].items():
        print(f"#   {key}: {value}")
    metrics: dict[str, dict] = {}
    if args.trace:
        for name, (unit, better) in spec.PER_LAYER.items():
            metrics[name] = {"value": float(result["layers"].get(name, 0.0)), "unit": unit}
            if name in result["layers"]:
                print(f"{name:<44} {metrics[name]['value']:>16.4f} {unit:<9} ({better} is better)")
        mismatch = set(result["layers"]) ^ spec.measured_by(args.workload)
        if mismatch:
            raise KeyError(f"per-layer metrics differ from spec.MEASURED_BY: {sorted(mismatch)}")
    else:
        for name, (unit, better, bound) in spec.END_TO_END.items():
            metrics[name] = {"value": float(result["e2e"][name]), "unit": unit}
            print(f"{name:<44} {metrics[name]['value']:>16.4f} {unit:<9} ({better} is better, bound {bound})")
        for name, value in result["extras"].items():
            unit, better = spec.PER_LAYER[spec.EXTRAS[name]]
            print(f"{name:<44} {float(value):>16.4f} {unit:<9} ({better} is better)")
    print(f"{'ops_attempted':<44} {tally.attempted:>16d}")
    print(f"{'ops_failed':<44} {tally.failed:>16d}")
    for message in tally.messages:
        print(f"# FAILED: {message}")
    return {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "claim": None,
        "machine": common.fingerprint(args.seed),
        "config": result["config"],
        "metrics": metrics,
        "extras": {k: float(v) for k, v in result["extras"].items()},
        "ops_attempted": tally.attempted,
        "ops_failed": tally.failed,
        "failures": tally.messages,
        "wall_s": wall_s,
    }


# ---------------------------------------------------------------------------
# Several workloads, each in its own process (so peak RSS is its own)
# ---------------------------------------------------------------------------
def spawn(workload: str, args: argparse.Namespace, echo: bool = True) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    if echo:
        sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: no result (exit code {done.returncode})")
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace) -> int:
    results = {name: spawn(name, args) for name in spec.ALL_WORKLOADS}
    failed = sum(r["failed"] for r in results.values())
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2))
    print(json.dumps({"correct": failed == 0, "failed": failed, "workloads": results}))
    return 0 if failed == 0 else 1


def check_repeat(args: argparse.Namespace) -> int:
    """Run every workload twice, the second time in reverse order.  The
    untraced pair must agree within each end-to-end bound; the traced pair
    must agree exactly on the count metrics."""
    names = list(spec.ALL_WORKLOADS)
    problems = 0
    for trace in (0, 1):
        args.trace = trace
        first = {name: spawn(name, args, echo=False) for name in names}
        second = {name: spawn(name, args, echo=False) for name in reversed(names)}
        for name in names:
            problems += first[name]["failed"] + second[name]["failed"]
            for metric, entry in first[name]["metrics"].items():
                va, vb = entry["value"], second[name]["metrics"][metric]["value"]
                if trace and metric not in spec.EXACT_COUNTS:
                    continue
                if trace:
                    ok, rule = va == vb, "exact"
                else:
                    bound = spec.END_TO_END[metric][2]
                    ok, rule = abs(vb - va) <= bound * va, f"within {bound}"
                problems += not ok
                diff = (vb - va) / va if va else 0.0
                print(f"{'ok  ' if ok else 'FAIL'} {name:<14} {metric:<36} {va:>14.4f} {vb:>14.4f} {diff:>+8.2%}  ({rule})")
    print(f"check-repeat: {problems} problem(s)")
    return 0 if problems == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.print_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    if args.check_repeat:
        return check_repeat(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
