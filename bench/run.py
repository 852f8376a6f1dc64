"""Benchmark harness for mixedgraphs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client on one thread runs the
workload's passes in a closed loop: each pass is a fresh process
(``worker.py``) that imports the package, builds its inputs from the seed,
runs the workload's ops back to back and checks every output.  Passes start
until ``--seconds`` have elapsed (at least ``MIN_PASSES``).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones: medians over the passes of ``wall_s`` (timed
phase) and ``peak_rss_mb`` (peak resident memory of the pass's process),
the median ``setup_s`` (import plus input generation) over the passes and
``SETUP_SAMPLES`` extra set-up-only processes before each pass, and
``ops_ok_frac`` (ops whose output checked out, over ops attempted).  The
metric names and units are those listed in ``BENCHMARK.json``.  With
``--trace 1``
untraced and traced passes alternate; the metrics are the per-layer ones
derived from the traced passes' spans, plus the tracing overhead (median
traced ``wall_s`` minus median untraced ``wall_s``).  The lines before the
last one summarise the run for a reader.

Exits with code 2, printing no result, when the checkout holds no package
source.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("lift-sweep", "exhaustive-k5", "large-graphs")
MIN_PASSES = 3
# Set-up-only processes run before each pass, so that setup_s, a short
# time, is a median over many samples.
SETUP_SAMPLES = 3
# A run must end within 180 s; a pass still running when this much of the
# run has gone is stopped and counted as failed.
RUN_LIMIT_S = 170.0
SHOWN_FAILURES = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mixedgraphs" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))

    start = time.perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setup = run_worker(args, ["--setup-only"],
                                   RUN_LIMIT_S - (time.perf_counter() - start))
                if setup.get("crashed"):
                    break
                setups.append(setup["setup_s"])
        passes.append(run_pass(args, traced, RUN_LIMIT_S - (time.perf_counter() - start)))
        if passes[-1].get("crashed"):
            break

    untraced = [p for p in passes if not p["traced"] and not p.get("crashed")]
    traced = [p for p in passes if p["traced"] and not p.get("crashed")]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = all(p["unexpected_failures"] == 0 for p in passes)
    messages = sorted({m for p in passes for m in p["failures"]})
    for message in messages[:SHOWN_FAILURES]:
        print(f"failed op: {message}")
    if len(messages) > SHOWN_FAILURES:
        print(f"failed op: ... and {len(messages) - SHOWN_FAILURES} more")

    if args.trace:
        values = trace_metrics(untraced, traced)
        listed = spec["per_layer"]
    else:
        values = end_to_end_metrics(untraced, setups, attempted, failed)
        listed = spec["end_to_end"]
    if values is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


def run_pass(args: argparse.Namespace, traced: bool, budget_s: float) -> dict:
    """Run one pass in a fresh process and return its result."""
    extra = []
    if traced:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        extra = ["--spans", str(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")]
    result = run_worker(args, extra, budget_s)
    result["traced"] = traced
    return result


def run_worker(args: argparse.Namespace, extra: list[str], budget_s: float) -> dict:
    """Run ``worker.py`` in a fresh process and return its JSON result."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed), *extra]
    crashed = {"crashed": True, "attempted": 1, "failed": 1, "unexpected_failures": 1}
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        return {**crashed, "failures": ["pass: timed out"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {**crashed, "failures": [f"pass: exit {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


def end_to_end_metrics(passes: list[dict], setups: list[float], attempted: int,
                       failed: int) -> dict | None:
    if not passes:
        return None
    walls = [p["wall_s"] for p in passes]
    setups = setups + [p["setup_s"] for p in passes]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    print(f"wall_s: median {statistics.median(walls):.4f} s, quartiles "
          f"{q1:.4f} .. {q3:.4f} s over {len(walls)} passes")
    print(f"setup_s: median {statistics.median(setups):.4f} s over {len(setups)} set-ups")
    print(f"ops_failed_frac: {failed}/{attempted} = {failed / attempted:.6f}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_ok_frac": 1 - failed / attempted,
    }


def trace_metrics(untraced: list[dict], traced: list[dict]) -> dict | None:
    if not untraced or not traced:
        return None
    calls = [{k: v for k, v in p["layers"].items() if k.endswith((".calls", ".errors"))}
             for p in traced]
    if any(c != calls[0] for c in calls):
        print("warning: call counts differ between traced passes")
    for name in sorted({n for p in traced for n in p["absent"]}):
        print(f"absent: {name} (not defined by this version)")
    metrics = {}
    for key, value in traced[0]["layers"].items():
        if key.endswith("_s"):
            value = statistics.median(p["layers"][key] for p in traced)
        metrics[key] = value
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.absent_functions"] = len(traced[0]["absent"])
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
          f"tracing overhead {traced_wall - untraced_wall:+.4f} s "
          f"({(traced_wall - untraced_wall) / untraced_wall:+.1%})")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
