"""Planner benchmark: one workload at one seed, reported as one JSON line.

    python3 perfbench/run.py --workload monolithic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each repetition runs in a fresh
interpreter (sweep.py), one ``run_method`` call at a time. ``--trace 0``
splits the workload's list over PARTS repetitions and prints the end-to-end
metrics; ``--trace 1`` runs the whole list traced, untraced, then traced
again, and prints the per-layer metrics of the first traced run. Lines
before the last one record the environment and the sample counts. Any
failed correctness check prints its reasons to stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = ROOT / ".perfbench"
PARTS = 5
DEADLINE_S = 170.0  # a run that would take longer is stopped and fails
TAIL_BEYOND = 10
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, **options) -> dict:
    argv = [sys.executable, str(HERE / "sweep.py")]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    started = time.time()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            env={**os.environ, **SINGLE_THREADED})
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"repetition {options} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"repetition {options} exited with code {proc.returncode}")
    result = json.loads(out)
    result["setup_s"] = result["setup_done"] - started
    return result


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the order statistics.

    Run times cluster by instance size; a single order statistic jumps from
    one cluster to the next when a few samples move, this estimate does not.
    """
    ordered = np.sort(samples)
    n = len(ordered)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile leaving TAIL_BEYOND beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return max(samples), 100.0, 0
    p = (n - TAIL_BEYOND) / n
    return harrell_davis(samples, p), 100.0 * p, TAIL_BEYOND


def failures(runs: list[dict], shown: int = 3) -> dict:
    """Failed runs per config, with the first few messages."""
    failed = [r for r in runs if r["error"]]
    per_config: dict[str, list[int]] = {}
    for r in runs:
        counts = per_config.setdefault(r["config"], [0, 0])
        counts[0] += 1 if r["error"] else 0
        counts[1] += 1
    return {"failed_of_attempted": {c: f"{f}/{n}" for c, (f, n) in per_config.items()},
            "first": [f"{r['gen_seed']} {r['config']}: {r['error']}" for r in failed[:shown]]}


def outcomes(runs: list[dict]) -> list:
    """Everything about a list of runs that must repeat exactly: all but the times."""
    return [(r["gen_seed"], r["config"], r["mu"], r["statuses"], r["total"], r["error"])
            for r in runs]


def end_to_end(parts: list[dict]) -> tuple[dict, dict]:
    runs = [r for part in parts for r in part["runs"]]
    stages = [status for r in runs for status in r["statuses"]]
    samples = [r["wall_s"] for r in runs]
    tail_s, percentile, beyond = tail(samples)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in parts), "s"),
        "sweep_s": (sum(p["sweep_s"] for p in parts), "s"),
        "run_p50_s": (harrell_davis(samples, 0.5), "s"),
        "run_tail_s": (tail_s, "s"),
        "cpu_s": (sum(p["cpu_s"] for p in parts), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in parts), "MB"),
        "proven_share": (stages.count("optimal") / len(stages) if stages else 0.0, "ratio"),
        "cost_sum": (sum(r["total"] for r in runs if r["total"] is not None), "cost"),
    }
    details = {"run_samples": len(samples), "run_tail_percentile": percentile,
               "run_tail_beyond": beyond, "stage_solves": len(stages),
               "setup_s_each": [p["setup_s"] for p in parts]}
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "transitfreight" / "pipeline.py").is_file():
        print(f"perfbench: no planner sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    try:
        if args.trace:
            # the untraced repetition runs between the traced ones, so a
            # drift in the machine's speed does not read as tracing overhead
            spans = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
            first = spawn(deadline, trace=1, spans=spans, **common)
            untraced = spawn(deadline, **common)
            second = spawn(deadline, trace=1, **common)
            parts = [first]
        else:
            parts = [spawn(deadline, part=i, parts=PARTS, **common) for i in range(PARTS)]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = [e for part in parts for e in part["errors"]]
    runs = [r for part in parts for r in part["runs"]]
    details = {"workload": args.workload, "seed": args.seed,
               "instances": sum(p["instances"] for p in parts),
               "gen_seed_range": [min(s for p in parts for s in p["gen_seeds"]),
                                  max(s for p in parts for s in p["gen_seeds"])],
               "rejects": parts[0]["rejects"], "repetitions": len(parts),
               "failed_runs": failures(runs)}
    if args.trace:
        errors += untraced["errors"] + second["errors"]
        layers = first["layers"]
        if layers["backends.nodes"] != second["layers"]["backends.nodes"]:
            errors.append(f"backends.nodes differs between two traced runs: "
                          f"{layers['backends.nodes']} vs {second['layers']['backends.nodes']}")
        if outcomes(untraced["runs"]) != outcomes(first["runs"]) \
                or outcomes(first["runs"] + first["probes"]) \
                != outcomes(second["runs"] + second["probes"]):
            errors.append("statuses, costs or failures differ between runs of the same seed")
        layers["trace.overhead_s"] = (first["sweep_s"] + second["sweep_s"]) / 2 \
            - untraced["sweep_s"]
        metrics = {name: (layers[name], unit) for name, unit, _ in tracing.per_layer_spec()}
        details["spans_file"] = str(spans.relative_to(ROOT))
        details["untraced_sweep_s"] = untraced["sweep_s"]
        details["traced_sweep_s"] = [first["sweep_s"], second["sweep_s"]]
        details["probe_failures"] = failures(first["probes"])
    else:
        metrics, more = end_to_end(parts)
        details.update(more)

    environment = dict(parts[0]["environment"], nproc=os.cpu_count(),
                       usable_cpus=len(os.sched_getaffinity(0)))
    print(json.dumps({"environment": environment}))
    print(json.dumps({"details": details}))
    for error in errors:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["error"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
