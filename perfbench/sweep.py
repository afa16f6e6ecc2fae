"""One repetition of a workload in a fresh interpreter; run by run.py.

Sets up (imports, one throwaway warm-up solve, instance generation,
``derive_compatibility``), then runs its share of the workload's
(instance, config) list one ``run_method`` call at a time, then checks every
plan. The result is one JSON document on the original standard output; the
solver's own console output goes to /dev/null.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COST_TOLERANCE = 1e-6
ORACLE_TOLERANCE = 1e-4


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def check_plan(instance, plan, total: float) -> str | None:
    """Independent re-validation of one plan; a message when it fails."""
    from transitfreight.plan import VrptwPlan
    from transitfreight.validate import (
        recompute_costs, recompute_vrptw_cost, validate_plan, validate_vrptw_plan)

    if isinstance(plan, VrptwPlan):
        violations = validate_vrptw_plan(instance, plan)
        recomputed = recompute_vrptw_cost(instance, plan)
    else:
        violations = validate_plan(instance, plan)
        recomputed = recompute_costs(instance, plan).total
    if violations:
        return "; ".join(str(v) for v in violations[:3])
    if abs(recomputed - total) > COST_TOLERANCE:
        return f"recomputed cost {recomputed!r} != reported {total!r}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args()

    result_out = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy
    import transitfreight
    from transitfreight import bruteforce, compat, pipeline
    from transitfreight.milp import ModelError
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    backend = transitfreight.ScipyHighsBackend()
    pipeline.run_method(workloads.draw_micro(workloads.WARMUP_GEN_SEED),
                        pipeline.RunConfig(method="full"), backend)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
        tracer.run_id = "setup"

    count = workload.instance_count(args.seconds)
    drawn, rejects = workloads.draw_instances(workload, args.seed, count)
    mine = drawn[args.part::args.parts]
    for _gen_seed, instance in mine:
        compat.derive_compatibility(instance)
    setup_done = time.time()

    def run(gen_seed, instance, spec, probe=False):
        config = pipeline.RunConfig(**spec)
        if tracer is not None:
            tracer.run_id = f"{gen_seed}:{config.label()}:mu={config.mu:g}"
        span = tracer.span(tracing.RUN_SPAN, method=config.method, mu=config.mu,
                           probe=probe) if tracer is not None else nullcontext()
        started = time.perf_counter()
        plan = metrics = error = None
        try:
            with span:
                plan, metrics = pipeline.run_method(instance, config, backend)
        except (pipeline.PipelineError, ModelError) as exc:
            error = exc
        wall_s = time.perf_counter() - started
        return {"gen_seed": gen_seed, "config": config.label(), "mu": config.mu,
                "wall_s": wall_s, "error": str(error) if error else None,
                "infeasible": getattr(error, "cause", "") == "model infeasible",
                "total": metrics.total if metrics else None,
                "statuses": [stage.status for stage in metrics.stages] if metrics else []}, plan

    runs, plans, oracle = [], [], []
    sweep_start, cpu_start = time.perf_counter(), cpu_seconds()
    for gen_seed, instance in mine:
        records = []
        for spec in workload.configs:
            record, plan = run(gen_seed, instance, spec)
            records.append(record)
            plans.append((instance, plan, record))
        runs += records
        if workload.oracle:
            oracle.append((records[0], bruteforce.brute_force_optimum(instance)))
    sweep_s = time.perf_counter() - sweep_start
    cpu_s = cpu_seconds() - cpu_start

    probes = []
    if tracer is not None:
        for gen_seed, instance in drawn[:workloads.PROBE_INSTANCES]:
            for spec in workload.probes:
                record, plan = run(gen_seed, instance, spec, probe=True)
                probes.append(record)
                plans.append((instance, plan, record))
        tracer.remove()

    errors = []
    for instance, plan, record in plans:
        if record["error"] and record["error"].startswith("[validate]"):
            # the pipeline's own check rejected the plan it assembled
            errors.append(f"{record['gen_seed']} {record['config']}: {record['error']}")
        if plan is not None:
            problem = check_plan(instance, plan, record["total"])
            if problem:
                errors.append(f"{record['gen_seed']} {record['config']}: invalid plan: {problem}")
    for record, outcome in oracle:
        if outcome.feasible and record["error"] is None:
            if abs(record["total"] - outcome.cost) > ORACLE_TOLERANCE:
                errors.append(f"{record['gen_seed']}: full {record['total']!r} "
                              f"!= oracle {outcome.cost!r}")
        elif outcome.feasible or not record["infeasible"]:
            errors.append(f"{record['gen_seed']}: full says {record['error'] or 'feasible'}, "
                          f"oracle says {'feasible' if outcome.feasible else 'infeasible'}")

    out = {
        "workload": workload.name, "seed": args.seed, "part": args.part,
        "parts": args.parts, "instances": len(mine), "rejects": rejects,
        "gen_seeds": [gen_seed for gen_seed, _ in mine],
        "setup_done": setup_done, "sweep_s": sweep_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": runs, "probes": probes, "errors": errors,
        "environment": {
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "stage_seconds": dict(pipeline.DEFAULT_STAGE_SECONDS)},
    }
    if tracer is not None:
        if args.spans:
            tracing.write_spans(tracer.spans, Path(args.spans))
        out["layers"] = tracing.layer_metrics(tracer.spans)
        out["layers"]["generate.rejects"] = rejects
        left = tracing.leftover_wrappers()
        if left:
            errors.append(f"tracing wrappers left after the traced run: {left}")
    json.dump(out, result_out)
    result_out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
