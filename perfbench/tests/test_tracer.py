"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from transitfreight import backends, pipeline, vrptw  # noqa: E402

SMALL_GEN_SEED = 2000  # a four-customer instance
CONFIGS = ({"method": "full"}, {"method": "full", "mu": 0.5}, {"method": "vrptw"},
           {"method": "d2", "t2_obj": "obj2"})


def traced_functions():
    return {"pipeline.build_full": pipeline.build_full,
            "pipeline.validate_plan": pipeline.validate_plan,
            "vrptw.build_vrptw": vrptw.build_vrptw,
            "backends.scipy_milp": backends.scipy_milp,
            "ScipyHighsBackend.solve": backends.ScipyHighsBackend.solve}


def run_all(instance, tracer=None):
    backend = backends.ScipyHighsBackend()
    for spec in CONFIGS:
        config = pipeline.RunConfig(**spec)
        if tracer is None:
            pipeline.run_method(instance, config, backend)
            continue
        with tracer.span(tracing.RUN_SPAN, method=config.method, mu=config.mu):
            pipeline.run_method(instance, config, backend)


@pytest.fixture(scope="module")
def traced():
    instance = workloads.draw_micro(SMALL_GEN_SEED)
    before = traced_functions()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        run_all(instance, tracer)
    finally:
        tracer.remove()
    return tracer, before, instance


def test_every_layer_is_traced(traced):
    tracer, _, _ = traced
    layers = {span.name.split(".")[0] for span in tracer.spans}
    assert {"pipeline", "compat", "model_full", "vrptw", "tiers", "backends",
            "validate"} <= layers
    assert any(span.attrs.get("nodes") is not None for span in tracer.spans)


def test_wrappers_are_gone_after_the_traced_run(traced):
    tracer, before, instance = traced
    assert traced_functions() == before
    assert tracing.leftover_wrappers() == []
    recorded = len(tracer.spans)
    run_all(instance)
    assert len(tracer.spans) == recorded


def test_no_self_time_is_negative(traced):
    tracer, _, _ = traced
    own = tracing.self_times(tracer.spans)
    assert len(own) == len(tracer.spans)
    assert min(own.values()) >= 0.0


def test_children_cover_run_method_spans(traced):
    # on two-customer instances d2's untraced glue (handoffs, assembly) is
    # about a tenth of a run; pipeline.self_s reports it
    tracer, _, _ = traced
    own = tracing.self_times(tracer.spans)
    runs = [span for span in tracer.spans if span.name == tracing.RUN_SPAN]
    assert len(runs) == len(CONFIGS)
    for span in runs:
        covered = (span.duration - own[span.id]) / span.duration
        assert covered >= 0.95, f"{span.attrs}: children cover {covered:.1%}"


def test_reference_hit_after_plain_optimal_solve(traced):
    tracer, _, _ = traced
    assert tracing.layer_metrics(tracer.spans)["pipeline.ref_misses"] == 0


def test_per_layer_metrics_match_benchmark_json(traced):
    tracer, _, _ = traced
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    spec = tracing.per_layer_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == spec
    computed = tracing.layer_metrics(tracer.spans)
    assert set(computed) == {name for name, _, _ in spec}
