"""Span tracer for traced benchmark runs, and the per-layer metrics made from it.

A traced run replaces the public functions that ``run_method`` reaches with
timing wrappers, from outside the package: ``install`` patches them and
``remove`` puts every original back, so untraced runs carry none. Each call
becomes a span (name, start, end, parent span, run id); spans stay in memory
until the run ends. A span's self time is its duration minus the part of
it that its child spans cover. Layers are the package's modules.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# formulation tag written by each model builder -> stage kind
KIND_OF_TAG = {
    "full": "full", "vrptw": "vrptw",
    "d2-t2": "d2_t2", "d1-t1": "d1_t1", "d1-t2": "d1_t2", "d3-t3": "d3_t3",
    "d3-t2": "d3_t2", "t1-handoff": "t1", "t3-stopwise": "t3_stop",
}
TIER_KINDS = ("d2_t2", "d1_t1", "d1_t2", "d3_t3", "d3_t2", "t1", "t3_stop")
SOLVE_KINDS = ("full", "full_ref", "vrptw") + TIER_KINDS
METHODS = ("full", "d1", "d2", "d3", "vrptw")
PROBE_METHODS = ("d1", "d3")
STATUSES = ("optimal", "feasible", "timeout", "infeasible", "error")
RUN_SPAN = "pipeline.run_method"
VALIDATE_FUNCTIONS = ("validate_plan", "validate_vrptw_plan", "recompute_costs",
                      "recompute_vrptw_cost")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.run_id, time.perf_counter(),
                    attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``describe(args, result)`` adds attributes after the span has ended,
        so inspecting a result is not charged to the call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

        traced.perfbench_span = name
        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def leftover_wrappers() -> list[str]:
    """Names of tracing wrappers still bound anywhere in the loaded package."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "transitfreight" and not module_name.startswith("transitfreight."):
            continue
        for owner_name, owner in vars(module).items():
            if hasattr(owner, "perfbench_span"):
                found.append(f"{module_name}.{owner_name}")
            if isinstance(owner, type) and owner.__module__ == module_name:
                found += [f"{module_name}.{owner_name}.{attr}"
                          for attr, value in vars(owner).items()
                          if hasattr(value, "perfbench_span")]
    return found


def _model_size(args, model) -> dict:
    return {"kind": KIND_OF_TAG[model.metadata["formulation"]],
            "vars": len(model.variables), "cons": len(model.constraints),
            "nnz": sum(len(con.terms) for con in model.constraints)}


def _solve_outcome(args, result) -> dict:
    model = args[1]
    return {"kind": KIND_OF_TAG[model.metadata["formulation"]],
            "status": result.status, "highs_s": result.wall_time}


def _node_count(args, res) -> dict:
    nodes = getattr(res, "mip_node_count", None)
    return {"nodes": int(nodes) if nodes is not None else 0}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary ``run_method`` reaches, plus generation and the oracle."""
    from transitfreight import backends, bruteforce, compat, generate, pipeline, vrptw

    def wrap_function(owner, attr, describe=None):
        fn = getattr(owner, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        tracer.wrap(owner, attr, f"{layer}.{attr}", describe)

    wrap_function(generate, "generate_instance")
    for owner in (compat, generate, pipeline):
        wrap_function(owner, "derive_compatibility")
    for attr in sorted(vars(pipeline)):
        if attr.startswith("build_"):
            wrap_function(pipeline, attr, _model_size)
        elif attr.startswith("decode_") or attr == "repair_d3_times" \
                or attr in VALIDATE_FUNCTIONS:
            wrap_function(pipeline, attr)
    wrap_function(vrptw, "build_vrptw", _model_size)  # imported lazily by the pipeline
    wrap_function(vrptw, "decode_vrptw")
    tracer.wrap(backends.ScipyHighsBackend, "solve", "backends.solve", _solve_outcome)
    tracer.wrap(backends, "scipy_milp", "backends.scipy_milp", _node_count)
    wrap_function(bruteforce, "brute_force_optimum")


def write_spans(spans: list[Span], path) -> None:
    """One JSON object per line: id, name, parent, run_id, start, end, attrs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    spec = [("generate.s", "s", "lower"), ("generate.calls", "count", "lower"),
            ("generate.rejects", "count", "lower"),
            ("compat.s", "s", "lower"), ("compat.calls", "count", "lower")]
    for layer in ("model_full", "vrptw"):
        spec += [(f"{layer}.build_s", "s", "lower"), (f"{layer}.decode_s", "s", "lower")]
        spec += [(f"{layer}.{size}", "count", "lower") for size in ("vars", "cons", "nnz")]
    for kind in TIER_KINDS:
        spec += [(f"tiers.{kind}.build_s", "s", "lower")]
        spec += [(f"tiers.{kind}.{size}", "count", "lower") for size in ("vars", "cons", "nnz")]
    spec += [("tiers.decode_s", "s", "lower"), ("tiers.repair_s", "s", "lower"),
             ("backends.solve_calls", "count", "lower")]
    spec += [(f"backends.{status}", "count", "higher" if status == "optimal" else "lower")
             for status in STATUSES]
    spec += [("backends.highs_s", "s", "lower"), ("backends.convert_s", "s", "lower"),
             ("backends.nodes", "count", "lower")]
    for kind in SOLVE_KINDS:
        spec += [(f"solve.{kind}.s", "s", "lower"), (f"solve.{kind}.nodes", "count", "lower")]
    spec += [("pipeline.self_s", "s", "lower"), ("pipeline.ref_misses", "count", "lower")]
    spec += [(f"pipeline.run_s.{method}", "s", "lower") for method in METHODS]
    for method in PROBE_METHODS:
        spec += [(f"pipeline.probe.{method}.runs", "count", "higher"),
                 (f"pipeline.probe.{method}.failed", "count", "lower")]
    spec += [("validate.s", "s", "lower"), ("validate.calls", "count", "lower"),
             ("bruteforce.s", "s", "lower"), ("bruteforce.calls", "count", "lower"),
             ("trace.spans", "count", "lower"), ("trace.overhead_s", "s", "lower")]
    return spec


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values from one traced run.

    ``generate.rejects`` and ``trace.overhead_s`` are not visible in spans and
    are left to the caller.
    """
    values = {name: 0.0 if unit == "s" else 0 for name, unit, _ in per_layer_spec()}
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    nodes_under: dict[int, int] = {}
    for span in spans:
        if span.name == "backends.scipy_milp" and span.parent is not None:
            nodes_under[span.parent] = nodes_under.get(span.parent, 0) + span.attrs.get("nodes", 0)

    def run_of(span: Span) -> Span | None:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == RUN_SPAN:
                return span
        return None

    # in a run with service costs, every plain full solve before the last is
    # the reference solve the process-global cache did not have
    full_solves: dict[int, list[Span]] = {}
    for span in spans:
        if span.name == "backends.solve" and span.attrs.get("kind") == "full":
            run = run_of(span)
            if run is not None and run.attrs.get("mu", 0) > 0:
                full_solves.setdefault(run.id, []).append(span)
    reference = {s.id for solves in full_solves.values() for s in solves[:-1]}

    def add(name, value):
        values[name] += value

    for span in spans:
        layer, _, function = span.name.partition(".")
        a = span.attrs
        if span.name == "generate.generate_instance":
            add("generate.s", own[span.id])
            add("generate.calls", 1)
        elif function == "derive_compatibility":
            add("compat.s", own[span.id])
            add("compat.calls", 1)
        elif function.startswith("build_") and "kind" in a:
            prefix = f"tiers.{a['kind']}" if a["kind"] in TIER_KINDS else layer
            add(f"{prefix}.build_s", own[span.id])
            for size in ("vars", "cons", "nnz"):
                add(f"{prefix}.{size}", a[size])
        elif function.startswith("decode_"):
            add(f"{layer}.decode_s", own[span.id])
        elif function == "repair_d3_times":
            add("tiers.repair_s", own[span.id])
        elif span.name == "backends.solve" and "kind" in a:
            kind = "full_ref" if span.id in reference else a["kind"]
            add("backends.solve_calls", 1)
            add(f"backends.{a['status']}", 1)
            add("backends.highs_s", a["highs_s"])
            add("backends.convert_s", span.duration - a["highs_s"])
            add(f"solve.{kind}.s", a["highs_s"])
            nodes = nodes_under.get(span.id, 0)
            add("backends.nodes", nodes)
            add(f"solve.{kind}.nodes", nodes)
        elif span.name == RUN_SPAN:
            add("pipeline.self_s", own[span.id])
            if a.get("probe"):
                add(f"pipeline.probe.{a['method']}.runs", 1)
                add(f"pipeline.probe.{a['method']}.failed", 1 if "error" in a else 0)
            else:
                add(f"pipeline.run_s.{a['method']}", span.duration)
        elif function in VALIDATE_FUNCTIONS:
            add("validate.s", own[span.id])
            add("validate.calls", 1)
        elif span.name == "bruteforce.brute_force_optimum":
            add("bruteforce.s", own[span.id])
            add("bruteforce.calls", 1)
    values["pipeline.ref_misses"] = len(reference)
    values["trace.spans"] = len(spans)
    return values
