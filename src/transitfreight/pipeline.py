"""End-to-end runs: the monolithic model, the three decomposition pipelines,
and the direct-truck baseline, stitched into validated plans with metrics.

Each stage is one ``_stage`` call that builds, solves and decodes its model;
runners hand on the decoded decisions, never a model. Stages inside one run are
sequential; distinct runs are independent. Every failure is a ``PipelineError``
naming its stage and never poisons a comparison sweep.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .backends import Backend, BackendError, ScipyHighsBackend, solve
from .compat import UnreachableCustomerError, derive_compatibility
from .instance import Instance, InstanceError, serialize_instance, with_beta
from .milp import ModelError, SolveLimits
from .model_full import (FullOptions, ModelBuildError, TransitChoice, assemble_plan, build_full,
                         decode_full, decode_transit, loaded_route)
from .plan import FreighterRoute, Plan, VrptwPlan, serialize_handoff, serialize_plan
from .tiers import (
    T2Objective,
    build_d1_t1,
    build_d1_t2,
    build_d2_t2,
    build_d3_t2,
    build_d3_t3,
    build_t1_from_handoff,
    build_t3_stopwise,
    decode_d3_t3,
    decode_t1,
    decode_t3_stopwise,
)
from .report import ReportRow, fill_deviations, run_label
from .validate import price_routes, validate_plan, validate_vrptw_plan
from .vrptw import build_vrptw, decode_vrptw

METHODS = ("full", "d1", "d2", "d3", "vrptw")

DEFAULT_STAGE_SECONDS = {
    "full": 120.0,
    "first": 60.0,   # opening stage of the truck-first / freighter-first pipelines
    "other": 30.0,
    "per_stop": 10.0,
}


class PipelineError(RuntimeError):
    """A run stopped at ``stage``; ``status`` is that stage's solver status, or
    ``infeasible`` for a model whose inputs admit no solution, or ``error``."""

    def __init__(self, stage: str, cause: str, status: str = "error"):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
        self.status = status


# statuses from most to least proven; timeout, infeasible and error prove nothing
_STATUS_RANK = {"optimal": 0, "feasible": 1}


def worst_stage_status(statuses) -> str:
    """The least-proven of the stage statuses: optimal > feasible > the rest."""
    return max(statuses, key=lambda status: _STATUS_RANK.get(status, 2), default="optimal")


@dataclass(frozen=True)
class RunConfig:
    method: str
    t2_obj: str | None = None
    beta: float | None = None
    mu: float = 0.0
    rel_gap: float = 1e-6
    time_limit: float | None = None  # seconds for every stage; None keeps DEFAULT_STAGE_SECONDS
    # derived from the fields above once, when the config is made: the parsed transit
    # objective, and each stage kind's solve limits, so a bad tag or limit fails here
    objective: T2Objective | None = field(default=None, init=False, repr=False, compare=False)
    limits: dict[str, SolveLimits] = field(default_factory=dict, init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ModelError(f"unknown method {self.method!r}")
        if self.method in ("d1", "d2", "d3"):
            if not self.t2_obj:
                raise ModelError(f"method {self.method} needs a transit objective")
            if self.method == "d3" and self.t2_obj == "obj3":
                raise ModelError(
                    "freighter-count objective is unavailable when freighters are fixed first")
        elif self.t2_obj is not None:
            raise ModelError(f"method {self.method} has no transit stage to take an objective")
        for name, value in (("beta", self.beta), ("mu", self.mu)):
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ModelError(f"{name} must be finite and nonnegative, not {value!r}")
        if self.mu and self.method != "full":
            raise ModelError("service costs apply to the monolithic model only")
        if self.method in ("d1", "d2", "d3"):
            object.__setattr__(self, "objective", T2Objective(self.t2_obj))
        object.__setattr__(self, "limits", {
            kind: SolveLimits(default if self.time_limit is None else self.time_limit,
                              self.rel_gap)
            for kind, default in DEFAULT_STAGE_SECONDS.items()})

    def label(self) -> str:
        return run_label(self.method, self.t2_obj, self.beta, self.mu)


@dataclass
class StageMetrics:
    stage: str
    status: str
    objective: float | None
    wall_time: float
    best_bound: float | None
    gap: float | None     # (objective - best_bound) / max(1, |objective|), None without both
    message: str          # the solver's own account of how the solve ended
    nodes: int | None     # branch-and-bound nodes; None for a pure LP or a solve without a solution
    vars: int             # model size: variables, constraints, nonzeros
    cons: int
    nnz: int
    build_time: float     # seconds spent building the model
    time_limit: float     # the stage's limit as handed to the backend; a solve may overrun it
    form: str             # "columns": vehicles run enumerated route columns; else "rows"


@dataclass
class RunMetrics:
    method: str
    t2_obj: str | None
    mu: float = 0.0       # the config's service-cost scale, which the run priced
    stages: list[StageMetrics] = field(default_factory=list)
    t1_cost: float = 0.0
    t3_cost: float = 0.0
    service_cost: float = 0.0
    total: float = 0.0
    stops_in_used: int = 0
    stops_out_used: int = 0
    trucks_used: int = 0
    freighters_used: int = 0
    trips_used: int = 0
    packages_per_truck: float = 0.0
    packages_per_freighter: float = 0.0
    packages_per_trip: float = 0.0
    wall_time: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def reference_routing_costs(instance: Instance, backend: Backend, config: RunConfig,
                            metrics: RunMetrics) -> tuple[float, float]:
    """Tier-1/tier-3 routing costs of the plain-objective solve, kept on the instance
    object once proven. Without them the plain solve is the run's ``reference`` stage.
    """
    costs = instance.__dict__.get("_reference")
    if costs is None:
        plan = _stage("reference", config.limits["full"], backend, metrics,
                      build_full, decode_full, instance, FullOptions())
        costs = _keep_reference(instance, plan, metrics)
    return costs


def _keep_reference(instance: Instance, plan: Plan, metrics: RunMetrics) -> tuple[float, float]:
    """The routing costs of ``plan``, the run's last stage and a plain solve, which the
    instance keeps as its service-cost reference only once that stage proved it optimal:
    a run that reads it must not rest on an unproven solve. The costs are no field, so
    an equal instance or a ``replace`` copy solves its own."""
    costs = (plan.costs.t1_cost, plan.costs.t3_cost)
    if metrics.stages[-1].status == "optimal":
        instance.__dict__.setdefault("_reference", costs)
    return costs


def _stage(stage: str, limits: SolveLimits, backend: Backend, metrics: RunMetrics,
           build, decode, instance: Instance, *args):
    """Build ``build(instance, *args)``, solve it, record its metrics and return
    ``decode(instance, model, result)``; a failure at any step names ``stage``, a
    backend error (a model it refuses, a status it may not report) among them."""
    started = time.perf_counter()
    try:
        model = build(instance, *args)
    except ModelError as exc:
        status = "infeasible" if isinstance(exc, ModelBuildError) else "error"
        raise PipelineError(stage, str(exc), status) from exc
    build_time = time.perf_counter() - started
    try:
        result = solve(model, backend, limits)
    except BackendError as exc:
        raise PipelineError(stage, f"backend error: {exc}") from exc
    gap = None
    if result.objective is not None and result.best_bound is not None:
        gap = (result.objective - result.best_bound) / max(1.0, abs(result.objective))
    metrics.stages.append(StageMetrics(
        stage=stage, status=result.status, objective=result.objective,
        wall_time=result.wall_time, best_bound=result.best_bound, gap=gap,
        message=result.message, nodes=result.nodes, vars=len(model.variables),
        cons=len(model.constraints), nnz=model.nnz, build_time=build_time,
        time_limit=limits.time_limit, form=_form(model)))
    if result.status == "infeasible":
        raise PipelineError(stage, "model infeasible", result.status)
    if result.status == "timeout":
        raise PipelineError(stage, "stage timeout, no incumbent", result.status)
    if result.status == "error":
        raise PipelineError(stage, f"backend error: {result.message}", result.status)
    try:
        return decode(instance, model, result)
    except ModelError as exc:
        raise PipelineError(stage, str(exc)) from exc


def _form(model) -> str:
    """``columns`` when the model routes its vehicles by enumerated route columns (truck
    ``x1``, freighter ``q``) and by no per-vehicle arc rows (``w``); ``rows`` otherwise."""
    if "w" in model.registry or not ("x1" in model.registry or "q" in model.registry):
        return "rows"
    return "columns"


def _dump(artifacts_dir: Path | None, name: str, serialize, document) -> None:
    """Write ``serialize(document)``; without an artifacts directory nothing is serialized."""
    if artifacts_dir is not None:
        artifacts_dir.mkdir(parents=True, exist_ok=True)
        (artifacts_dir / name).write_text(serialize(document), encoding="utf-8")


def run_method(instance: Instance, config: RunConfig, backend: Backend | None = None,
               artifacts_dir: Path | None = None) -> tuple[Plan | VrptwPlan, RunMetrics]:
    """Plan ``instance`` by ``config``; an unreachable customer fails at ``instance`` as
    ``infeasible`` for every method but ``vrptw``, which plans without transit. The
    drop-in map that check derives is handed to ``d1``, the one method that reads it."""
    backend = backend or ScipyHighsBackend()
    started = time.perf_counter()
    if config.beta is not None:
        instance = with_beta(instance, config.beta)
    try:
        instance.validate()
        drop_ins = None if config.method == "vrptw" else derive_compatibility(instance)
    except InstanceError as exc:
        status = "infeasible" if isinstance(exc, UnreachableCustomerError) else "error"
        raise PipelineError("instance", str(exc), status) from exc
    metrics = RunMetrics(method=config.method, t2_obj=config.t2_obj, mu=config.mu)
    _dump(artifacts_dir, "instance.json", serialize_instance, instance)
    try:
        plan = _RUNNERS[config.method](instance, drop_ins, config, backend, metrics,
                                       artifacts_dir)
    except ModelError as exc:  # every stage raises its own; this is assemble_plan's
        raise PipelineError("assemble", str(exc)) from exc
    metrics.wall_time = time.perf_counter() - started
    _fill_plan_metrics(instance, plan, metrics)
    _dump(artifacts_dir, "plan.json", serialize_plan, plan)
    _dump(artifacts_dir, "metrics.json", RunMetrics.to_json, metrics)
    return plan, metrics


def _fill_plan_metrics(instance: Instance, plan: Plan | VrptwPlan,
                       metrics: RunMetrics) -> None:
    """Validate the plan, copy its price into ``metrics`` and check it against the stages."""
    vrptw = isinstance(plan, VrptwPlan)
    violations = (validate_vrptw_plan if vrptw else validate_plan)(instance, plan)
    if violations:
        raise PipelineError("validate", "; ".join(str(v) for v in violations[:5]))
    n = len(instance.customers)
    if vrptw:
        metrics.t1_cost = metrics.total = plan.total_cost
        metrics.trucks_used = len(plan.routes)
        metrics.packages_per_truck = n / len(plan.routes) if plan.routes else 0.0
    else:
        metrics.t1_cost = plan.costs.t1_cost
        metrics.t3_cost = plan.costs.t3_cost
        metrics.service_cost = plan.costs.service_cost
        metrics.total = plan.costs.total
        metrics.stops_in_used = len({it.drop_in_stop for it in plan.itineraries})
        metrics.stops_out_used = len({it.drop_out_stop for it in plan.itineraries})
        metrics.trucks_used = len({it.truck for it in plan.itineraries})
        metrics.freighters_used = len({it.freighter for it in plan.itineraries})
        metrics.trips_used = len({it.trip for it in plan.itineraries})
        metrics.packages_per_truck = n / metrics.trucks_used if metrics.trucks_used else 0.0
        metrics.packages_per_freighter = (n / metrics.freighters_used
                                          if metrics.freighters_used else 0.0)
        metrics.packages_per_trip = n / metrics.trips_used if metrics.trips_used else 0.0
    _check_stage_prices(instance, plan, metrics)


def _check_stage_prices(instance: Instance, plan: Plan | VrptwPlan, metrics: RunMetrics) -> None:
    """Each route-priced stage's objective must be its share of the plan's price,
    within 1e-6 relative; the surrogate ``t2`` and the ``reference`` stage price no
    route of this plan. ``decode_t1`` may skip a stop where a package already rides,
    so the truck routes may cost less than ``t1``'s objective, never more. The
    ``t3[stop]`` stages are checked by their sum; a stop is priced on its own only
    to name the stage that disagrees."""
    shares = {"full": metrics.total, "vrptw": metrics.total, "t1": metrics.t1_cost,
              "t3": metrics.t3_cost}
    stopwise, total = [], 0.0
    for stage in metrics.stages:
        if stage.stage in shares:
            _check_price(stage.stage, shares[stage.stage], stage.objective)
        elif stage.stage not in ("t2", "reference"):  # a t3[stop] stage
            stopwise.append(stage)
            total += stage.objective
    if stopwise and abs(total - metrics.t3_cost) > 1e-6 * max(1.0, abs(metrics.t3_cost)):
        for stage in stopwise:
            routes = [r for r in plan.freighter_routes if f"t3[{r.home_stop}]" == stage.stage]
            _check_price(stage.stage, price_routes(instance, (), routes).t3_cost, stage.objective)
        _check_price("t3[...]", metrics.t3_cost, total)


def _check_price(stage: str, price: float, objective: float) -> None:
    tolerance = 1e-6 * max(1.0, abs(price))
    if price > objective + tolerance or (stage != "t1" and price < objective - tolerance):
        raise PipelineError(
            "validate", f"stage {stage}: plan price {price!r} differs from the solver "
                        f"objective {objective!r}")


def _run_full(instance, _drop_ins, config, backend, metrics, _artifacts_dir) -> Plan:
    options = FullOptions()
    if config.mu > 0:
        t1_ref, t3_ref = reference_routing_costs(instance, backend, config, metrics)
        options = FullOptions(lambda1=config.mu * t1_ref, lambda3=config.mu * t3_ref)
    plan = _stage("full", config.limits["full"], backend, metrics,
                  build_full, decode_full, instance, options)
    if config.mu == 0:  # a plain solve doubles as the service-cost reference
        _keep_reference(instance, plan, metrics)
    return plan


def _run_vrptw(instance, _drop_ins, config, backend, metrics, _artifacts_dir) -> VrptwPlan:
    return _stage("vrptw", config.limits["full"], backend, metrics,
                  build_vrptw, decode_vrptw, instance)


def _solve_t3_stopwise(instance, config, backend, metrics,
                       choices: dict[str, TransitChoice]) -> list[FreighterRoute]:
    """One freighter model per drop-out stop, for the packages dropped there."""
    routes: list[FreighterRoute] = []
    for stop_id in sorted({ch.drop_out for ch in choices.values()}):
        routes += _stage(f"t3[{stop_id}]", config.limits["per_stop"], backend, metrics,
                         build_t3_stopwise, decode_t3_stopwise, instance, stop_id, choices)
    return routes


def _run_d2(instance, _drop_ins, config, backend, metrics, artifacts_dir) -> Plan:
    choices = _stage("t2", config.limits["other"], backend, metrics,
                     build_d2_t2, decode_transit, instance, config.objective)
    _dump(artifacts_dir, "handoff-t2.json", serialize_handoff, {"choices": choices})

    truck_routes, placed = _stage("t1", config.limits["other"], backend, metrics,
                                  build_t1_from_handoff, decode_t1, instance, choices)

    freighter_routes = _solve_t3_stopwise(instance, config, backend, metrics, choices)
    return assemble_plan(instance, choices, placed, truck_routes, freighter_routes)


def _run_d1(instance, drop_ins, config, backend, metrics, artifacts_dir) -> Plan:
    truck_routes, placed = _stage("t1", config.limits["first"], backend, metrics,
                                  build_d1_t1, decode_t1, instance, drop_ins)
    _dump(artifacts_dir, "handoff-t1.json", serialize_handoff, {"placed": placed})

    choices = _stage("t2", config.limits["other"], backend, metrics,
                     build_d1_t2, decode_transit, instance, placed, config.objective)
    _dump(artifacts_dir, "handoff-t2.json", serialize_handoff, {"choices": choices})

    freighter_routes = _solve_t3_stopwise(instance, config, backend, metrics, choices)
    return assemble_plan(instance, choices, placed, truck_routes, freighter_routes)


def _run_d3(instance, _drop_ins, config, backend, metrics, artifacts_dir) -> Plan:
    routes = _stage("t3", config.limits["first"], backend, metrics,
                    build_d3_t3, decode_d3_t3, instance)
    _dump(artifacts_dir, "handoff-t3.json", serialize_handoff, {"routes": [
        {"freighter": freighter, "customers": order, "latest_departure": latest}
        for freighter, order, latest in routes]})

    choices = _stage("t2", config.limits["other"], backend, metrics,
                     build_d3_t2, decode_transit, instance, routes, config.objective)
    _dump(artifacts_dir, "handoff-t2.json", serialize_handoff, {"choices": choices})

    truck_routes, placed = _stage("t1", config.limits["other"], backend, metrics,
                                  build_t1_from_handoff, decode_t1, instance, choices)

    freighter_routes = _retime_d3_routes(instance, routes, choices)
    return assemble_plan(instance, choices, placed, truck_routes, freighter_routes)


def _retime_d3_routes(instance, routes, choices) -> list[FreighterRoute]:
    """The routes ``decode_d3_t3`` hands on, (freighter, customers in visit order, latest
    departure), each leaving once the drops ``choices`` fixes are loaded.

    The transit stage kept every drop of a route within the dwell cap before
    the route's latest departure, so neither check below can fire unless an
    earlier stage broke its contract; they stay as stage-named guards.
    """
    timed = [loaded_route(instance, freighter, order, choices) for freighter, order, _ in routes]
    for route in timed:
        drops = [choices[cid].drop_time for cid in route.customers]
        if route.departure > min(drops) + instance.stop(route.home_stop).max_dwell + 1e-9:
            raise PipelineError(
                "d3-stitch",
                f"freighter {route.freighter}: packages arrive too far apart "
                f"({min(drops):g} vs {max(drops):g}) for the dwell cap")
        for cid, t_here in zip(route.customers, route.times):
            cust = instance.customer(cid)
            if t_here > cust.window_hi + 1e-9:
                raise PipelineError(
                    "d3-stitch",
                    f"customer {cid}: retimed delivery {t_here:g} misses the window "
                    f"closing {cust.window_hi:g}")
    return timed


_RUNNERS = {"full": _run_full, "d1": _run_d1, "d2": _run_d2, "d3": _run_d3,
            "vrptw": _run_vrptw}


# the plan figures a report row takes from its run; its t2_obj is "" where the config's is None
_SHARED_FIELDS = tuple(
    f.name for f in fields(ReportRow) if f.name in RunMetrics.__dataclass_fields__
    and f.name != "t2_obj")


def compare_methods(instances: list[tuple[str, Instance]], configs: list[RunConfig],
                    backend: Backend | None = None,
                    artifacts_root: Path | None = None) -> list[ReportRow]:
    """One row per (instance, config); failures are recorded, never raised."""
    backend = backend or ScipyHighsBackend()
    rows: list[ReportRow] = []
    for name, instance in instances:
        # one copy per beta, so the configs of one scale share its service-cost reference
        scaled = {beta: with_beta(instance, beta) for beta in {c.beta for c in configs} - {None}}
        for config in configs:
            row = ReportRow(instance=name, method=config.method, t2_obj=config.t2_obj or "",
                            beta=config.beta, mu=config.mu)
            art = None
            if artifacts_root is not None:
                art = Path(artifacts_root) / f"{name}__{config.label()}"
            try:
                _plan, metrics = run_method(scaled.get(config.beta, instance), config,
                                            backend, art)
            except PipelineError as exc:
                row.status, row.error, row.worst_stage_status = "failed", str(exc), exc.status
            else:
                for field_name in _SHARED_FIELDS:
                    setattr(row, field_name, getattr(metrics, field_name))
                row.worst_stage_status = worst_stage_status(s.status for s in metrics.stages)
                row.proven = row.worst_stage_status == "optimal"
                row.runtime = metrics.wall_time
            rows.append(row)
    fill_deviations(rows)
    return rows
