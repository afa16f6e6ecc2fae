"""End-to-end runs: the monolithic model, the three decomposition pipelines,
and the direct-truck baseline, stitched into validated plans with metrics.

Stages inside one run are sequential (each feeds the next through a handoff);
distinct runs are independent. Failures carry the failing stage and cause and
never poison a comparison sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .backends import Backend, ScipyHighsBackend
from .compat import Compatibility, derive_compatibility
from .instance import Instance, InstanceError, serialize_instance, with_beta
from .milp import ModelError, SolveLimits
from .model_full import (FullOptions, ModelBuildError, TransitChoice, assemble_plan, build_full,
                         decode_freighter_routes, decode_full)
from .plan import (
    FreighterRoute,
    Plan,
    TierHandoff,
    VrptwPlan,
    serialize_handoff,
    serialize_plan,
)
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
    decode_t2,
    decode_t3_stopwise,
    first_trip_times,
    latest_departures,
    preprocess_midday,
    repair_d3_times,
)
from .report import ReportRow, fill_deviations, run_label
from .validate import price_routes, validate_plan, validate_vrptw_plan

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
    stage_seconds: dict | None = None
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
        if self.mu and self.method != "full":
            raise ModelError("service costs apply to the monolithic model only")
        if self.mu < 0:
            raise ModelError("mu must be nonnegative")
        if self.method in ("d1", "d2", "d3"):
            object.__setattr__(self, "objective", T2Objective.parse(self.t2_obj))
        unknown = sorted(set(self.stage_seconds or ()) - set(DEFAULT_STAGE_SECONDS))
        if unknown:
            raise ModelError(f"unknown stage kind {unknown[0]!r} in stage_seconds; "
                             f"known: {', '.join(DEFAULT_STAGE_SECONDS)}")
        seconds = {**DEFAULT_STAGE_SECONDS, **(self.stage_seconds or {})}
        object.__setattr__(self, "limits", {kind: SolveLimits(limit, self.rel_gap)
                                            for kind, limit in seconds.items()})

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
    warnings: list[str] = field(default_factory=list)  # from d3's backward time repair

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


# keyed by the instance itself: it is a frozen dataclass, so equal instances
# share an entry, and an instance hashes its fields once, far cheaper than
# serializing it
_reference_cache: dict[Instance, tuple[float, float]] = {}


def reference_routing_costs(instance: Instance, compat: Compatibility, backend: Backend,
                            config: RunConfig, metrics: RunMetrics) -> tuple[float, float]:
    """Tier-1/tier-3 routing costs of the plain-objective solve, cached.

    On a cache miss the plain solve is the run's ``reference`` stage.
    """
    costs = _reference_cache.get(instance)
    if costs is None:
        model, result = _stage("reference", config.limits["full"], backend, metrics,
                               build_full, instance, compat, FullOptions())
        plan = decode_full(instance, model, result)
        costs = _reference_cache[instance] = (plan.costs.t1_cost, plan.costs.t3_cost)
    return costs


def _stage(stage: str, limits: SolveLimits, backend: Backend,
           metrics: RunMetrics, build, *args) -> tuple:
    """Build one stage's model and solve it; returns (model, result) with an incumbent."""
    started = time.perf_counter()
    try:
        model = build(*args)
    except ModelError as exc:
        status = "infeasible" if isinstance(exc, ModelBuildError) else "error"
        raise PipelineError(stage, str(exc), status) from exc
    build_time = time.perf_counter() - started
    result = backend.solve(model, limits)
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
    return model, result


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
    backend = backend or ScipyHighsBackend()
    if config.beta is not None:
        instance = with_beta(instance, config.beta)
    try:
        instance.validate()
    except InstanceError as exc:
        raise PipelineError("instance", str(exc)) from exc
    metrics = RunMetrics(method=config.method, t2_obj=config.t2_obj)
    started = time.perf_counter()
    _dump(artifacts_dir, "instance.json", serialize_instance, instance)

    if config.method == "vrptw":
        plan = _run_vrptw(instance, config, backend, metrics)
    elif config.method == "full":
        plan = _run_full(instance, config, backend, metrics)
    elif config.method == "d2":
        plan = _run_d2(instance, config, backend, metrics, artifacts_dir)
    elif config.method == "d1":
        plan = _run_d1(instance, config, backend, metrics, artifacts_dir)
    else:
        plan = _run_d3(instance, config, backend, metrics, artifacts_dir)

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


def _run_full(instance, config, backend, metrics) -> Plan:
    compat = derive_compatibility(instance)
    mu = config.mu or instance.cost_params.service_cost_mu
    options = FullOptions()
    if mu > 0:
        t1_ref, t3_ref = reference_routing_costs(instance, compat, backend, config, metrics)
        options = FullOptions(service_cost_mu=mu, lambda1=mu * t1_ref, lambda3=mu * t3_ref)
    model, result = _stage("full", config.limits["full"], backend, metrics,
                           build_full, instance, compat, options)
    plan = decode_full(instance, model, result)
    if mu == 0 and result.status == "optimal":
        # a plain optimal solve doubles as the service-cost reference
        _reference_cache.setdefault(instance, (plan.costs.t1_cost, plan.costs.t3_cost))
    return plan


def _run_vrptw(instance, config, backend, metrics) -> VrptwPlan:
    from .vrptw import build_vrptw, decode_vrptw
    model, result = _stage("vrptw", config.limits["full"], backend, metrics,
                           build_vrptw, instance)
    return decode_vrptw(instance, model, result)


def _solve_t3_stopwise(instance, config, backend, metrics, handoff,
                       choices: dict[str, TransitChoice]) -> list[FreighterRoute]:
    """One freighter model per drop-out stop, for the packages dropped there."""
    customers_by_stop: dict[str, list[str]] = {}
    for cid, ch in choices.items():
        customers_by_stop.setdefault(ch.drop_out, []).append(cid)
    routes: list[FreighterRoute] = []
    for stop_id in sorted(customers_by_stop):
        model, result = _stage(f"t3[{stop_id}]", config.limits["per_stop"], backend, metrics,
                               build_t3_stopwise, instance, stop_id,
                               customers_by_stop[stop_id], handoff)
        routes.extend(decode_t3_stopwise(instance, model, result))
    return routes


def _run_d2(instance, config, backend, metrics, artifacts_dir) -> Plan:
    compat = derive_compatibility(instance)
    t2_model, t2_result = _stage("t2", config.limits["other"], backend, metrics,
                                 build_d2_t2, instance, compat, config.objective)
    choices, handoff = decode_t2(instance, t2_model, t2_result)
    _dump(artifacts_dir, "handoff-t2.json", serialize_handoff, handoff)

    t1_model, t1_result = _stage("t1", config.limits["other"], backend, metrics,
                                 build_t1_from_handoff, instance, handoff)
    truck_routes, arrivals, truck_of = decode_t1(instance, t1_model, t1_result)

    freighter_routes = _solve_t3_stopwise(instance, config, backend, metrics, handoff, choices)
    return assemble_plan(instance, choices, truck_of, arrivals.t_truck,
                         truck_routes, freighter_routes)


def _run_d1(instance, config, backend, metrics, artifacts_dir) -> Plan:
    compat = derive_compatibility(instance)
    tau = preprocess_midday(instance, compat)
    t1_model, t1_result = _stage("t1", config.limits["first"], backend, metrics,
                                 build_d1_t1, instance, compat, tau)
    truck_routes, handoff, truck_of = decode_t1(instance, t1_model, t1_result)
    handoff.tau = tau
    _dump(artifacts_dir, "handoff-t1.json", serialize_handoff, handoff)

    t2_model, t2_result = _stage("t2", config.limits["other"], backend, metrics,
                                 build_d1_t2, instance, compat, handoff, config.objective)
    choices, full_handoff = decode_t2(instance, t2_model, t2_result)
    full_handoff.tau = tau
    _dump(artifacts_dir, "handoff-t2.json", serialize_handoff, full_handoff)

    freighter_routes = _solve_t3_stopwise(instance, config, backend, metrics,
                                          full_handoff, choices)
    return assemble_plan(instance, choices, truck_of, handoff.t_truck,
                         truck_routes, freighter_routes)


def _run_d3(instance, config, backend, metrics, artifacts_dir) -> Plan:
    compat = derive_compatibility(instance)
    t_first = first_trip_times(instance)
    t3_model, t3_result = _stage("t3", config.limits["first"], backend, metrics,
                                 build_d3_t3, instance, compat, t_first)
    b_out, raw_routes = decode_d3_t3(instance, t3_model, t3_result)
    t_visit, warnings = repair_d3_times(raw_routes, instance)
    metrics.warnings.extend(warnings)
    handoff = TierHandoff(b_out=b_out, t_first=t_first,
                          t_depart_max=latest_departures(raw_routes, instance, t_visit))
    _dump(artifacts_dir, "handoff-t3.json", serialize_handoff, handoff)

    t2_model, t2_result = _stage("t2", config.limits["other"], backend, metrics,
                                 build_d3_t2, instance, compat, handoff, config.objective)
    choices, t1_handoff = decode_t2(instance, t2_model, t2_result)
    _dump(artifacts_dir, "handoff-t2.json", serialize_handoff, t1_handoff)

    t1_model, t1_result = _stage("t1", config.limits["other"], backend, metrics,
                                 build_t1_from_handoff, instance, t1_handoff)
    truck_routes, arrivals, truck_of = decode_t1(instance, t1_model, t1_result)

    freighter_routes = _retime_d3_routes(instance, t3_model, t3_result, choices)
    return assemble_plan(instance, choices, truck_of, arrivals.t_truck,
                         truck_routes, freighter_routes)


def _retime_d3_routes(instance, t3_model, t3_result, choices) -> list[FreighterRoute]:
    """The d3-t3 routes decoded again, each leaving once its actual drops are loaded.

    The transit stage kept every drop of a route within the dwell cap before
    the route's latest departure, so neither check below can fire unless an
    earlier stage broke its contract; they stay as stage-named guards.
    """
    ready = {cid: ch.drop_time + instance.stop(ch.drop_out).service_time
             for cid, ch in choices.items()}
    routes = decode_freighter_routes(instance, t3_model, t3_result.values, ready)
    for route in routes:
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
    return routes


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
        for config in configs:
            row = ReportRow(instance=name, method=config.method, t2_obj=config.t2_obj or "",
                            beta=config.beta, mu=config.mu)
            art = None
            if artifacts_root is not None:
                art = Path(artifacts_root) / f"{name}__{config.label()}"
            try:
                _plan, metrics = run_method(instance, config, backend, art)
            except (PipelineError, ModelError) as exc:
                row.status, row.error = "failed", str(exc)
                row.worst_stage_status = exc.status if isinstance(exc, PipelineError) else "error"
            else:
                for field_name in _SHARED_FIELDS:
                    setattr(row, field_name, getattr(metrics, field_name))
                row.worst_stage_status = worst_stage_status(s.status for s in metrics.stages)
                row.proven = row.worst_stage_status == "optimal"
                row.runtime = metrics.wall_time
            rows.append(row)
    fill_deviations(rows)
    return rows
