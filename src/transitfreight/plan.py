"""End-to-end delivery plans and their document format.

A three-tier plan records, per customer, the full itinerary (truck, drop-in
stop and time, transit trip, drop-out stop and time, freighter, delivery
time) plus the timed truck and freighter routes and a cost breakdown. A
separate plan shape covers the direct-truck baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from .instance import require_field, require_kind

PLAN_SCHEMA = "3tdppt-plan/1"
HANDOFF_SCHEMA = "3tdppt-handoff/1"


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class CustomerItinerary:
    customer: str
    truck: str
    drop_in_stop: str
    drop_in_time: float   # when the truck has the package at the stop
    trip: str
    drop_out_stop: str
    drop_out_time: float  # scheduled arrival of the trip at the drop-out stop
    freighter: str
    delivery_time: float


@dataclass(frozen=True)
class TruckRoute:
    truck: str
    departure: float            # leaves the CDC
    stops: tuple[str, ...]      # visited drop-in stops in order
    times: tuple[float, ...]    # time at each stop


@dataclass(frozen=True)
class FreighterRoute:
    freighter: str
    home_stop: str
    departure: float             # leaves the home stop
    customers: tuple[str, ...]   # visited customers in order
    times: tuple[float, ...]     # delivery time at each customer


@dataclass(frozen=True)
class CostBreakdown:
    t1_cost: float
    t3_cost: float
    service_cost: float = 0.0

    @property
    def total(self) -> float:
        return self.t1_cost + self.t3_cost + self.service_cost


@dataclass(frozen=True)
class Plan:
    itineraries: tuple[CustomerItinerary, ...]
    truck_routes: tuple[TruckRoute, ...]
    freighter_routes: tuple[FreighterRoute, ...]
    costs: CostBreakdown
    service_lambda1: float = 0.0  # per-visit cost on truck arcs into drop-in stops
    service_lambda3: float = 0.0  # per-departure cost on freighter arcs leaving home

    def itinerary_of(self, customer: str) -> CustomerItinerary:
        for it in self.itineraries:
            if it.customer == customer:
                return it
        raise PlanError(f"no itinerary for customer {customer}")


@dataclass(frozen=True)
class VrptwRoute:
    truck: str
    departure: float
    customers: tuple[str, ...]
    times: tuple[float, ...]


@dataclass(frozen=True)
class VrptwPlan:
    routes: tuple[VrptwRoute, ...]
    total_cost: float


# ---- documents ---------------------------------------------------------


def serialize_plan(plan: Plan | VrptwPlan) -> str:
    if isinstance(plan, VrptwPlan):
        doc: dict[str, Any] = {
            "schema": PLAN_SCHEMA,
            "kind": "vrptw",
            "routes": [
                {"truck": r.truck, "departure": r.departure,
                 "customers": list(r.customers), "times": list(r.times)}
                for r in plan.routes
            ],
            "total_cost": plan.total_cost,
        }
        return json.dumps(doc, indent=2) + "\n"
    doc = {
        "schema": PLAN_SCHEMA,
        "kind": "three-tier",
        "itineraries": [
            {
                "customer": it.customer,
                "truck": it.truck,
                "drop_in_stop": it.drop_in_stop,
                "drop_in_time": it.drop_in_time,
                "trip": it.trip,
                "drop_out_stop": it.drop_out_stop,
                "drop_out_time": it.drop_out_time,
                "freighter": it.freighter,
                "delivery_time": it.delivery_time,
            }
            for it in plan.itineraries
        ],
        "truck_routes": [
            {"truck": r.truck, "departure": r.departure,
             "stops": list(r.stops), "times": list(r.times)}
            for r in plan.truck_routes
        ],
        "freighter_routes": [
            {"freighter": r.freighter, "home_stop": r.home_stop, "departure": r.departure,
             "customers": list(r.customers), "times": list(r.times)}
            for r in plan.freighter_routes
        ],
        "costs": {
            "t1_cost": plan.costs.t1_cost,
            "t3_cost": plan.costs.t3_cost,
            "service_cost": plan.costs.service_cost,
            "total": plan.costs.total,
        },
        "service_lambda1": plan.service_lambda1,
        "service_lambda3": plan.service_lambda3,
    }
    return json.dumps(doc, indent=2) + "\n"


_field = partial(require_field, error=PlanError)
_kind = partial(require_kind, error=PlanError)


def _load(text: str, schema: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"not valid JSON: {exc}") from exc
    if _kind(doc, "top level", dict).get("schema") != schema:
        raise PlanError(f"unsupported schema {doc.get('schema')!r}")
    return doc


def _entries(doc: dict, key: str) -> list[tuple[Any, str]]:
    """(element, path) for each element of the list ``doc[key]``."""
    return [(entry, f"{key}[{j}]") for j, entry in enumerate(_field(doc, key, "", list))]


def _times(doc: dict, path: str) -> tuple[float, ...]:
    return tuple(_kind(t, f"{path}.times[{j}]", float)
                 for j, t in enumerate(_field(doc, "times", path, list)))


def _names(doc: dict, key: str, path: str) -> tuple[str, ...]:
    return tuple(_field(doc, key, path, list))


def parse_plan(text: str) -> Plan | VrptwPlan:
    """Read a plan document; ``PlanError`` names the path of a missing or
    wrong-typed field."""
    doc = _load(text, PLAN_SCHEMA)
    if doc.get("kind") == "vrptw":
        return VrptwPlan(
            routes=tuple(
                VrptwRoute(truck=_field(r, "truck", at),
                           departure=_field(r, "departure", at, float),
                           customers=_names(r, "customers", at), times=_times(r, at))
                for r, at in _entries(doc, "routes")),
            total_cost=_field(doc, "total_cost", "", float),
        )
    itineraries = tuple(
        CustomerItinerary(
            customer=_field(it, "customer", at), truck=_field(it, "truck", at),
            drop_in_stop=_field(it, "drop_in_stop", at),
            drop_in_time=_field(it, "drop_in_time", at, float),
            trip=_field(it, "trip", at), drop_out_stop=_field(it, "drop_out_stop", at),
            drop_out_time=_field(it, "drop_out_time", at, float),
            freighter=_field(it, "freighter", at),
            delivery_time=_field(it, "delivery_time", at, float))
        for it, at in _entries(doc, "itineraries"))
    costs = _field(doc, "costs", "", dict)
    return Plan(
        itineraries=itineraries,
        truck_routes=tuple(
            TruckRoute(truck=_field(r, "truck", at), departure=_field(r, "departure", at, float),
                       stops=_names(r, "stops", at), times=_times(r, at))
            for r, at in _entries(doc, "truck_routes")),
        freighter_routes=tuple(
            FreighterRoute(freighter=_field(r, "freighter", at),
                           home_stop=_field(r, "home_stop", at),
                           departure=_field(r, "departure", at, float),
                           customers=_names(r, "customers", at), times=_times(r, at))
            for r, at in _entries(doc, "freighter_routes")),
        costs=CostBreakdown(
            t1_cost=_field(costs, "t1_cost", "costs", float),
            t3_cost=_field(costs, "t3_cost", "costs", float),
            service_cost=_kind(costs.get("service_cost", 0.0), "costs.service_cost", float)),
        service_lambda1=_kind(doc.get("service_lambda1", 0.0), "service_lambda1", float),
        service_lambda3=_kind(doc.get("service_lambda3", 0.0), "service_lambda3", float),
    )


@dataclass
class TierHandoff:
    """Inter-tier parameter bundle passed between decomposition stages.

    Every field has one meaning in every pipeline; a stage fills only the
    fields it has decided.
    """

    b_in: dict[str, str] = field(default_factory=dict)    # customer -> drop-in stop
    t_in: dict[str, float] = field(default_factory=dict)  # customer -> scheduled pickup at b_in
    t_truck: dict[str, float] = field(default_factory=dict)  # customer -> minute its truck is at b_in
    b_out: dict[str, str] = field(default_factory=dict)   # customer -> drop-out stop
    t_out: dict[str, float] = field(default_factory=dict)  # customer -> scheduled drop at b_out
    # customer -> latest minute its freighter may leave b_out (freighter-first
    # pipeline; shared by every customer of one freighter route)
    t_depart_max: dict[str, float] = field(default_factory=dict)
    tau: dict[tuple[str, str], int] = field(default_factory=dict)  # (customer, drop-in) -> half of day
    t_first: dict[str, float] = field(default_factory=dict)        # drop-out stop -> first trip arrival


def serialize_handoff(handoff: TierHandoff) -> str:
    doc = {
        "schema": HANDOFF_SCHEMA,
        "b_in": dict(sorted(handoff.b_in.items())),
        "t_in": dict(sorted(handoff.t_in.items())),
        "t_truck": dict(sorted(handoff.t_truck.items())),
        "b_out": dict(sorted(handoff.b_out.items())),
        "t_out": dict(sorted(handoff.t_out.items())),
        "t_depart_max": dict(sorted(handoff.t_depart_max.items())),
        "tau": [
            {"customer": c, "stop": s, "half": h}
            for (c, s), h in sorted(handoff.tau.items())
        ],
        "t_first": dict(sorted(handoff.t_first.items())),
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_handoff(text: str) -> TierHandoff:
    """Read a handoff document; ``PlanError`` names the path of a wrong-typed field."""
    doc = _load(text, HANDOFF_SCHEMA)

    def mapping(key: str, kind: type) -> dict:
        return {k: _kind(v, f"{key}.{k}", float) if kind is float else str(v)
                for k, v in _kind(doc.get(key, {}), key, dict).items()}

    doc.setdefault("tau", [])
    tau = {(_field(e, "customer", at), _field(e, "stop", at)): int(_field(e, "half", at, float))
           for e, at in _entries(doc, "tau")}
    return TierHandoff(
        b_in=mapping("b_in", str), t_in=mapping("t_in", float),
        t_truck=mapping("t_truck", float), b_out=mapping("b_out", str),
        t_out=mapping("t_out", float), t_depart_max=mapping("t_depart_max", float),
        tau=tau, t_first=mapping("t_first", float))
