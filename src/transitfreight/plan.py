"""End-to-end delivery plans and their document format.

A three-tier plan records, per customer, the full itinerary (truck, drop-in
stop and time, transit trip, drop-out stop and time, freighter, delivery
time) plus the timed truck and freighter routes and a cost breakdown. A
separate plan shape covers the direct-truck baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

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


def parse_plan(text: str) -> Plan | VrptwPlan:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"not valid JSON: {exc}") from exc
    if doc.get("schema") != PLAN_SCHEMA:
        raise PlanError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("kind") == "vrptw":
        return VrptwPlan(
            routes=tuple(
                VrptwRoute(
                    truck=r["truck"], departure=float(r["departure"]),
                    customers=tuple(r["customers"]),
                    times=tuple(float(t) for t in r["times"]))
                for r in doc["routes"]),
            total_cost=float(doc["total_cost"]),
        )
    return Plan(
        itineraries=tuple(
            CustomerItinerary(
                customer=it["customer"], truck=it["truck"],
                drop_in_stop=it["drop_in_stop"], drop_in_time=float(it["drop_in_time"]),
                trip=it["trip"], drop_out_stop=it["drop_out_stop"],
                drop_out_time=float(it["drop_out_time"]),
                freighter=it["freighter"], delivery_time=float(it["delivery_time"]))
            for it in doc["itineraries"]),
        truck_routes=tuple(
            TruckRoute(truck=r["truck"], departure=float(r["departure"]),
                       stops=tuple(r["stops"]),
                       times=tuple(float(t) for t in r["times"]))
            for r in doc["truck_routes"]),
        freighter_routes=tuple(
            FreighterRoute(freighter=r["freighter"], home_stop=r["home_stop"],
                           departure=float(r["departure"]),
                           customers=tuple(r["customers"]),
                           times=tuple(float(t) for t in r["times"]))
            for r in doc["freighter_routes"]),
        costs=CostBreakdown(
            t1_cost=float(doc["costs"]["t1_cost"]),
            t3_cost=float(doc["costs"]["t3_cost"]),
            service_cost=float(doc["costs"].get("service_cost", 0.0))),
        service_lambda1=float(doc.get("service_lambda1", 0.0)),
        service_lambda3=float(doc.get("service_lambda3", 0.0)),
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
    doc = json.loads(text)
    if doc.get("schema") != HANDOFF_SCHEMA:
        raise PlanError(f"unsupported schema {doc.get('schema')!r}")
    return TierHandoff(
        b_in={k: str(v) for k, v in doc.get("b_in", {}).items()},
        t_in={k: float(v) for k, v in doc.get("t_in", {}).items()},
        t_truck={k: float(v) for k, v in doc.get("t_truck", {}).items()},
        b_out={k: str(v) for k, v in doc.get("b_out", {}).items()},
        t_out={k: float(v) for k, v in doc.get("t_out", {}).items()},
        t_depart_max={k: float(v) for k, v in doc.get("t_depart_max", {}).items()},
        tau={(e["customer"], e["stop"]): int(e["half"]) for e in doc.get("tau", [])},
        t_first={k: float(v) for k, v in doc.get("t_first", {}).items()},
    )
