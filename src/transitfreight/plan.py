"""End-to-end delivery plans and their document format.

A three-tier plan records, per customer, the full itinerary (truck, drop-in
stop and time, transit trip, drop-out stop and time, freighter, delivery
time) plus the timed truck and freighter routes and a cost breakdown. A
separate plan shape covers the direct-truck baseline.

A plan document is its schema and kind, then the dataclass written by the
instance module's codec, with the cost total appended to ``costs``; the service
cost and the two service weights may be absent and read as 0. Handoffs, the
decisions one pipeline stage hands on, are written by the same codec, their maps
in the order the stage decoded them. They are written for inspection, and
nothing reads them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .instance import from_doc, require_kind, to_doc

PLAN_SCHEMA = "3tdppt-plan/1"
HANDOFF_SCHEMA = "3tdppt-handoff/3"


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
        doc = {"schema": PLAN_SCHEMA, "kind": "vrptw", **to_doc(plan)}
    else:
        doc = {"schema": PLAN_SCHEMA, "kind": "three-tier", **to_doc(plan)}
        doc["costs"]["total"] = plan.costs.total
    return json.dumps(doc, indent=2) + "\n"


def parse_plan(text: str) -> Plan | VrptwPlan:
    """Read a plan document; ``PlanError`` names the path of a missing or
    wrong-typed field. The service cost and the two service weights may be absent
    and then read as 0."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"not valid JSON: {exc}") from exc
    if require_kind(doc, "top level", dict, PlanError).get("schema") != PLAN_SCHEMA:
        raise PlanError(f"unsupported schema {doc.get('schema')!r}")
    return from_doc(VrptwPlan if doc.get("kind") == "vrptw" else Plan, doc, "", PlanError,
                    optional=("service_cost", "service_lambda1", "service_lambda3"))


def serialize_handoff(doc: dict) -> str:
    """The decisions one stage hands on, named by ``doc``'s keys."""
    return json.dumps({"schema": HANDOFF_SCHEMA, **to_doc(doc)}, indent=2) + "\n"
