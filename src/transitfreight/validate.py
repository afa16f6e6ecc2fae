"""Formulation-free feasibility checking and cost recomputation for plans.

Walks a plan against the raw instance data and reports every violated
restriction as a coded Violation. An empty report means the plan satisfies
all constraint families of the three-tier problem within a 1e-6 tolerance
on times and loads. Unresolvable references raise instead of reporting.

Violation codes:
  TRUCK_CAPACITY      packages on one truck exceed its capacity
  TRIP_CAPACITY       transit vehicle load profile exceeds its capacity
  FREIGHTER_CAPACITY  packages on one freighter exceed its capacity
  WINDOW              delivery outside the customer's time window
  DWELL_IN            package waits longer than allowed at its drop-in stop
  DWELL_OUT           package waits longer than allowed at its drop-out stop
  ORDER               time sequencing broken (pickup after drop-off, route
                      times inconsistent with travel, truck late for pickup,
                      freighter leaving before loading is done)
  TIMETABLE           itinerary contradicts the network/timetable data
                      (stop not on the trip's line, wrong scheduled time,
                      stop lacking the required role)
  COVERAGE            a customer is unserved/duplicated, or routes do not
                      carry what the itineraries claim
  STOP_DISTINCT       a package's drop-in and drop-out stop coincide
  NOT_FINITE          a time or departure is NaN or infinite; every other
                      check compares numbers, and no comparison fails on NaN
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import Instance, euclidean_distance, travel_time
from .plan import CostBreakdown, Plan, VrptwPlan

TOL = 1e-6


class ValidationInputError(ValueError):
    """Plan references something the instance does not define."""


@dataclass(frozen=True)
class Violation:
    code: str
    subjects: tuple[str, ...]
    measured: float | None = None
    bound: float | None = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.code, "(" + ", ".join(self.subjects) + ")"]
        if self.measured is not None or self.bound is not None:
            parts.append(f"measured={self.measured} bound={self.bound}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


def _resolve_plan_refs(instance: Instance, plan: Plan) -> None:
    known_customers = {c.id for c in instance.customers}
    known_stops = {s.id for s in instance.stops}
    known_trips = {p.id for p in instance.trips}
    known_trucks = {d.id for d in instance.trucks}
    known_freighters = {k.id for k in instance.freighters}
    for it in plan.itineraries:
        for label, value, known in (
                ("customer", it.customer, known_customers),
                ("truck", it.truck, known_trucks),
                ("stop", it.drop_in_stop, known_stops),
                ("trip", it.trip, known_trips),
                ("stop", it.drop_out_stop, known_stops),
                ("freighter", it.freighter, known_freighters)):
            if value not in known:
                raise ValidationInputError(f"unknown {label} {value!r} in itinerary")
    for route in plan.truck_routes:
        if route.truck not in known_trucks:
            raise ValidationInputError(f"unknown truck {route.truck!r} in route")
        for sid in route.stops:
            if sid not in known_stops:
                raise ValidationInputError(f"unknown stop {sid!r} in truck route")
        if len(route.stops) != len(route.times):
            raise ValidationInputError(f"truck route {route.truck}: stops/times length mismatch")
    for route in plan.freighter_routes:
        if route.freighter not in known_freighters:
            raise ValidationInputError(f"unknown freighter {route.freighter!r} in route")
        if route.home_stop not in known_stops:
            raise ValidationInputError(f"unknown stop {route.home_stop!r} in freighter route")
        for cid in route.customers:
            if cid not in known_customers:
                raise ValidationInputError(f"unknown customer {cid!r} in freighter route")
        if len(route.customers) != len(route.times):
            raise ValidationInputError(f"freighter route {route.freighter}: customers/times length mismatch")


def _not_finite(subjects: tuple[str, ...], **times: float) -> list[Violation]:
    return [Violation("NOT_FINITE", subjects, measured=t, detail=f"{name} is not finite")
            for name, t in times.items() if not math.isfinite(t)]


def validate_plan(instance: Instance, plan: Plan) -> list[Violation]:
    _resolve_plan_refs(instance, plan)
    params = instance.cost_params
    out: list[Violation] = []

    # coverage: every customer exactly once
    counts: dict[str, int] = {}
    for it in plan.itineraries:
        counts[it.customer] = counts.get(it.customer, 0) + 1
    for cust in instance.customers:
        n = counts.get(cust.id, 0)
        if n != 1:
            out.append(Violation("COVERAGE", (cust.id,), measured=n, bound=1,
                                 detail="customer must appear in exactly one itinerary"))

    truck_route_by_id = {r.truck: r for r in plan.truck_routes}
    freighter_route_by_id = {r.freighter: r for r in plan.freighter_routes}

    # per-itinerary checks
    for it in plan.itineraries:
        cust = instance.customer(it.customer)
        trip = instance.trip(it.trip)
        order = instance.line(trip.line).ordered_stops
        out += _not_finite((it.customer,), drop_in_time=it.drop_in_time,
                           drop_out_time=it.drop_out_time, delivery_time=it.delivery_time)

        if it.drop_in_stop == it.drop_out_stop:
            out.append(Violation("STOP_DISTINCT", (it.customer, it.drop_in_stop)))

        if not instance.stop(it.drop_in_stop).is_drop_in:
            out.append(Violation("TIMETABLE", (it.customer, it.drop_in_stop),
                                 detail="stop is not a drop-in stop"))
        if not instance.stop(it.drop_out_stop).is_drop_out:
            out.append(Violation("TIMETABLE", (it.customer, it.drop_out_stop),
                                 detail="stop is not a drop-out stop"))
        if it.drop_out_stop not in cust.dropout_candidates:
            out.append(Violation("COVERAGE", (it.customer, it.drop_out_stop),
                                 detail="drop-out stop not among the customer's candidates"))

        in_on_line = it.drop_in_stop in order
        out_on_line = it.drop_out_stop in order
        if not in_on_line:
            out.append(Violation("TIMETABLE", (it.customer, it.trip, it.drop_in_stop),
                                 detail="trip's line does not visit the drop-in stop"))
        if not out_on_line:
            out.append(Violation("TIMETABLE", (it.customer, it.trip, it.drop_out_stop),
                                 detail="trip's line does not visit the drop-out stop"))
        if in_on_line and out_on_line and it.drop_in_stop != it.drop_out_stop:
            pickup_t = trip.stop_times[it.drop_in_stop]
            drop_t = trip.stop_times[it.drop_out_stop]
            if order.index(it.drop_in_stop) >= order.index(it.drop_out_stop):
                out.append(Violation("ORDER", (it.customer, it.trip),
                                     measured=pickup_t, bound=drop_t,
                                     detail="package picked up after its drop-off"))
            if abs(it.drop_out_time - drop_t) > TOL:
                out.append(Violation("TIMETABLE", (it.customer, it.trip, it.drop_out_stop),
                                     measured=it.drop_out_time, bound=drop_t,
                                     detail="drop-out time differs from the timetable"))

        # truck side: route must visit the stop at the itinerary's time
        route = truck_route_by_id.get(it.truck)
        if route is None or it.drop_in_stop not in route.stops:
            out.append(Violation("COVERAGE", (it.customer, it.truck, it.drop_in_stop),
                                 detail="assigned truck route does not visit the drop-in stop"))
        else:
            t_at_stop = route.times[route.stops.index(it.drop_in_stop)]
            if abs(t_at_stop - it.drop_in_time) > TOL:
                out.append(Violation("ORDER", (it.customer, it.truck, it.drop_in_stop),
                                     measured=it.drop_in_time, bound=t_at_stop,
                                     detail="itinerary drop-in time differs from the truck route"))
        if in_on_line:
            pickup_t = trip.stop_times[it.drop_in_stop]
            if it.drop_in_time > pickup_t + TOL:
                out.append(Violation("ORDER", (it.customer, it.drop_in_stop),
                                     measured=it.drop_in_time, bound=pickup_t,
                                     detail="truck reaches the stop after the scheduled pickup"))
            dwell = instance.stop(it.drop_in_stop).max_dwell
            if pickup_t - it.drop_in_time > dwell + TOL:
                out.append(Violation("DWELL_IN", (it.customer, it.drop_in_stop),
                                     measured=pickup_t - it.drop_in_time, bound=dwell))

        # freighter side
        froute = freighter_route_by_id.get(it.freighter)
        freighter = instance.freighter(it.freighter)
        if freighter.home_stop != it.drop_out_stop:
            out.append(Violation("COVERAGE", (it.customer, it.freighter),
                                 detail="freighter does not serve the drop-out stop"))
        if froute is None or it.customer not in froute.customers:
            out.append(Violation("COVERAGE", (it.customer, it.freighter),
                                 detail="assigned freighter route does not visit the customer"))
        else:
            t_delivery = froute.times[froute.customers.index(it.customer)]
            if abs(t_delivery - it.delivery_time) > TOL:
                out.append(Violation("ORDER", (it.customer, it.freighter),
                                     measured=it.delivery_time, bound=t_delivery,
                                     detail="itinerary delivery time differs from the freighter route"))
            service = instance.stop(it.drop_out_stop).service_time
            if froute.departure < it.drop_out_time + service - TOL:
                out.append(Violation("ORDER", (it.customer, it.freighter),
                                     measured=froute.departure,
                                     bound=it.drop_out_time + service,
                                     detail="freighter leaves before the package is loaded"))
            dwell = instance.stop(it.drop_out_stop).max_dwell
            if froute.departure - it.drop_out_time > dwell + TOL:
                out.append(Violation("DWELL_OUT", (it.customer, it.drop_out_stop),
                                     measured=froute.departure - it.drop_out_time, bound=dwell))

        if it.delivery_time < cust.window_lo - TOL or it.delivery_time > cust.window_hi + TOL:
            out.append(Violation("WINDOW", (it.customer,),
                                 measured=it.delivery_time,
                                 bound=cust.window_lo if it.delivery_time < cust.window_lo else cust.window_hi))

    # truck loads and route time consistency
    load_by_truck: dict[str, float] = {}
    for it in plan.itineraries:
        load_by_truck[it.truck] = load_by_truck.get(it.truck, 0.0) + instance.customer(it.customer).demand
    for truck_id, load in sorted(load_by_truck.items()):
        cap = instance.truck(truck_id).capacity
        if load > cap + TOL:
            out.append(Violation("TRUCK_CAPACITY", (truck_id,), measured=load, bound=cap))

    for route in plan.truck_routes:
        if len(set(route.stops)) != len(route.stops):
            out.append(Violation("COVERAGE", (route.truck,),
                                 detail="truck route revisits a stop"))
        out += _not_finite((route.truck,), departure=route.departure)
        t_prev = route.departure
        loc_prev = instance.cdc
        for sid, t_here in zip(route.stops, route.times):
            out += _not_finite((route.truck, sid), time=t_here)
            stop = instance.stop(sid)
            needed = t_prev + travel_time(euclidean_distance(loc_prev, stop.location), params) + stop.service_time
            if t_here < needed - TOL:
                out.append(Violation("ORDER", (route.truck, sid),
                                     measured=t_here, bound=needed,
                                     detail="truck route times incompatible with travel"))
            t_prev, loc_prev = t_here, stop.location

    # transit vehicle load profile
    by_trip: dict[str, list] = {}
    for it in plan.itineraries:
        by_trip.setdefault(it.trip, []).append(it)
    for trip_id, its in sorted(by_trip.items()):
        trip = instance.trip(trip_id)
        load = 0.0
        peak = 0.0
        for sid in instance.line(trip.line).ordered_stops:
            for it in its:
                q = instance.customer(it.customer).demand
                if it.drop_in_stop == sid:
                    load += q
                if it.drop_out_stop == sid:
                    load -= q
            peak = max(peak, load)
        if peak > trip.capacity + TOL:
            out.append(Violation("TRIP_CAPACITY", (trip_id,), measured=peak, bound=trip.capacity))

    # freighter loads and route time consistency
    load_by_freighter: dict[str, float] = {}
    for it in plan.itineraries:
        load_by_freighter[it.freighter] = (
            load_by_freighter.get(it.freighter, 0.0) + instance.customer(it.customer).demand)
    for fid, load in sorted(load_by_freighter.items()):
        cap = instance.freighter(fid).capacity
        if load > cap + TOL:
            out.append(Violation("FREIGHTER_CAPACITY", (fid,), measured=load, bound=cap))

    served_by_route: dict[str, set[str]] = {}
    for it in plan.itineraries:
        served_by_route.setdefault(it.freighter, set()).add(it.customer)
    for route in plan.freighter_routes:
        if len(set(route.customers)) != len(route.customers):
            out.append(Violation("COVERAGE", (route.freighter,),
                                 detail="freighter route revisits a customer"))
        extra = set(route.customers) - served_by_route.get(route.freighter, set())
        for cid in sorted(extra):
            out.append(Violation("COVERAGE", (route.freighter, cid),
                                 detail="freighter route visits a customer not assigned to it"))
        freighter = instance.freighter(route.freighter)
        if route.home_stop != freighter.home_stop:
            out.append(Violation("COVERAGE", (route.freighter, route.home_stop),
                                 detail="route does not start at the freighter's home stop"))
        out += _not_finite((route.freighter,), departure=route.departure)
        t_prev = route.departure
        loc_prev = instance.stop(route.home_stop).location
        for cid, t_here in zip(route.customers, route.times):
            out += _not_finite((route.freighter, cid), time=t_here)
            cust = instance.customer(cid)
            needed = t_prev + travel_time(euclidean_distance(loc_prev, cust.location), params) + cust.service_time
            if t_here < needed - TOL:
                out.append(Violation("ORDER", (route.freighter, cid),
                                     measured=t_here, bound=needed,
                                     detail="freighter route times incompatible with travel"))
            t_prev, loc_prev = t_here, cust.location

    return out


def recompute_costs(instance: Instance, plan: Plan) -> CostBreakdown:
    """Objective recomputed from the routes alone."""
    return price_routes(instance, plan.truck_routes, plan.freighter_routes,
                       plan.service_lambda1, plan.service_lambda3)


def price_routes(instance: Instance, truck_routes, freighter_routes,
                service_lambda1: float = 0.0, service_lambda3: float = 0.0) -> CostBreakdown:
    """The cost of truck and freighter routes: distance priced per vehicle tier, plus
    ``service_lambda1`` per drop-in stop visit and ``service_lambda3`` per freighter
    route that leaves its home stop."""
    params = instance.cost_params
    t1 = 0.0
    service = 0.0
    for route in truck_routes:
        loc = instance.cdc
        for sid in route.stops:
            stop = instance.stop(sid)
            t1 += params.truck_cost_per_distance * euclidean_distance(loc, stop.location)
            if stop.is_drop_in:
                service += service_lambda1
            loc = stop.location
        t1 += params.truck_cost_per_distance * euclidean_distance(loc, instance.cdc)
    t3 = 0.0
    for route in freighter_routes:
        home = instance.stop(route.home_stop).location
        loc = home
        for i, cid in enumerate(route.customers):
            cust = instance.customer(cid)
            t3 += params.freighter_cost_scale * params.truck_cost_per_distance * euclidean_distance(loc, cust.location)
            if i == 0:
                service += service_lambda3
            loc = cust.location
        if route.customers:
            t3 += params.freighter_cost_scale * params.truck_cost_per_distance * euclidean_distance(loc, home)
    return CostBreakdown(t1_cost=t1, t3_cost=t3, service_cost=service)


def validate_vrptw_plan(instance: Instance, plan: VrptwPlan) -> list[Violation]:
    """Feasibility of a direct-truck plan: coverage, capacity, windows, timing."""
    params = instance.cost_params
    out: list[Violation] = []
    known_customers = {c.id for c in instance.customers}
    counts: dict[str, int] = {}
    for route in plan.routes:
        if route.truck not in {d.id for d in instance.trucks}:
            raise ValidationInputError(f"unknown truck {route.truck!r}")
        load = 0.0
        for cid in route.customers:
            if cid not in known_customers:
                raise ValidationInputError(f"unknown customer {cid!r}")
            counts[cid] = counts.get(cid, 0) + 1
            load += instance.customer(cid).demand
        cap = instance.truck(route.truck).capacity
        if load > cap + TOL:
            out.append(Violation("TRUCK_CAPACITY", (route.truck,), measured=load, bound=cap))
        out += _not_finite((route.truck,), departure=route.departure)
        t_prev = route.departure
        loc_prev = instance.cdc
        for cid, t_here in zip(route.customers, route.times):
            out += _not_finite((route.truck, cid), time=t_here)
            cust = instance.customer(cid)
            needed = t_prev + travel_time(euclidean_distance(loc_prev, cust.location), params) + cust.service_time
            if t_here < needed - TOL:
                out.append(Violation("ORDER", (route.truck, cid),
                                     measured=t_here, bound=needed,
                                     detail="route times incompatible with travel"))
            if t_here < cust.window_lo - TOL or t_here > cust.window_hi + TOL:
                out.append(Violation("WINDOW", (cid,), measured=t_here,
                                     bound=cust.window_lo if t_here < cust.window_lo else cust.window_hi))
            t_prev, loc_prev = t_here, cust.location
    for cust in instance.customers:
        if counts.get(cust.id, 0) != 1:
            out.append(Violation("COVERAGE", (cust.id,), measured=counts.get(cust.id, 0), bound=1))
    return out


def recompute_vrptw_cost(instance: Instance, plan: VrptwPlan) -> float:
    params = instance.cost_params
    total = 0.0
    for route in plan.routes:
        loc = instance.cdc
        for cid in route.customers:
            total += params.truck_cost_per_distance * euclidean_distance(loc, instance.customer(cid).location)
            loc = instance.customer(cid).location
        total += params.truck_cost_per_distance * euclidean_distance(loc, instance.cdc)
    return total
