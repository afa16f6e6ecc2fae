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
  COVERAGE            a customer is unserved/duplicated, routes do not
                      carry what the itineraries claim, or a vehicle drives
                      more than one route
  STOP_DISTINCT       a package's drop-in and drop-out stop coincide
  NOT_FINITE          a time or departure is NaN or infinite; every other
                      check compares numbers, and no comparison fails on NaN

Every route kind (truck, freighter, direct truck) goes through the same three
checks: its references (``_check_route_refs``), its times along the ride
(``_timed_walk``) and its vehicles' loads (``_load_tally``). ``tour_length`` is
the one closed-tour length: ``price_routes``, ``recompute_vrptw_cost`` and the
route columns of ``model_full.route_costs`` all price a route by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instance import Instance, euclidean_distance
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
        _check_route_refs("truck", route.truck, known_trucks,
                          "stop", route.stops, known_stops, route.times)
    for route in plan.freighter_routes:
        if route.home_stop not in known_stops:
            raise ValidationInputError(f"unknown stop {route.home_stop!r} in freighter route")
        _check_route_refs("freighter", route.freighter, known_freighters,
                          "customer", route.customers, known_customers, route.times)


def _check_route_refs(kind: str, vehicle: str, known_vehicles, place_kind: str,
                      places: tuple[str, ...], known_places, times: tuple[float, ...]) -> None:
    """Raise ValidationInputError unless the route's vehicle and every place it visits
    are known and it has one time per place."""
    if vehicle not in known_vehicles:
        raise ValidationInputError(f"unknown {kind} {vehicle!r} in route")
    for place in places:
        if place not in known_places:
            raise ValidationInputError(f"unknown {place_kind} {place!r} in {kind} route")
    if len(places) != len(times):
        raise ValidationInputError(f"{kind} route {vehicle}: {place_kind}s/times length mismatch")


def _one_route_each(vehicles) -> list[Violation]:
    """A COVERAGE violation per vehicle id that more than one route names."""
    routes: dict[str, int] = {}
    for vid in vehicles:
        routes[vid] = routes.get(vid, 0) + 1
    return [Violation("COVERAGE", (vid,), measured=n, bound=1,
                      detail="vehicle drives more than one route")
            for vid, n in sorted(routes.items()) if n > 1]


def _not_finite(subjects: tuple[str, ...], **times: float) -> list[Violation]:
    return [Violation("NOT_FINITE", subjects, measured=t, detail=f"{name} is not finite")
            for name, t in times.items() if not math.isfinite(t)]


def _timed_walk(instance: Instance, vehicle: str, home, departure: float, places,
                times: tuple[float, ...], detail: str) -> list[Violation]:
    """NOT_FINITE for the departure and each time of a route leaving ``home`` at
    ``departure`` for ``places`` (its Stops or Customers) in order, and ORDER, with
    ``detail``, for each time earlier than the ride from the previous point plus
    service allow."""
    out = _not_finite((vehicle,), departure=departure)
    t_prev, loc_prev = departure, home
    for place, t_here in zip(places, times):
        out += _not_finite((vehicle, place.id), time=t_here)
        needed = t_prev + instance.travel_minutes(loc_prev, place.location) + place.service_time
        if t_here < needed - TOL:
            out.append(Violation("ORDER", (vehicle, place.id),
                                 measured=t_here, bound=needed, detail=detail))
        t_prev, loc_prev = t_here, place.location
    return out


def _load_tally(instance: Instance, code: str, vehicle_of, carried) -> list[Violation]:
    """A ``code`` violation per vehicle, in id order, whose packages outweigh its
    capacity; ``carried`` yields (vehicle id, customer id) pairs and ``vehicle_of``
    looks a vehicle up by id."""
    loads: dict[str, float] = {}
    for vid, cid in carried:
        loads[vid] = loads.get(vid, 0.0) + instance.customer(cid).demand
    out = []
    for vid, load in sorted(loads.items()):
        cap = vehicle_of(vid).capacity
        if load > cap + TOL:
            out.append(Violation(code, (vid,), measured=load, bound=cap))
    return out


def validate_plan(instance: Instance, plan: Plan) -> list[Violation]:
    _resolve_plan_refs(instance, plan)
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

    out += _one_route_each(r.truck for r in plan.truck_routes)
    out += _one_route_each(r.freighter for r in plan.freighter_routes)
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
    out += _load_tally(instance, "TRUCK_CAPACITY", instance.truck,
                       ((it.truck, it.customer) for it in plan.itineraries))
    for route in plan.truck_routes:
        if len(set(route.stops)) != len(route.stops):
            out.append(Violation("COVERAGE", (route.truck,),
                                 detail="truck route revisits a stop"))
        out += _timed_walk(instance, route.truck, instance.cdc, route.departure,
                           [instance.stop(sid) for sid in route.stops], route.times,
                           "truck route times incompatible with travel")

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
    out += _load_tally(instance, "FREIGHTER_CAPACITY", instance.freighter,
                       ((it.freighter, it.customer) for it in plan.itineraries))

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
        out += _timed_walk(instance, route.freighter, instance.stop(route.home_stop).location,
                           route.departure, [instance.customer(cid) for cid in route.customers],
                           route.times,
                           "freighter route times incompatible with travel")

    return out


def recompute_costs(instance: Instance, plan: Plan) -> CostBreakdown:
    """Objective recomputed from the routes alone."""
    return price_routes(instance, plan.truck_routes, plan.freighter_routes,
                       plan.service_lambda1, plan.service_lambda3)


def tour_length(home, points) -> float:
    """Length of the closed tour that leaves ``home``, visits ``points`` in order and
    returns; the legs are added in that order."""
    length, here = 0.0, home
    for point in points:
        length += euclidean_distance(here, point)
        here = point
    return length + euclidean_distance(here, home)


def price_routes(instance: Instance, truck_routes, freighter_routes,
                service_lambda1: float = 0.0, service_lambda3: float = 0.0) -> CostBreakdown:
    """The cost of truck and freighter routes: each route's ``tour_length`` priced at
    its vehicle tier's rate, plus ``service_lambda1`` per drop-in stop visit and
    ``service_lambda3`` per freighter route that leaves its home stop."""
    per_truck = instance.cost_params.truck_cost_per_distance
    per_freighter = instance.cost_params.freighter_cost_scale * per_truck
    t1 = t3 = service = 0.0
    for route in truck_routes:
        points = []
        for sid in route.stops:
            stop = instance.stop(sid)
            points.append(stop.location)
            if stop.is_drop_in:
                service += service_lambda1
        t1 += per_truck * tour_length(instance.cdc, points)
    for route in freighter_routes:
        if route.customers:
            t3 += per_freighter * tour_length(
                instance.stop(route.home_stop).location,
                [instance.customer(cid).location for cid in route.customers])
            service += service_lambda3
    return CostBreakdown(t1_cost=t1, t3_cost=t3, service_cost=service)


def validate_vrptw_plan(instance: Instance, plan: VrptwPlan) -> list[Violation]:
    """Feasibility of a direct-truck plan: coverage, capacity, windows, timing."""
    known_trucks = {d.id for d in instance.trucks}
    known_customers = {c.id for c in instance.customers}
    out = _one_route_each(route.truck for route in plan.routes)
    counts: dict[str, int] = {}
    for route in plan.routes:
        _check_route_refs("truck", route.truck, known_trucks,
                          "customer", route.customers, known_customers, route.times)
        custs = [instance.customer(cid) for cid in route.customers]
        out += _timed_walk(instance, route.truck, instance.cdc, route.departure, custs,
                           route.times, "route times incompatible with travel")
        for cust, t_here in zip(custs, route.times):
            counts[cust.id] = counts.get(cust.id, 0) + 1
            if t_here < cust.window_lo - TOL or t_here > cust.window_hi + TOL:
                out.append(Violation("WINDOW", (cust.id,), measured=t_here,
                                     bound=cust.window_lo if t_here < cust.window_lo else cust.window_hi))
    out += _load_tally(instance, "TRUCK_CAPACITY", instance.truck,
                       ((route.truck, cid) for route in plan.routes for cid in route.customers))
    for cust in instance.customers:
        if counts.get(cust.id, 0) != 1:
            out.append(Violation("COVERAGE", (cust.id,), measured=counts.get(cust.id, 0), bound=1))
    return out


def recompute_vrptw_cost(instance: Instance, plan: VrptwPlan) -> float:
    """The plan's cost: each route's ``tour_length`` at the truck rate."""
    per_truck = instance.cost_params.truck_cost_per_distance
    total = 0.0
    for route in plan.routes:
        total += per_truck * tour_length(
            instance.cdc, [instance.customer(cid).location for cid in route.customers])
    return total
