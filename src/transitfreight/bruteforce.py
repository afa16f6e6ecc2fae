"""Exhaustive optimum for guarded micro instances.

Independent ground truth for the solver paths: enumerates every per-customer
itinerary (trip, drop-in, drop-out), every truck assignment and stop order,
and every freighter assignment and visit order, with greedy-earliest timing
clamped up to window openings; ``brute_force_vrptw`` does the same for the
direct-truck baseline. No model-building code is reused here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .instance import Instance, euclidean_distance, travel_time
from .plan import (
    CostBreakdown,
    CustomerItinerary,
    FreighterRoute,
    Plan,
    TruckRoute,
    VrptwPlan,
    VrptwRoute,
)

GUARD_CUSTOMERS = 4
GUARD_TRIPS = 4
GUARD_TRUCKS = 2
GUARD_FREIGHTERS_PER_STOP = 2


class OracleSizeError(ValueError):
    """Instance exceeds the enumeration guard."""


@dataclass(frozen=True)
class TransitOption:
    trip: str
    drop_in: str
    pickup_time: float
    drop_out: str
    drop_time: float


@dataclass
class BruteForceOutcome:
    feasible: bool
    cost: float | None
    plan: Plan | None


def _check_guard(instance: Instance) -> None:
    per_stop = {}
    for k in instance.freighters:
        per_stop[k.home_stop] = per_stop.get(k.home_stop, 0) + 1
    sizes = (
        f"customers={len(instance.customers)} (max {GUARD_CUSTOMERS}), "
        f"trips={len(instance.trips)} (max {GUARD_TRIPS}), "
        f"trucks={len(instance.trucks)} (max {GUARD_TRUCKS}), "
        f"freighters/stop={max(per_stop.values(), default=0)} (max {GUARD_FREIGHTERS_PER_STOP})"
    )
    if (len(instance.customers) > GUARD_CUSTOMERS
            or len(instance.trips) > GUARD_TRIPS
            or len(instance.trucks) > GUARD_TRUCKS
            or max(per_stop.values(), default=0) > GUARD_FREIGHTERS_PER_STOP):
        raise OracleSizeError(f"instance exceeds enumeration guard: {sizes}")
    if instance.cost_params.service_cost_mu != 0.0:
        raise OracleSizeError("enumeration covers the plain routing objective only (mu = 0)")


def _transit_options(instance: Instance, customer) -> list[TransitOption]:
    options = []
    for trip in instance.trips:
        order = instance.line(trip.line).ordered_stops
        for ui, u in enumerate(order):
            if not instance.stop(u).is_drop_in:
                continue
            for v in order[ui + 1:]:
                if v in customer.dropout_candidates:
                    options.append(TransitOption(
                        trip=trip.id, drop_in=u, pickup_time=trip.stop_times[u],
                        drop_out=v, drop_time=trip.stop_times[v]))
    return options


def _trip_loads_ok(instance: Instance, combo: dict[str, TransitOption]) -> bool:
    by_trip: dict[str, list[tuple[str, TransitOption]]] = {}
    for cust_id, opt in combo.items():
        by_trip.setdefault(opt.trip, []).append((cust_id, opt))
    for trip_id, assigned in by_trip.items():
        trip = instance.trip(trip_id)
        order = instance.line(trip.line).ordered_stops
        load = 0.0
        for stop in order:
            for cust_id, opt in assigned:
                q = instance.customer(cust_id).demand
                if opt.drop_in == stop:
                    load += q
                if opt.drop_out == stop:
                    load -= q
            if load > trip.capacity + 1e-9:
                return False
    return True


def _best_order(instance: Instance, home, start: float, visits: dict,
                cost_per_distance: float):
    """Cheapest feasible round trip from ``home`` through every visit.

    ``visits`` maps a key to (location, service time, earliest, latest); the
    route leaves ``home`` at minute ``start`` and each visit ends at the
    earliest minute travel, service and its window allow. Returns (cost,
    visiting order, times) or None when no order meets every window.
    """
    params = instance.cost_params
    best = None
    for perm in itertools.permutations(sorted(visits)):
        t_prev, loc_prev, times = start, home, []
        for key in perm:
            location, service, lo, hi = visits[key]
            arrival = t_prev + travel_time(euclidean_distance(loc_prev, location), params) + service
            t_here = max(arrival, lo)
            if t_here > hi + 1e-9:
                break
            times.append(t_here)
            t_prev, loc_prev = t_here, location
        else:
            points = [home] + [visits[key][0] for key in perm] + [home]
            dist = 0.0
            for a, b in zip(points, points[1:]):
                dist += euclidean_distance(a, b)
            cost = cost_per_distance * dist
            if best is None or cost < best[0] - 1e-12:
                best = (cost, perm, tuple(times))
    return best


def _door_visit(cust) -> tuple:
    """A customer as a ``_best_order`` visit."""
    return cust.location, cust.service_time, cust.window_lo, cust.window_hi


def _best_truck_layer(instance: Instance, demands: dict[str, float],
                      pickup: dict[str, tuple[str, float]], memo: dict):
    """Cheapest feasible trucking of packages to their drop-in stops.

    pickup maps customer -> (drop-in stop, scheduled pickup minute). Returns
    (cost, assignment customer->truck, routes truck->(stops, times)) or None.
    """
    key = tuple(sorted((c, s, t) for c, (s, t) in pickup.items()))
    if key in memo:
        return memo[key]
    params = instance.cost_params
    cdc = instance.cdc
    customers = sorted(pickup)
    best = None
    for labels in itertools.product(range(len(instance.trucks)), repeat=len(customers)):
        groups: dict[int, list[str]] = {}
        for cust, label in zip(customers, labels):
            groups.setdefault(label, []).append(cust)
        total_cost = 0.0
        assignment: dict[str, str] = {}
        routes: dict[str, tuple[tuple[str, ...], tuple[float, ...]]] = {}
        feasible = True
        for label, members in groups.items():
            truck = instance.trucks[label]
            if sum(demands[c] for c in members) > truck.capacity + 1e-9:
                feasible = False
                break
            # per-stop visit window from the packages routed through it
            window: dict[str, tuple[float, float]] = {}
            for c in members:
                stop_id, t_pick = pickup[c]
                dwell = instance.stop(stop_id).max_dwell
                lo, hi = window.get(stop_id, (-1e18, 1e18))
                window[stop_id] = (max(lo, t_pick - dwell), min(hi, t_pick))
            visits = {sid: (instance.stop(sid).location, instance.stop(sid).service_time,
                            *window[sid]) for sid in window}
            route_best = _best_order(instance, cdc, 0.0, visits,
                                     params.truck_cost_per_distance)
            if route_best is None:
                feasible = False
                break
            total_cost += route_best[0]
            routes[truck.id] = (route_best[1], route_best[2])
            for c in members:
                assignment[c] = truck.id
        if feasible and (best is None or total_cost < best[0] - 1e-12):
            best = (total_cost, assignment, routes)
    memo[key] = best
    return best


def _best_freighter_layer(instance: Instance, demands: dict[str, float],
                          drops: dict[str, tuple[str, float]], memo: dict):
    """Cheapest feasible last-leg delivery given per-customer drop stop/time."""
    key = tuple(sorted((c, s, t) for c, (s, t) in drops.items()))
    if key in memo:
        return memo[key]
    params = instance.cost_params
    by_stop: dict[str, list[str]] = {}
    for cust, (stop_id, _) in drops.items():
        by_stop.setdefault(stop_id, []).append(cust)

    total_cost = 0.0
    assignment: dict[str, str] = {}
    routes: dict[str, tuple[float, tuple[str, ...], tuple[float, ...]]] = {}
    for stop_id, members in sorted(by_stop.items()):
        stop = instance.stop(stop_id)
        fleet = instance.freighters_of_stop(stop_id)
        members = sorted(members)
        stop_best = None
        for labels in itertools.product(range(len(fleet)), repeat=len(members)):
            groups: dict[int, list[str]] = {}
            for cust, label in zip(members, labels):
                groups.setdefault(label, []).append(cust)
            cost_here = 0.0
            assign_here: dict[str, str] = {}
            routes_here: dict[str, tuple[float, tuple[str, ...], tuple[float, ...]]] = {}
            feasible = True
            for label, group in groups.items():
                freighter = fleet[label]
                if sum(demands[c] for c in group) > freighter.capacity + 1e-9:
                    feasible = False
                    break
                drop_times = [drops[c][1] for c in group]
                departure = max(drop_times) + stop.service_time
                if departure > min(drop_times) + stop.max_dwell + 1e-9:
                    feasible = False
                    break
                visits = {c: _door_visit(instance.customer(c)) for c in group}
                route_best = _best_order(
                    instance, stop.location, departure, visits,
                    params.freighter_cost_scale * params.truck_cost_per_distance)
                if route_best is None:
                    feasible = False
                    break
                cost_here += route_best[0]
                routes_here[freighter.id] = (departure, route_best[1], route_best[2])
                for c in group:
                    assign_here[c] = freighter.id
            if feasible and (stop_best is None or cost_here < stop_best[0] - 1e-12):
                stop_best = (cost_here, assign_here, routes_here)
        if stop_best is None:
            memo[key] = None
            return None
        total_cost += stop_best[0]
        assignment.update(stop_best[1])
        routes.update(stop_best[2])
    result = (total_cost, assignment, routes)
    memo[key] = result
    return result


def brute_force_optimum(instance: Instance) -> BruteForceOutcome:
    """Exact optimum of the three-tier problem by exhaustive enumeration."""
    _check_guard(instance)
    customers = sorted(instance.customers, key=lambda c: c.id)
    demands = {c.id: c.demand for c in customers}
    options = {c.id: _transit_options(instance, c) for c in customers}
    if any(not opts for opts in options.values()):
        return BruteForceOutcome(feasible=False, cost=None, plan=None)

    truck_memo: dict = {}
    freighter_memo: dict = {}
    accepted_patterns: set = set()
    best: tuple[float, dict[str, TransitOption], tuple, tuple] | None = None

    ids = [c.id for c in customers]
    for picks in itertools.product(*(options[i] for i in ids)):
        combo = dict(zip(ids, picks))
        if not _trip_loads_ok(instance, combo):
            continue
        pickup = {c: (opt.drop_in, opt.pickup_time) for c, opt in combo.items()}
        drops = {c: (opt.drop_out, opt.drop_time) for c, opt in combo.items()}
        pattern = (tuple(sorted(pickup.items())), tuple(sorted(drops.items())))
        if pattern in accepted_patterns:
            continue  # same stops and times: identical cost already scored
        truck_side = _best_truck_layer(instance, demands, pickup, truck_memo)
        if truck_side is None:
            continue
        freighter_side = _best_freighter_layer(instance, demands, drops, freighter_memo)
        if freighter_side is None:
            continue
        accepted_patterns.add(pattern)
        cost = truck_side[0] + freighter_side[0]
        if best is None or cost < best[0] - 1e-12:
            best = (cost, dict(combo), truck_side, freighter_side)

    if best is None:
        return BruteForceOutcome(feasible=False, cost=None, plan=None)

    cost, combo, truck_side, freighter_side = best
    _, truck_assign, truck_routes = truck_side
    t3_cost, freighter_assign, freighter_routes = freighter_side

    stop_times: dict[tuple[str, str], float] = {}
    for truck_id, (stops, times) in truck_routes.items():
        for s, t in zip(stops, times):
            stop_times[(truck_id, s)] = t

    itineraries = []
    for cust_id in ids:
        opt = combo[cust_id]
        truck_id = truck_assign[cust_id]
        freighter_id = freighter_assign[cust_id]
        dep, order, times = freighter_routes[freighter_id]
        delivery = times[order.index(cust_id)]
        itineraries.append(CustomerItinerary(
            customer=cust_id, truck=truck_id,
            drop_in_stop=opt.drop_in, drop_in_time=stop_times[(truck_id, opt.drop_in)],
            trip=opt.trip, drop_out_stop=opt.drop_out, drop_out_time=opt.drop_time,
            freighter=freighter_id, delivery_time=delivery))

    plan = Plan(
        itineraries=tuple(itineraries),
        truck_routes=tuple(
            TruckRoute(truck=tid, departure=0.0, stops=stops, times=times)
            for tid, (stops, times) in sorted(truck_routes.items())),
        freighter_routes=tuple(
            FreighterRoute(freighter=fid, home_stop=instance.freighter(fid).home_stop,
                           departure=dep, customers=order, times=times)
            for fid, (dep, order, times) in sorted(freighter_routes.items())),
        costs=CostBreakdown(t1_cost=truck_side[0], t3_cost=t3_cost),
    )
    return BruteForceOutcome(feasible=True, cost=cost, plan=plan)


def brute_force_vrptw(instance: Instance) -> VrptwPlan | None:
    """Exact direct-truck (VRPTW) optimum by exhaustive enumeration.

    Every labelling of the customers by truck is a partition into at most
    one route per truck; each route is capacity-checked and takes its
    cheapest visiting order whose earliest times, leaving the CDC at minute
    0, meet every window. Returns None when no partition is feasible.
    """
    if len(instance.customers) > GUARD_CUSTOMERS or len(instance.trucks) > GUARD_TRUCKS:
        raise OracleSizeError(
            f"instance exceeds enumeration guard: customers={len(instance.customers)} "
            f"(max {GUARD_CUSTOMERS}), trucks={len(instance.trucks)} (max {GUARD_TRUCKS})")
    per_distance = instance.cost_params.truck_cost_per_distance
    customers = sorted(instance.customers, key=lambda c: c.id)
    best = None
    for labels in itertools.product(range(len(instance.trucks)), repeat=len(customers)):
        cost, routes = 0.0, []
        for label, truck in enumerate(instance.trucks):
            group = [c for c, k in zip(customers, labels) if k == label]
            if not group:
                continue
            if sum(c.demand for c in group) > truck.capacity + 1e-9:
                break
            route = _best_order(instance, instance.cdc, 0.0,
                                {c.id: _door_visit(c) for c in group}, per_distance)
            if route is None:
                break
            cost += route[0]
            routes.append(VrptwRoute(truck=truck.id, departure=0.0,
                                     customers=route[1], times=route[2]))
        else:
            if best is None or cost < best.total_cost - 1e-12:
                best = VrptwPlan(routes=tuple(routes), total_cost=cost)
    return best
