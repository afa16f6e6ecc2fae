"""Exhaustive optimum for guarded micro instances.

Independent ground truth for the solver paths: enumerates every per-customer
itinerary (trip, drop-in, drop-out), every labelling of the packages by truck
and, per drop-out stop, by freighter, and every visit order of each group,
with greedy-earliest timing clamped up to window openings;
``brute_force_vrptw`` does the same for the direct-truck baseline.

``brute_force_optimum`` first prices the freighter layer of every drop
pattern (each customer's drop-out stop and minute) and then visits the
patterns in ascending freighter cost. Under a pattern it tries each choice
of trips and drop-in stops, skipping one whose freighter cost plus the
shortest CDC tour through its drop-in stops passes the incumbent. It stops
at the first pattern whose freighter cost plus the cheapest round trip from
the CDC to one drop-in stop passes the incumbent: every truck layer drives
at least that round trip, and every later pattern costs at least as much in
freighters, so no skipped plan could win and the result stays exact. Of the
cheapest plans, the first in ``itertools.product`` order over the itineraries
wins, whatever the visit order.

Within one call each subproblem is solved once: a route's visit orders read
one distance table; truck routes are kept by their stops' visit windows,
truck layers by pickup pattern, freighter routes by (stop, departure,
customer group), each stop's freighter routing by its packages and their
drop minutes, and each member tuple's groups and loads for the labellings.
The only table kept across calls lists the labellings of a member count by a
vehicle count, which no instance enters, and no model-building code is
reused here.
"""

from __future__ import annotations

import functools
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


def _trip_loads_ok(instance: Instance, demands: dict[str, float],
                   combo: dict[str, TransitOption]) -> bool:
    by_trip: dict[str, list[tuple[float, TransitOption]]] = {}
    for cust_id, opt in combo.items():
        by_trip.setdefault(opt.trip, []).append((demands[cust_id], opt))
    for trip_id, assigned in by_trip.items():
        trip = instance.trip(trip_id)
        load = 0.0
        for stop in instance.line(trip.line).ordered_stops:
            for q, opt in assigned:
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
    earliest minute travel, service and its window allow. Every order reads
    its legs from one distance table built per call. Returns (cost, visiting
    order, times) or None when no order meets every window.
    """
    params = instance.cost_params
    keys = sorted(visits)
    points = [home] + [visits[key][0] for key in keys]
    dist = [[euclidean_distance(a, b) for b in points] for a in points]
    minutes = [[travel_time(d, params) for d in row] for row in dist]
    best = None
    for perm in itertools.permutations(range(1, len(points))):
        t_prev, prev, times = start, 0, []
        for here in perm:
            _, service, lo, hi = visits[keys[here - 1]]
            t_here = max(t_prev + minutes[prev][here] + service, lo)
            if t_here > hi + 1e-9:
                break
            times.append(t_here)
            t_prev, prev = t_here, here
        else:
            length, prev = 0.0, 0
            for here in (*perm, 0):
                length += dist[prev][here]
                prev = here
            cost = cost_per_distance * length
            if best is None or cost < best[0] - 1e-12:
                best = (cost, tuple(keys[here - 1] for here in perm), tuple(times))
    return best


@functools.lru_cache(maxsize=None)  # the guard bounds the keys: 3 x 5 at most
def _labellings(vehicles: int, members: int) -> tuple:
    """Every labelling of ``members`` members by ``vehicles`` vehicles, in
    ``itertools.product`` order, each a tuple of (vehicle, member bitmask) pairs
    for its non-empty groups in vehicle order; bit i stands for member i."""
    table = []
    for labels in itertools.product(range(vehicles), repeat=members):
        masks: dict[int, int] = {}
        for i, label in enumerate(labels):
            masks[label] = masks.get(label, 0) | 1 << i
        table.append(tuple(sorted(masks.items())))
    return tuple(table)


_UNASKED = object()


def _best_partition(capacities: list[float], members: list[str],
                    demands: dict[str, float], route_of, subsets: dict | None = None):
    """Cheapest split of ``members`` over vehicles of the given capacities.

    Tries every labelling of the members by vehicle index, in
    ``itertools.product`` order. A labelling counts when each vehicle's group
    fits that vehicle's capacity and ``route_of(group)`` returns a route whose
    first entry is its cost, not None; the first labelling of least cost wins.
    ``route_of`` is asked at most once per group. ``subsets`` keeps, per
    member tuple, the list of its groups by bitmask and their loads; it
    belongs to one ``demands``. Returns (cost, [(vehicle index, group,
    route), ...] in vehicle order) or None.
    """
    members = tuple(members)
    subsets = {} if subsets is None else subsets
    if members not in subsets:
        groups = [tuple(m for i, m in enumerate(members) if mask >> i & 1)
                  for mask in range(1 << len(members))]
        subsets[members] = groups, [sum(demands[m] for m in group) for group in groups]
    groups, loads = subsets[members]
    routes = [_UNASKED] * len(groups)
    best = None
    for labelling in _labellings(len(capacities), len(members)):
        cost = 0.0
        for vehicle, mask in labelling:
            if loads[mask] > capacities[vehicle] + 1e-9:
                break
            route = routes[mask]
            if route is _UNASKED:
                route = routes[mask] = route_of(groups[mask])
            if route is None:
                break
            cost += route[0]
        else:
            if best is None or cost < best[0] - 1e-12:
                best = (cost, labelling)
    if best is None:
        return None
    cost, labelling = best
    return cost, [(vehicle, groups[mask], routes[mask]) for vehicle, mask in labelling]


def _door_visit(cust) -> tuple:
    """A customer as a ``_best_order`` visit."""
    return cust.location, cust.service_time, cust.window_lo, cust.window_hi


def _best_truck_layer(instance: Instance, demands: dict[str, float],
                      pickup: dict[str, tuple[str, float]], memo: dict):
    """Cheapest feasible trucking of packages to their drop-in stops.

    pickup maps customer -> (drop-in stop, scheduled pickup minute). Returns
    (cost, assignment customer->truck, routes truck->(stops, times)) or None.
    ``memo`` belongs to one instance. It keeps layers by pickup pattern,
    "routes" by stop windows and "subsets" for ``_best_partition``.
    """
    key = tuple(sorted((c, s, t) for c, (s, t) in pickup.items()))
    if key in memo:
        return memo[key]
    routes = memo.setdefault("routes", {})
    stops = {sid: instance.stop(sid) for sid, _ in pickup.values()}
    per_distance = instance.cost_params.truck_cost_per_distance

    def route_of(group):
        # per-stop visit window from the packages routed through it
        window: dict[str, tuple[float, float]] = {}
        for c in group:
            stop_id, t_pick = pickup[c]
            lo, hi = window.get(stop_id, (-1e18, 1e18))
            window[stop_id] = (max(lo, t_pick - stops[stop_id].max_dwell), min(hi, t_pick))
        windows = tuple(sorted((sid, lo, hi) for sid, (lo, hi) in window.items()))
        if windows not in routes:
            visits = {sid: (stops[sid].location, stops[sid].service_time, lo, hi)
                      for sid, lo, hi in windows}
            routes[windows] = _best_order(instance, instance.cdc, 0.0, visits, per_distance)
        return routes[windows]

    best = _best_partition([d.capacity for d in instance.trucks], sorted(pickup),
                           demands, route_of, memo.setdefault("subsets", {}))
    if best is not None:
        cost, chosen = best
        best = (cost, {c: instance.trucks[k].id for k, group, _ in chosen for c in group},
                {instance.trucks[k].id: route[1:] for k, _, route in chosen})
    memo[key] = best
    return best


def _best_stop_delivery(instance: Instance, demands: dict[str, float], stop_id: str,
                        drop_time: dict[str, float], memo: dict):
    """Cheapest routing of one stop's freighters over the packages dropped there.

    ``memo`` is ``_best_freighter_layer``'s: its "orders" keep each route by
    (stop, departure, customer group), which is all a route depends on.
    """
    params = instance.cost_params
    stop = instance.stop(stop_id)
    fleet = instance.freighters_of_stop(stop_id)
    orders = memo.setdefault("orders", {})

    def route_of(group):
        times = [drop_time[c] for c in group]
        departure = max(times) + stop.service_time
        if departure > min(times) + stop.max_dwell + 1e-9:
            return None
        key = (stop_id, departure, group)
        if key not in orders:
            route = _best_order(instance, stop.location, departure,
                                {c: _door_visit(instance.customer(c)) for c in group},
                                params.freighter_cost_scale * params.truck_cost_per_distance)
            orders[key] = None if route is None else (route[0], departure, *route[1:])
        return orders[key]

    best = _best_partition([k.capacity for k in fleet], sorted(drop_time), demands, route_of,
                           memo.setdefault("subsets", {}))
    if best is None:
        return None
    cost, chosen = best
    return (cost, {c: fleet[k].id for k, group, _ in chosen for c in group},
            {fleet[k].id: route[1:] for k, _, route in chosen})


def _best_freighter_layer(instance: Instance, demands: dict[str, float],
                          drops: dict[str, tuple[str, float]], memo: dict):
    """Cheapest feasible last-leg delivery given per-customer drop stop/time.

    Returns (cost, assignment customer->freighter, routes freighter->(departure,
    customers, times)) or None. ``memo`` belongs to one instance; it keeps each
    stop's routing per packages and drop minutes, and ``_best_stop_delivery``'s
    tables.
    """
    by_stop: dict[str, list[tuple[str, float]]] = {}
    for cust, (stop_id, t_drop) in sorted(drops.items()):
        by_stop.setdefault(stop_id, []).append((cust, t_drop))
    total_cost, assignment, routes = 0.0, {}, {}
    for stop_id, members in sorted(by_stop.items()):
        key = (stop_id, tuple(members))
        delivery = memo.get(key, _UNASKED)
        if delivery is _UNASKED:
            delivery = memo[key] = _best_stop_delivery(instance, demands, stop_id,
                                                       dict(members), memo)
        if delivery is None:
            return None
        total_cost += delivery[0]
        assignment.update(delivery[1])
        routes.update(delivery[2])
    return total_cost, assignment, routes


def _shortest_tour(instance: Instance, stop_ids) -> float:
    """A lower bound on the truck cost of any pickup pattern over ``stop_ids``.

    Every truck route leaves the CDC and returns to it, so a layer's routes
    joined at the CDC form a closed walk from the CDC through every stop of
    the pattern; by the triangle inequality none is shorter than the shortest
    tour visiting each stop once. Returns that tour's length, found by trying
    every order, times the truck cost per distance.
    """
    cdc = instance.cdc
    shortest = min(
        sum(euclidean_distance(a, b) for a, b in zip((cdc, *perm), (*perm, cdc)))
        for perm in itertools.permutations(instance.stop(sid).location for sid in stop_ids))
    return instance.cost_params.truck_cost_per_distance * shortest


def brute_force_optimum(instance: Instance) -> BruteForceOutcome:
    """Exact optimum of the three-tier problem by exhaustive enumeration."""
    _check_guard(instance)
    customers = sorted(instance.customers, key=lambda c: c.id)
    demands = {c.id: c.demand for c in customers}
    options = {c.id: _transit_options(instance, c) for c in customers}
    if any(not opts for opts in options.values()):
        return BruteForceOutcome(feasible=False, cost=None, plan=None)

    ids = [c.id for c in customers]
    # each customer's options, numbered in product order, by drop-out stop and minute
    by_drop = []
    for cust_id in ids:
        groups: dict[tuple[str, float], list[tuple[int, TransitOption]]] = {}
        for number, opt in enumerate(options[cust_id]):
            groups.setdefault((opt.drop_out, opt.drop_time), []).append((number, opt))
        by_drop.append(groups)

    truck_memo, freighter_memo, tours = {}, {}, {}
    layers = []  # (freighter cost, drop pattern, freighter layer), one per feasible pattern
    for drops in itertools.product(*by_drop):
        freighter_side = _best_freighter_layer(instance, demands, dict(zip(ids, drops)),
                                               freighter_memo)
        if freighter_side is not None:
            layers.append((freighter_side[0], drops, freighter_side))
    layers.sort(key=lambda layer: layer[0])
    # every truck layer drives at least one round trip from the CDC to a drop-in stop
    round_trip = min((_shortest_tour(instance, (opt.drop_in,))
                      for opts in options.values() for opt in opts), default=0.0)

    best = None  # (cost, option numbers, combo, truck layer, freighter layer)
    for freighter_cost, drops, freighter_side in layers:
        if best is not None and freighter_cost + round_trip > best[0] + 1e-9:
            break  # later patterns cost no less in freighters, and no truck layer is cheaper
        accepted = set()
        for picks in itertools.product(*(groups[drop] for groups, drop in zip(by_drop, drops))):
            opts = [opt for _, opt in picks]
            if best is not None:
                stops_in = frozenset(opt.drop_in for opt in opts)
                if stops_in not in tours:
                    tours[stops_in] = _shortest_tour(instance, sorted(stops_in))
                if freighter_cost + tours[stops_in] > best[0] + 1e-9:
                    continue
            pickup = tuple((opt.drop_in, opt.pickup_time) for opt in opts)
            if pickup in accepted:
                continue  # same stops and minutes: identical cost already scored
            combo = dict(zip(ids, opts))
            if not _trip_loads_ok(instance, demands, combo):
                continue
            truck_side = _best_truck_layer(instance, demands, dict(zip(ids, pickup)), truck_memo)
            if truck_side is None:
                continue
            accepted.add(pickup)
            cost = truck_side[0] + freighter_cost
            numbers = tuple(number for number, _ in picks)
            # of the cheapest, the first in itertools.product order wins, whatever the visit order
            if (best is None or cost < best[0] - 1e-12
                    or (cost <= best[0] + 1e-12 and numbers < best[1])):
                best = (cost, numbers, combo, truck_side, freighter_side)

    if best is None:
        return BruteForceOutcome(feasible=False, cost=None, plan=None)

    cost, _, combo, truck_side, freighter_side = best
    _, truck_assign, truck_routes = truck_side
    t3_cost, freighter_assign, freighter_routes = freighter_side

    stop_times = {(truck_id, s): t for truck_id, (stops, times) in truck_routes.items()
                  for s, t in zip(stops, times)}

    itineraries = []
    for cust_id in ids:
        opt, truck_id = combo[cust_id], truck_assign[cust_id]
        freighter_id = freighter_assign[cust_id]
        _, order, times = freighter_routes[freighter_id]
        itineraries.append(CustomerItinerary(
            customer=cust_id, truck=truck_id,
            drop_in_stop=opt.drop_in, drop_in_time=stop_times[(truck_id, opt.drop_in)],
            trip=opt.trip, drop_out_stop=opt.drop_out, drop_out_time=opt.drop_time,
            freighter=freighter_id, delivery_time=times[order.index(cust_id)]))

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
    customers = {c.id: c for c in instance.customers}
    per_distance = instance.cost_params.truck_cost_per_distance
    best = _best_partition(
        [d.capacity for d in instance.trucks], sorted(customers),
        {c.id: c.demand for c in instance.customers},
        lambda group: _best_order(instance, instance.cdc, 0.0,
                                  {c: _door_visit(customers[c]) for c in group}, per_distance))
    if best is None:
        return None
    cost, chosen = best
    return VrptwPlan(routes=tuple(
        VrptwRoute(truck=instance.trucks[k].id, departure=0.0, customers=route[1], times=route[2])
        for k, _, route in chosen), total_cost=cost)
