"""Monolithic MILP over all three delivery tiers, and the model fragments
that it and every decomposition stage in ``tiers`` share.

Variable families (structured names carry the index tuples):
  r[i,s,d]   package i brought to drop-in stop s by truck d
  w[u,v,d]   truck d traverses arc (u,v); the CDC is node ``o`` and its
             route-sink copy ``o~``; the (o,o~) arc is free so idle trucks
             satisfy the departure constraints at no cost
  t1[u,d]    minute truck d leaves node u
  g[d,v]     truck d visits drop-in stop v (the sum of its arcs into v)
  y1[i,s,p]  trip p picks package i up at drop-in stop s
  y2[i,s,p]  trip p drops package i at drop-out stop s
  l2[u,p]    load of trip p leaving stop u
  q[g,i1,..,ik]   freighter class g drives the route that leaves its home stop
                  and serves i1, ..., ik in that order; a class is a set of
                  interchangeable freighters of one stop (``vehicle_classes``)
  dep[g,i1,..,ik] minute that route leaves its home stop, 0 when not driven;
                  ``full`` only, where the drop of each package bounds it

Conditional constraints bracketed by data (line order, candidate sets) are
expanded at build time: variables exist only for index tuples the data
allows, and load propagation is generated per consecutive stop pair.

Each fragment has one copy, used by every model that needs it:
  transit_pairs          a package's pickup and drop stops on one trip: the
                         trip's drop-in stops and the package's candidate
                         drop-out stops, narrowed by predicates and cross-pruned
                         by line order; the predicate-free pickups over all
                         trips are the package's drop-in map entry (``compat``),
                         the stops full's trucks may bring it to
  add_transit_flow       y1/y2 domains, pick/drop once, same trip, forward
                         rides and trip loads, for the monolithic model and
                         all three transit stages; d1-t2 and d3-t2 narrow one
                         end to their fixed stop b_in or b_out by predicate.
                         A ride runs forward: where a trip calls at pickup u
                         no earlier than at drop v (u == v included), one
                         row y1[i,u,p] + y2[i,v,p] <= 1 excludes the pair
  add_trip_loads         l2 along every trip, from the y1/y2 on the builder
  add_truck_rows         w/t1 arcs, degree balance and times per truck, and
                         r[i,s,d] over given drop-in stops with truck capacity,
                         the g visits and one g[d,s] >= r[i,s,d] row per
                         assignment, for full and a truck stage too large for
                         route columns (past ``tiers.ROUTE_LABEL_LIMIT``); one
                         leave_cdc[i,d] row per (package, truck) sends a truck
                         that carries i out of the CDC toward a drop-in stop, a
                         valid row that closes most of the LP gap the big-M
                         time rows leave
  add_arrival_window     big-M rows that hold lo <= t1[s,d] <= hi for the truck
                         carrying the package; full and that truck stage
                         differ only in the stops and windows they pass (within
                         the budget the truck stage chooses enumerated routes
                         in ``tiers`` instead). Both fragments take their one
                         M from the instance (``truck_time_big_m``): the
                         horizon plus twice the longest CDC-to-stop ride
  enumerate_routes       the routes one vehicle class may drive through timed
                         visits: the one label-setting DP, over capacity and
                         windows, that keeps per customer set the orders no
                         other order beats on length and latest departure; a
                         freighter visit serves one customer, a truck visit
                         (``tiers.enumerate_truck_routes``) packages at one
                         stop, and a package may have visits at several stops
  add_freighter_routing  one q column per enumerated route, with fleet rows, for
                         full, t3-stopwise and d3-t3; they differ only in the
                         departure bounds they pass, and link the columns it
                         returns per (customer, stop) to drops (full), the
                         chosen stop (d3-t3) or 1 (t3-stopwise); full adds its
                         dep per column through a hook
  arc_costs              distance-priced objective terms of an arc family
  route_costs            the freighter-rate price of every route column, its
                         closed tour's ``validate.tour_length``, the one
                         closed-tour length every pricer uses

Decoders read binary variables only, each family by column through
``chosen``, and share one helper per job: ``arc_paths`` walks the chosen
arcs from o to o~ (full's w, vrptw's x), ``hand_out`` gives each class's
chosen routes to its vehicles, ``forward_times`` times every route of every
tier, ``freighter_orders`` reads the chosen freighter routes of full and
both freighter stages before they are timed, and ``decode_trucks`` reads the
truck routes of full and both truck stages. A route's times are the
earliest schedule of the chosen routes, which any feasible schedule of the
solver's trails, so the windows and dwell caps it met still hold. Every
plan is put together by ``assemble_plan`` and priced by
``validate.price_routes``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .instance import Instance, euclidean_distance
from .milp import MilpModel, ModelBuilder, ModelError, SolveResult
from .plan import CustomerItinerary, FreighterRoute, Plan, TruckRoute
from .validate import price_routes, tour_length

CDC_NODE = "o"
CDC_SINK = "o~"

INTEGRALITY_TOL = 1e-6


class DecodeError(ModelError):
    """A solution cannot be read back into a plan, as a fractional binary."""


class ModelBuildError(ModelError):
    """A model cannot be built because its inputs admit no solution."""


@dataclass(frozen=True)
class FullOptions:
    symmetry_breaking: bool = True  # orders interchangeable trucks; freighters are class-indexed
    lambda1: float = 0.0  # per traversal of a truck arc into a drop-in stop
    lambda3: float = 0.0  # per freighter departure from its home stop to a customer


def transit_pairs(instance: Instance, customer_id: str, trip_id: str,
                  in_ok=None, out_ok=None) -> tuple[list[str], list[str]]:
    """Usable (pickup stops, drop stops) for one customer on one trip.

    The trip's drop-in stops are the pickups and the customer's candidate
    drop-out stops the drops; optional predicates narrow them. The two sides
    are then cross-pruned so every pickup stop still precedes some usable drop
    stop and vice versa: one pass keeps the pickups before the last drop, then
    the drops after the first kept pickup, which the last drop still follows.
    Without predicates, the union of the pickups over all trips is the
    customer's entry in ``compat.derive_compatibility``'s drop-in map.
    """
    cust = instance.customer(customer_id)
    trip = instance.trip(trip_id)
    order = instance.line(trip.line).ordered_stops
    pos_of = {sid: pos for pos, sid in enumerate(order)}

    ins = [sid for sid in order
           if instance.stop(sid).is_drop_in
           and (in_ok is None or in_ok(cust, instance.stop(sid), trip))]
    outs = [sid for sid in order
            if sid in cust.dropout_candidates
            and (out_ok is None or out_ok(cust, instance.stop(sid), trip))]
    last = pos_of[outs[-1]] if outs else -1
    ins = [s for s in ins if pos_of[s] < last]
    first = pos_of[ins[0]] if ins else len(order)
    return ins, [v for v in outs if pos_of[v] > first]


def arc_costs(mb: ModelBuilder, instance: Instance, family: str,
              per_distance: float) -> list:
    """Objective terms pricing every arc of ``family`` at its length times ``per_distance``.

    The first two indices of each arc variable are its tail and head: the
    CDC (``o`` or ``o~``), a stop or a customer.
    """
    where = {c.id: c.location for c in instance.customers}
    where.update((s.id, s.location) for s in instance.stops)
    where.update({CDC_NODE: instance.cdc, CDC_SINK: instance.cdc})
    return [(var, per_distance * euclidean_distance(where[u], where[v]))
            for (u, v, *_), var in mb.family_items(family)]


def truck_time_big_m(instance: Instance) -> float:
    """The M of the per-truck big-M rows: the horizon plus twice the longest
    CDC-to-stop ride.

    No ride between two nodes is longer than twice that ride, as it may go by
    the CDC. So while a plan's truck minutes and windows lie within the
    horizon, a ``truck_time`` row that is switched off asks no more than
    ``t1[v]`` at least the service time at ``v``, which a truck's minute at a
    stop it serves meets and a stop it skips is free to meet, and an arrival
    window switched off asks ``t1`` to lie within ``[lo - M, hi + M]``.
    """
    longest = max((instance.travel_minutes(instance.cdc, s.location) for s in instance.stops),
                  default=0.0)
    return instance.cost_params.horizon + 2 * longest


def add_truck_rows(mb: ModelBuilder, instance: Instance,
                   stops_of: dict[str, list[str]], symmetry: bool) -> None:
    """Shared per-truck tier-1 structure: arcs, times, and each package ``i`` on one
    truck to one of ``stops_of[i]``.

    ``w[u,v,d]`` arcs leave the CDC ``o`` once and reach its copy ``o~`` once
    per truck, with degree balance at every drop-in stop; big-M rows carry the
    leaving minutes ``t1[u,d]`` along traversed arcs. With ``symmetry`` and one
    truck capacity, trucks are ordered by their use. ``r[i,s,d]`` puts each
    package on one truck to one of its stops, within the truck's capacity.
    ``g[d,v]`` marks a visit of truck ``d`` to drop-in stop ``v``: it equals
    the truck's arcs into ``v`` and is 1 wherever the truck carries a package
    to ``v``.

    One row per (package, truck), ``leave_cdc[i,d]``, says that a truck
    carrying ``i`` leaves the CDC toward a drop-in stop. It cuts off no
    integer plan: the truck visits the package's stop, so it has an arc into
    it; the big-M ``truck_time`` rows forbid a cycle that skips the CDC, and
    ``truck_start`` gives the truck one arc out of it, so that arc leads to a
    drop-in stop. Without the row the LP relaxation routes trucks in cycles
    between drop-in stops and sends none out of the CDC.
    """
    M = truck_time_big_m(instance)
    dropins = [s.id for s in instance.drop_in_stops()]
    tails = [CDC_NODE] + dropins
    heads = dropins + [CDC_SINK]

    def loc(node: str):
        if node in (CDC_NODE, CDC_SINK):
            return instance.cdc
        return instance.stop(node).location

    for d in instance.trucks:
        for u in tails:
            for v in heads:
                if u == v:
                    continue
                mb.binary("w", u, v, d.id)
        for u in [CDC_NODE] + dropins:
            mb.continuous("t1", u, d.id, lb=0.0, ub=M)

    for d in instance.trucks:
        # leave the CDC once, return to its copy once
        mb.add([(mb.get("w", CDC_NODE, v, d.id), 1.0) for v in heads],
               "=", 1.0, f"truck_start[{d.id}]")
        mb.add([(mb.get("w", u, CDC_SINK, d.id), 1.0) for u in tails],
               "=", 1.0, f"truck_end[{d.id}]")
        for u in dropins:
            terms = [(mb.get("w", u, v, d.id), 1.0) for v in heads if v != u]
            terms += [(mb.get("w", v, u, d.id), -1.0) for v in tails if v != u]
            mb.add(terms, "=", 0.0, f"truck_balance[{u},{d.id}]")
        # time propagation along traversed arcs
        for u in tails:
            for v in dropins:
                if u == v:
                    continue
                hop = (instance.travel_minutes(loc(u), loc(v))
                       + instance.stop(v).service_time)
                mb.add([(mb.get("t1", v, d.id), 1.0),
                        (mb.get("t1", u, d.id), -1.0),
                        (mb.get("w", u, v, d.id), -M)],
                       ">=", hop - M, f"truck_time[{u},{v},{d.id}]")

    if symmetry and len({d.capacity for d in instance.trucks}) <= 1:
        trucks = instance.trucks
        for a, b in zip(trucks, trucks[1:]):
            mb.add([(mb.get("w", CDC_NODE, v, a.id), 1.0) for v in dropins]
                   + [(mb.get("w", CDC_NODE, v, b.id), -1.0) for v in dropins],
                   ">=", 0.0, f"truck_sym_first[{a.id}]")
            terms = []
            for u in tails:
                for v in heads:
                    if u == v:
                        continue
                    terms.append((mb.get("w", u, v, a.id), 1.0))
                    terms.append((mb.get("w", u, v, b.id), -1.0))
            mb.add(terms, ">=", 0.0, f"truck_sym_size[{a.id}]")

    for cust in instance.customers:
        for s in stops_of[cust.id]:
            for d in instance.trucks:
                mb.binary("r", cust.id, s, d.id)
    for d in instance.trucks:
        for v in dropins:
            mb.binary("g", d.id, v)
    for cust in instance.customers:
        mb.add([(mb.get("r", cust.id, s, d.id), 1.0)
                for s in stops_of[cust.id] for d in instance.trucks],
               "=", 1.0, f"assign[{cust.id}]")
    for d in instance.trucks:
        mb.add([(mb.get("r", c.id, s, d.id), c.demand)
                for c in instance.customers for s in stops_of[c.id]],
               "<=", d.capacity, f"truck_cap[{d.id}]")
        for v in dropins:
            mb.add([(mb.get("g", d.id, v), 1.0)]
                   + [(mb.get("w", u, v, d.id), -1.0) for u in tails if u != v],
                   "=", 0.0, f"visit_link[{v},{d.id}]")
    for cust in instance.customers:
        for s in stops_of[cust.id]:
            for d in instance.trucks:
                mb.add([(mb.get("g", d.id, s), 1.0), (mb.get("r", cust.id, s, d.id), -1.0)],
                       ">=", 0.0, f"visit_if_carrying[{cust.id},{s},{d.id}]")
    for cust in instance.customers:
        for d in instance.trucks:
            mb.add([(mb.get("w", CDC_NODE, v, d.id), 1.0) for v in dropins]
                   + [(mb.get("r", cust.id, s, d.id), -1.0) for s in stops_of[cust.id]],
                   ">=", 0.0, f"leave_cdc[{cust.id},{d.id}]")


def vehicle_classes(vehicles) -> list[tuple[str, tuple]]:
    """Vehicles grouped into classes of interchangeable vehicles.

    Vehicles of one fleet (the trucks, or the freighters of one stop) that
    share a capacity are interchangeable; each class is named by its first
    vehicle's id and keeps its members in instance order, which is the order
    decoded routes are handed out in.
    """
    by_capacity: dict[float, list] = {}
    for k in vehicles:
        by_capacity.setdefault(k.capacity, []).append(k)
    return [(fleet[0].id, tuple(fleet)) for fleet in by_capacity.values()]


def ride_minutes(instance: Instance, a, cust) -> float:
    """Minutes from leaving point ``a`` to the end of service at ``cust``."""
    return instance.travel_minutes(a, cust.location) + cust.service_time


def forward_times(instance: Instance, home, departure: float, visits) -> tuple[float, ...]:
    """Minute service ends at each visit of a route leaving ``home`` at ``departure``.

    ``visits`` are ``(place, earliest)`` pairs, a place being a ``Stop`` or a
    ``Customer``. A visit ends one ride and the place's service time after the
    previous one, summed in the order ``validate``'s walk sums them, or at
    ``earliest`` if that is later.
    """
    t, here, times = departure, home, []
    for place, earliest in visits:
        t = max(earliest, t + instance.travel_minutes(here, place.location) + place.service_time)
        here = place.location
        times.append(t)
    return tuple(times)


def hand_out(classes, driven: dict[str, list], kind: str) -> list[tuple]:
    """(vehicle, route) pairs: the routes ``driven[g]`` of each class ``(g, fleet)``
    (``vehicle_classes``), in order, given to its vehicles in instance order.

    Raises ``DecodeError`` where a class drives more routes than it has ``kind``.
    """
    pairs = []
    for g, fleet in classes:
        routes = driven.get(g, [])
        if len(routes) > len(fleet):
            raise DecodeError(f"class {g}: {len(routes)} routes for {len(fleet)} {kind}")
        pairs += zip(fleet, routes)
    return pairs


def arc_paths(arcs) -> dict[str, list[list[str]]]:
    """Per owner, the nodes of each path its chosen arcs trace from the CDC ``o`` to its
    copy ``o~``, one per arc out of ``o`` in the order given; the idle (o, o~) arc
    traces none.

    ``arcs`` are the (tail, head, owner) indices of an arc family: a truck owns
    ``full``'s ``w``, a truck class ``vrptw``'s ``x``. Raises ``DecodeError``
    naming the node where a path breaks off or loops.
    """
    starts: dict[str, list[str]] = {}
    succ: dict[str, dict[str, str]] = {}
    for u, v, owner in arcs:
        if u != CDC_NODE:
            succ.setdefault(owner, {})[u] = v
        elif v != CDC_SINK:
            starts.setdefault(owner, []).append(v)
    paths: dict[str, list[list[str]]] = {}
    for owner, firsts in starts.items():
        after = succ.get(owner, {})
        for node in firsts:
            path: list[str] = []
            while node != CDC_SINK:
                if node in path:
                    raise DecodeError(f"{owner}: path from {CDC_NODE} loops back to {node}")
                if node not in after:
                    raise DecodeError(f"{owner}: path from {CDC_NODE} breaks off at {node}")
                path.append(node)
                node = after[node]
            paths.setdefault(owner, []).append(path)
    return paths


def _pareto(labels: list[tuple]) -> list[tuple]:
    """Labels (distance, latest, ...) that no other label beats on both.

    Of labels of equal distance only the one with the latest minute survives.
    """
    kept: list[tuple] = []
    for label in sorted(labels, key=lambda lab: (lab[0], -lab[1])):
        if kept and label[0] <= kept[-1][0] + 1e-9:
            if label[1] > kept[-1][1]:
                kept[-1] = label
        elif not kept or label[1] > kept[-1][1]:
            kept.append(label)
    return kept


def enumerate_routes(instance: Instance, home, places: dict, visits: list[tuple],
                     capacity: float, budget: float = math.inf
                     ) -> dict[frozenset, list[tuple]] | None:
    """Elementary routes from ``home`` through ``visits``: a label-setting DP.

    A visit is ``(place, customers, load, lo, hi, (dep_lo, dep_hi))``: it
    serves ``customers`` with ``load`` at ``place``, its service ends within
    ``[lo, hi]``, and the route that makes it leaves ``home`` within
    ``[dep_lo, dep_hi]``; ``places[p]`` is ``(location, service minutes)``.
    A customer may be served at several places, and (place, customers) names
    one visit. The DP extends visit orders backward from their last visit: a
    label is an order with its distance back home, its load, the latest
    minute service at its first visit may end and its departure bounds. A
    label dies when its load exceeds ``capacity``, when that latest end falls
    before its first visit's window opens or before the ride from its
    earliest departure, or when its departure bounds do not meet. A route
    visits each place at most once and serves each customer once. Of the
    labels of one customer set, set of visited places and first place only
    the Pareto labels survive: shorter, or leaving later; of labels of equal
    length only the one that may leave latest. Where every customer has one
    place, the customers served fix the places visited.

    Returns, per customer set, its Pareto (distance, latest departure L,
    customers in visit order, the place of each), shortest first; or None
    once more than ``budget`` labels have grown.
    """
    pairs = [(a, b) for a in places for b in places if a != b]
    gap = {(a, b): euclidean_distance(places[a][0], places[b][0]) for a, b in pairs}
    hop = {(a, b): instance.travel_minutes(places[a][0], places[b][0]) + places[b][1]
           for a, b in pairs}
    back = {p: euclidean_distance(loc, home) for p, (loc, _) in places.items()}
    reach = {p: instance.travel_minutes(home, loc) + service for p, (loc, service) in places.items()}
    bit: dict[str, int] = {}
    by_place: dict = {}  # place -> (its bit, its visits with the bits of their customers)
    for place, customers, *rest in visits:
        for cid in customers:
            bit.setdefault(cid, 1 << len(bit))
        if place not in by_place:
            by_place[place] = (1 << len(by_place), [])
        by_place[place][1].append((sum(bit[cid] for cid in customers), customers,
                                   (place,) * len(customers), *rest))

    def alive(first, latest: float, lo: float, dep_lo: float, dep_hi: float) -> bool:
        return latest >= max(lo, dep_lo + reach[first]) - 1e-9 and dep_lo <= dep_hi + 1e-9

    # (customer bits, place bits, first place) -> labels (distance, latest end at first,
    # order, places of the order, load, dep_lo, dep_hi)
    labels: dict[tuple[int, int, str], list[tuple]] = {}
    for place, (mark, options) in by_place.items():
        for bits, customers, at, load, lo, hi, (dep_lo, dep_hi) in options:
            if load <= capacity + 1e-9 and alive(place, hi, lo, dep_lo, dep_hi):
                labels[(bits, mark, place)] = [(back[place], hi, customers, at, load,
                                                dep_lo, dep_hi)]
    done: dict[int, list[tuple]] = {}
    grown_count = 0
    while labels:
        grown: dict[tuple[int, int, str], list[tuple]] = {}
        for (served, visited, first), front in labels.items():
            for dist, latest, order, where, load, dep_lo, dep_hi in front:
                done.setdefault(served, []).append(
                    (dist + back[first], latest - reach[first], order, where))
                for place, (mark, options) in by_place.items():
                    if visited & mark:
                        continue
                    for bits, customers, at, extra, lo, hi, (v_lo, v_hi) in options:
                        if served & bits or load + extra > capacity + 1e-9:
                            continue
                        t = min(hi, latest - hop[(place, first)])
                        lo2, hi2 = max(dep_lo, v_lo), min(dep_hi, v_hi)
                        if alive(place, t, lo, lo2, hi2):
                            grown_count += 1
                            grown.setdefault((served | bits, visited | mark, place), []).append(
                                (dist + gap[(place, first)], t, customers + order, at + where,
                                 load + extra, lo2, hi2))
                if grown_count > budget:
                    return None
        labels = {key: _pareto(front) for key, front in grown.items()}
    return {frozenset(orders[0][2]): _pareto(orders) for orders in done.values()}


def add_freighter_routing(mb: ModelBuilder, instance: Instance,
                          customers_of_stop: dict[str, list[str]], departure_bounds,
                          each_column=lambda q, idx, lo, hi: None) -> dict[tuple[str, str], list]:
    """Shared tier-3 structure: one route column per route a freighter class may drive.

    ``customers_of_stop`` lists, per drop-out stop, the customers its
    freighters may serve; a customer may be listed at several stops, in
    which case the once-served constraint spans all of them. Stops absent
    from the map contribute no variables. ``departure_bounds(customer,
    stop)`` gives (earliest, latest) bounds on the departure of the route
    serving that customer from that stop.

    Per class (``vehicle_classes``) the routes come from
    ``enumerate_routes``, one visit per customer, so every column can leave
    within the bounds of all its customers. Route ``r`` is a binary
    ``q[g,i1,...,ik]`` indexed by the class and its customers in visit
    order; at most the class size of routes are driven. Each column is
    handed to ``each_column(q, idx, lo, hi)`` as it is made, with its index
    and its departure window: ``lo`` is the latest earliest departure of its
    customers, ``hi`` the earlier of its latest departure and theirs.

    Returns, per (customer, stop), the ``q`` of the columns that serve the
    customer from that stop, in the order they were made. Callers tie them
    to their own decision: ``full`` to the drop there; d3-t3 and t3-stopwise
    serve each customer once over the columns of all its stops.
    """
    serving: dict[tuple[str, str], list] = {}
    for stop_id in sorted(customers_of_stop):
        home = instance.stop(stop_id).location
        bounds = {cid: departure_bounds(cid, stop_id) for cid in customers_of_stop[stop_id]}
        custs = [instance.customer(cid) for cid in sorted(bounds)]
        places = {c.id: (c.location, c.service_time) for c in custs}
        visits = [(c.id, (c.id,), c.demand, c.window_lo, c.window_hi, bounds[c.id]) for c in custs]
        for g, fleet in vehicle_classes(instance.freighters_of_stop(stop_id)):
            driven = []
            found = enumerate_routes(instance, home, places, visits, fleet[0].capacity)
            labels = [label for front in found.values() for label in front]
            for _, latest, order, _ in sorted(labels, key=lambda lab: (len(lab[2]), lab[2])):
                q = mb.binary("q", g, *order)
                each_column(q, (g, *order), max(bounds[cid][0] for cid in order),
                            min([latest] + [bounds[cid][1] for cid in order]))
                driven.append((q, 1.0))
                for cid in order:
                    serving.setdefault((cid, stop_id), []).append(q)
            if driven:
                mb.add(driven, "<=", float(len(fleet)), f"fleet[{g}]")
    return serving


def route_costs(mb: ModelBuilder, instance: Instance) -> list:
    """Objective terms pricing every route column at its ``validate.tour_length`` at
    the freighter rate, the price ``validate.price_routes`` gives its route."""
    params = instance.cost_params
    per_distance = params.freighter_cost_scale * params.truck_cost_per_distance
    terms = []
    for (g, *order), q in mb.family_items("q"):
        home = instance.stop(instance.freighter(g).home_stop).location
        terms.append((q, per_distance * tour_length(
            home, [instance.customer(cid).location for cid in order])))
    return terms


def add_transit_flow(mb: ModelBuilder, instance: Instance, unserved, in_ok=None, out_ok=None,
                     ) -> dict[str, dict[str, tuple[list[str], list[str]]]]:
    """Shared tier-2 structure: y1/y2 domains, same trip, forward rides, loads.

    ``in_ok``/``out_ok`` narrow the pickup and drop stops (``transit_pairs``);
    a package no trip can carry raises ``ModelBuildError(unserved(cust))``.
    Rides run forward: a pickup at ``u`` and a drop at ``v`` on one trip
    exclude each other unless the trip calls at ``u`` before ``v``. Stop
    times rise strictly along a line, so only pairs with ``t(u) >= t(v)``,
    a dual-role stop among them, need the row ``y1 + y2 <= 1``.

    Returns per-customer, per-trip usable (pickup, drop) stop lists.
    """
    domains: dict[str, dict[str, tuple[list[str], list[str]]]] = {}
    for cust in instance.customers:
        per_trip: dict[str, tuple[list[str], list[str]]] = {}
        for trip in instance.trips:
            ins, outs = transit_pairs(instance, cust.id, trip.id, in_ok=in_ok, out_ok=out_ok)
            if ins and outs:
                per_trip[trip.id] = (ins, outs)
                for s in ins:
                    mb.binary("y1", cust.id, s, trip.id)
                for s in outs:
                    mb.binary("y2", cust.id, s, trip.id)
        if not per_trip:
            raise ModelBuildError(unserved(cust))
        domains[cust.id] = per_trip

    for cust in instance.customers:
        per_trip = domains[cust.id]
        # picked up exactly once, dropped exactly once
        mb.add([(mb.get("y1", cust.id, s, p), 1.0)
                for p, (ins, _) in per_trip.items() for s in ins],
               "=", 1.0, f"pick_once[{cust.id}]")
        mb.add([(mb.get("y2", cust.id, s, p), 1.0)
                for p, (_, outs) in per_trip.items() for s in outs],
               "=", 1.0, f"drop_once[{cust.id}]")
        for p, (ins, outs) in per_trip.items():
            times = instance.trip(p).stop_times
            # same vehicle picks and drops
            mb.add([(mb.get("y1", cust.id, s, p), 1.0) for s in ins]
                   + [(mb.get("y2", cust.id, s, p), -1.0) for s in outs],
                   "=", 0.0, f"same_vehicle[{cust.id},{p}]")
            for u in ins:
                for v in outs:
                    if times[u] >= times[v]:
                        mb.add([(mb.get("y1", cust.id, u, p), 1.0),
                                (mb.get("y2", cust.id, v, p), 1.0)],
                               "<=", 1.0, f"ride_order[{cust.id},{u},{v},{p}]")

    add_trip_loads(mb, instance)
    return domains


def add_trip_loads(mb: ModelBuilder, instance: Instance) -> None:
    """Load propagation per consecutive stop pair of every trip a package may ride.

    Reads the y1 (pickup) and y2 (drop) variables already on the builder;
    each trip's load starts empty and stays within its capacity.
    """
    moves: dict[tuple[str, str], list] = {}  # (trip, stop) -> load change terms
    for family, sign in (("y1", -1.0), ("y2", 1.0)):
        for (cid, sid, pid), var in mb.family_items(family):
            moves.setdefault((pid, sid), []).append((var, sign * instance.customer(cid).demand))
    ridden = {pid for pid, _ in moves}
    for trip in instance.trips:
        if trip.id not in ridden:
            continue
        order = instance.line(trip.line).ordered_stops
        for sid in order:
            mb.continuous("l2", sid, trip.id, lb=0.0, ub=trip.capacity)
        for k, sid in enumerate(order):
            terms = [(mb.get("l2", sid, trip.id), 1.0)]
            if k > 0:
                terms.append((mb.get("l2", order[k - 1], trip.id), -1.0))
            mb.add(terms + moves.get((trip.id, sid), []), "=", 0.0, f"load[{sid},{trip.id}]")


@dataclass(frozen=True)
class TransitChoice:
    """Decoded transit decision for one package."""

    trip: str
    drop_in: str
    pickup_time: float
    drop_out: str
    drop_time: float


def decode_transit(instance: Instance, model: MilpModel,
                   result: SolveResult) -> dict[str, TransitChoice]:
    """The trip, stops and times each package rides, from any transit stage."""
    picked = {i: (s, p) for i, s, p in chosen(model, result.values, "y1")}
    dropped = {i: (s, p) for i, s, p in chosen(model, result.values, "y2")}
    choices = {}
    for cust in instance.customers:
        if cust.id not in picked or cust.id not in dropped:
            raise DecodeError(f"customer {cust.id}: no trip decoded")
        s_in, p_in = picked[cust.id]
        s_out, p_out = dropped[cust.id]
        trip = instance.trip(p_in)
        choices[cust.id] = TransitChoice(
            trip=p_in, drop_in=s_in, pickup_time=trip.stop_times[s_in],
            drop_out=s_out, drop_time=instance.trip(p_out).stop_times[s_out])
    return choices


def add_arrival_window(mb: ModelBuilder, instance: Instance, cust: str, stop: str,
                       lo=None, hi=None) -> None:
    """The truck carrying ``cust`` to ``stop`` arrives within ``[lo, hi]``.

    ``lo`` and ``hi`` are ``(terms, constant)`` expressions; either may be
    left open. Per truck, big-M rows on ``r[cust,stop,d]`` hold them only
    for the truck that carries the package (``truck_time_big_m``).
    """
    M = truck_time_big_m(instance)
    for d in instance.trucks:
        t1, r_var = mb.get("t1", stop, d.id), mb.get("r", cust, stop, d.id)
        if hi is not None:
            terms, constant = hi
            mb.add([(t1, 1.0), (r_var, M)] + [(v, -c) for v, c in terms],
                   "<=", constant + M, f"arrive_by[{cust},{stop},{d.id}]")
        if lo is not None:
            terms, constant = lo
            mb.add([*terms, (t1, -1.0), (r_var, M)],
                   "<=", M - constant, f"arrive_after[{cust},{stop},{d.id}]")


def build_full(instance: Instance, options: FullOptions | None = None) -> MilpModel:
    """Complete three-tier model; minimizes truck plus freighter routing cost.

    A truck may bring each package to any pickup stop of its transit domains,
    and a freighter serve it from any drop stop there (``transit_pairs``)."""
    options = options or FullOptions()
    params = instance.cost_params
    mb = ModelBuilder("full")

    domains = add_transit_flow(mb, instance, lambda cust: f"no carrying trip: customer {cust.id}")
    stops_of = {cid: sorted({s for ins, _ in per_trip.values() for s in ins})
                for cid, per_trip in domains.items()}
    add_truck_rows(mb, instance, stops_of, options.symmetry_breaking)

    pickups = {(c.id, s): [(mb.get("y1", c.id, s, p), instance.trip(p).stop_times[s])
                           for p, (ins, _) in domains[c.id].items() if s in ins]
               for c in instance.customers for s in stops_of[c.id]}
    # drop-off by the truck pairs with pickup by a transit vehicle at that stop
    for (cid, s), terms in pickups.items():
        mb.add([(mb.get("r", cid, s, d.id), 1.0) for d in instance.trucks]
               + [(v, -1.0) for v, _ in terms], "=", 0.0, f"handover[{cid},{s}]")
    # truck reaches the stop before the scheduled pickup, and within the dwell cap
    for (cid, s), terms in pickups.items():
        add_arrival_window(mb, instance, cid, s,
                           lo=(terms, -instance.stop(s).max_dwell), hi=(terms, 0.0))

    drops_at = {}  # (customer, drop-out stop) -> [(y2, scheduled drop time)]
    for cust in instance.customers:
        for p, (_, outs) in domains[cust.id].items():
            for s in outs:
                drops_at.setdefault((cust.id, s), []).append(
                    (mb.get("y2", cust.id, s, p), instance.trip(p).stop_times[s]))
    customers_of_stop = {s.id: sorted(cid for cid, sid in drops_at if sid == s.id)
                         for s in instance.drop_out_stops()}

    def departure_bounds(cid: str, sid: str) -> tuple[float, float]:
        times = [t for _, t in drops_at[(cid, sid)]]
        stop = instance.stop(sid)
        return min(times) + stop.service_time, max(times) + stop.max_dwell

    dep_of = {}  # route column -> its departure

    def departure(q, idx, lo, hi) -> None:
        # dep[g,i1,..,ik] lies within [lo, hi] while its column is driven, and is 0 otherwise
        dep = dep_of[q] = mb.continuous("dep", *idx)
        route = ",".join(idx)
        mb.add([(dep, 1.0), (q, -lo)], ">=", 0.0, f"dep_lo[{route}]")
        mb.add([(dep, 1.0), (q, -hi)], "<=", 0.0, f"dep_hi[{route}]")

    serving = add_freighter_routing(mb, instance, customers_of_stop, departure_bounds, departure)

    for cust in instance.customers:
        for s in sorted(cust.dropout_candidates):
            if (cust.id, s) not in drops_at:
                continue
            drop_terms, stop = drops_at[(cust.id, s)], instance.stop(s)
            columns = serving.get((cust.id, s), [])
            departs = [(dep_of[q], 1.0) for q in columns]
            # the route leaves only after the package is loaded, and within the dwell cap;
            # dep is 0 off the one column that serves the package, so no big-M is needed
            mb.add(departs + [(v, -(t + stop.service_time)) for v, t in drop_terms],
                   ">=", 0.0, f"load_first[{cust.id},{s}]")
            mb.add(departs + [(v, -(t + stop.max_dwell)) for v, t in drop_terms],
                   "<=", 0.0, f"dwell_out[{cust.id},{s}]")
            # handover to freighters: served from a stop exactly when dropped there
            mb.add([(q, 1.0) for q in columns] + [(v, -1.0) for v, _ in drop_terms],
                   "=", 0.0, f"freighter_handover[{cust.id},{s}]")

    objective = (arc_costs(mb, instance, "w", params.truck_cost_per_distance)
                 + route_costs(mb, instance))
    if options.lambda1 or options.lambda3:
        # per-visit service costs: a truck arc into a drop-in stop, a freighter route
        objective += [(var, options.lambda1)
                      for (_u, v, _d), var in mb.family_items("w") if v != CDC_SINK]
        objective += [(q, options.lambda3) for _, q in mb.family_items("q")]
    mb.set_objective(objective)
    return mb.build(lambda1=options.lambda1, lambda3=options.lambda3)


def chosen(model: MilpModel, values: list[float], family: str) -> list[tuple]:
    """The index tuples of ``family``'s binaries at 1 in ``values``, in registry order;
    raises on a value fractional beyond ``INTEGRALITY_TOL``."""
    picked = []
    for idx, col in model.family(family).items():
        v = values[col]
        if abs(v - round(v)) > INTEGRALITY_TOL:
            raise DecodeError(f"column {col}, {model.variables[col]} = {v}, "
                              "is fractional beyond tolerance")
        if round(v) >= 1:
            picked.append(idx)
    return picked


def decode_full(instance: Instance, model: MilpModel, result: SolveResult) -> Plan:
    """Turn a FULL solution into a plan; raises on fractional binaries. A truck serves
    each stop no earlier than the dwell cap before the pickups there."""
    if not result.has_solution():
        raise DecodeError(f"no solution to decode (status {result.status})")
    choices = decode_transit(instance, model, result)
    lo = {(cid, ch.drop_in): ch.pickup_time - instance.stop(ch.drop_in).max_dwell
          for cid, ch in choices.items()}
    truck_routes, placed = decode_trucks(instance, model, result.values, lo)
    freighter_routes = decode_freighter_routes(instance, model, result.values, choices)
    return assemble_plan(instance, choices, placed, truck_routes, freighter_routes,
                         float(model.metadata["lambda1"]), float(model.metadata["lambda3"]))


def assemble_plan(instance: Instance, choices: dict[str, TransitChoice],
                  placed: dict[str, tuple[str, str, float]], truck_routes, freighter_routes,
                  service_lambda1: float = 0.0, service_lambda3: float = 0.0) -> Plan:
    """The plan of every pipeline: one itinerary per package from its trip, its truck and
    minute at the drop-in stop (``placed``, as ``decode_trucks`` gives it), and the
    freighter route serving it, priced from its routes."""
    serving: dict[str, tuple[str, float]] = {}
    for route in freighter_routes:
        for cid, t in zip(route.customers, route.times):
            serving[cid] = (route.freighter, t)
    itineraries = []
    for cust in instance.customers:
        if cust.id not in placed or cust.id not in serving:
            raise DecodeError(f"customer {cust.id}: incomplete assignment in solution")
        ch = choices[cust.id]
        _, truck, t_truck = placed[cust.id]
        freighter_id, t_delivery = serving[cust.id]
        itineraries.append(CustomerItinerary(
            customer=cust.id, truck=truck,
            drop_in_stop=ch.drop_in, drop_in_time=t_truck,
            trip=ch.trip, drop_out_stop=ch.drop_out, drop_out_time=ch.drop_time,
            freighter=freighter_id, delivery_time=t_delivery))
    truck_routes, freighter_routes = tuple(truck_routes), tuple(freighter_routes)
    costs = price_routes(instance, truck_routes, freighter_routes, service_lambda1, service_lambda3)
    return Plan(itineraries=tuple(itineraries), truck_routes=truck_routes,
                freighter_routes=freighter_routes, costs=costs,
                service_lambda1=service_lambda1, service_lambda3=service_lambda3)


def decode_trucks(instance: Instance, model: MilpModel, values: list[float],
                  lo: dict[tuple[str, str], float]
                  ) -> tuple[list[TruckRoute], dict[str, tuple[str, str, float]]]:
    """Truck routes timed forward, and per package its (stop, truck, minute there).

    Of a model built from per-truck rows (``add_truck_rows``) each truck drives
    the path of its ``w`` arcs (``arc_paths``) and unloads at each stop the
    packages its ``r`` brings there. Of a column model the chosen ``x1``
    routes go to their class's trucks (``hand_out``). A package rides the
    first route that carries it, in that order: a visit the solver chose
    stays, unless every package it brought rides an earlier route. A route
    leaves the CDC at minute 0, and service at a stop ends no earlier than
    the latest ``lo[(package, stop)]`` of the packages unloaded there
    (``forward_times``).
    """
    if model.family("w"):
        carried: dict[tuple[str, str], list[str]] = {}
        for i, s, d in chosen(model, values, "r"):
            carried.setdefault((s, d), []).append(i)
        paths = arc_paths(chosen(model, values, "w"))
        tours = [(d.id, [(s, carried.get((s, d.id), [])) for s in path])
                 for d in instance.trucks for path in paths.get(d.id, [])]
    else:
        driven: dict[str, list] = {}
        for g, *pairs in chosen(model, values, "x1"):
            visits = itertools.groupby(zip(pairs[::2], pairs[1::2]), key=lambda pair: pair[1])
            driven.setdefault(g, []).append(
                [(s, [cid for cid, _ in group]) for s, group in visits])
        tours = [(truck.id, visits) for truck, visits
                 in hand_out(vehicle_classes(instance.trucks), driven, "trucks")]
    routes, placed = [], {}
    for truck, visits in tours:
        kept = []
        for sid, brought in visits:
            fresh = [cid for cid in brought if cid not in placed]
            if fresh or not brought:
                kept.append((sid, fresh))
        if not kept:
            continue
        times = forward_times(instance, instance.cdc, 0.0, [
            (instance.stop(sid), max((lo[(cid, sid)] for cid in fresh), default=-math.inf))
            for sid, fresh in kept])
        routes.append(TruckRoute(truck=truck, departure=0.0,
                                 stops=tuple(sid for sid, _ in kept), times=times))
        for (sid, fresh), t in zip(kept, times):
            for cid in fresh:
                placed[cid] = (sid, truck, t)
    return routes, placed


def freighter_orders(instance: Instance, model: MilpModel,
                     values: list[float]) -> list[tuple[str, tuple[str, ...]]]:
    """(freighter, customers in visit order) of every chosen route column: each class's
    columns handed to its freighters in order (``hand_out``)."""
    driven: dict[str, list[tuple]] = {}
    for g, *order in chosen(model, values, "q"):
        driven.setdefault(g, []).append(tuple(order))
    classes = [cls for stop in instance.stops
               for cls in vehicle_classes(instance.freighters_of_stop(stop.id))]
    return [(k.id, order) for k, order in hand_out(classes, driven, "vehicles")]


def decode_freighter_routes(instance: Instance, model: MilpModel, values: list[float],
                            choices: dict[str, TransitChoice]) -> list[FreighterRoute]:
    """The chosen routes (``freighter_orders``), each timed by ``loaded_route``."""
    return [loaded_route(instance, freighter, order, choices)
            for freighter, order in freighter_orders(instance, model, values)]


def loaded_route(instance: Instance, freighter: str, order: tuple,
                 choices: dict[str, TransitChoice]) -> FreighterRoute:
    """Freighter ``freighter``'s route from its home stop serving ``order``: it leaves once
    all its packages are loaded, each one service time of its drop-out stop after the
    drop ``choices`` fixes, and serves its customers in order, each no earlier than its
    window opens (``forward_times``)."""
    home_stop = instance.freighter(freighter).home_stop
    departure = max(choices[cid].drop_time + instance.stop(choices[cid].drop_out).service_time
                    for cid in order)
    customers = [instance.customer(cid) for cid in order]
    return FreighterRoute(
        freighter=freighter, home_stop=home_stop, departure=departure, customers=order,
        times=forward_times(instance, instance.stop(home_stop).location, departure,
                            [(c, c.window_lo) for c in customers]))
