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
  z[i,g]     a freighter of class g delivers package i; a class is a set of
             interchangeable freighters of one stop (``vehicle_classes``)
  x[i,j,g]   a freighter of class g traverses arc (i,j); idle freighters
             stay home, at most the class size of routes leave the stop
  l[i,g]     load delivered by the route through i, up to and including i
  t[i,g]     minute package i is delivered
  td[i,g]    minute the route through i leaves its home stop
The z/x/l/t families are those of ``add_class_routing``, which also builds
the ``vrptw`` baseline with trucks in place of freighters.

Conditional constraints bracketed by data (line order, candidate sets) are
expanded at build time: variables exist only for index tuples the data
allows, and load propagation is generated per consecutive stop pair.

Each fragment has one copy, used by every model that needs it:
  add_transit_flow       y1/y2 domains, pick/drop once, same trip, forward
                         rides and trip loads, for the monolithic model and
                         all three transit stages; d1-t2 and d3-t2 narrow one
                         end to their fixed stop b_in or b_out by predicate.
                         A ride runs forward: where a trip calls at pickup u
                         no earlier than at drop v (u == v included), one
                         row y1[i,u,p] + y2[i,v,p] <= 1 excludes the pair
  add_trip_loads         l2 along every trip, from the y1/y2 on the builder
  add_truck_routing      w/t1 arcs, degree balance and times per truck
  add_stop_assignments   r[i,s,d] over given drop-in stops, with truck capacity,
                         the g visits and one g[d,s] >= r[i,s,d] row per
                         assignment
  add_arrival_window     big-M rows that hold lo <= t1[s,d] <= hi for the truck
                         carrying the package; full, d1-t1 and t1-handoff
                         differ only in the stops and windows they pass
  truck_assignments      customer -> (drop-in stop, truck), the one reader of r
  add_class_routing      one vehicle class's two-index routing, for freighters
                         and the vrptw baseline: they differ only in the
                         depot, the customers and their earliest service
  add_freighter_routing  add_class_routing per freighter class, with departures
  arc_costs              distance-priced objective terms of an arc family
  class_routes           routes and times of one vehicle class, the one walker
Plans are priced by ``validate.recompute_costs``, as every pipeline does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .compat import Compatibility
from .instance import Instance, euclidean_distance
from .milp import MilpModel, ModelBuilder, ModelError, SolveResult, big_M
from .plan import CostBreakdown, CustomerItinerary, FreighterRoute, Plan, TruckRoute
from .validate import recompute_costs

CDC_NODE = "o"
CDC_SINK = "o~"

INTEGRALITY_TOL = 1e-6


class DecodeError(ValueError):
    pass


class ModelBuildError(ModelError):
    """A model cannot be built because its inputs admit no solution."""


@dataclass(frozen=True)
class FullOptions:
    symmetry_breaking: bool = True  # orders interchangeable trucks; freighters are class-indexed
    service_cost_mu: float = 0.0
    lambda1: float = 0.0  # per traversal of a truck arc into a drop-in stop
    lambda3: float = 0.0  # per freighter departure from its home stop to a customer

    def __post_init__(self) -> None:
        if self.service_cost_mu < 0:
            raise ModelError("service_cost_mu must be nonnegative")
        if self.service_cost_mu > 0 and self.lambda1 == 0.0 and self.lambda3 == 0.0:
            raise ModelError(
                "service-cost objective needs lambda1/lambda3 derived from a reference solve")


def transit_pairs(instance: Instance, compat: Compatibility, customer_id: str,
                  trip_id: str, in_ok=None, out_ok=None) -> tuple[list[str], list[str]]:
    """Usable (pickup stops, drop stops) for one customer on one trip.

    Optional predicates narrow the raw line-order domains; the two sides are
    then cross-pruned so every pickup stop still precedes some usable drop
    stop and vice versa.
    """
    cust = instance.customer(customer_id)
    trip = instance.trip(trip_id)
    order = instance.line(trip.line).ordered_stops
    pos_of = {sid: pos for pos, sid in enumerate(order)}
    usable_in = compat.s_in_of_customer[customer_id]

    ins = [sid for sid in order
           if sid in usable_in
           and (in_ok is None or in_ok(cust, instance.stop(sid), trip))]
    outs = [sid for sid in order
            if sid in cust.dropout_candidates
            and (out_ok is None or out_ok(cust, instance.stop(sid), trip))]
    while True:
        ins2 = [s for s in ins if any(pos_of[v] > pos_of[s] for v in outs)]
        outs2 = [v for v in outs if any(pos_of[s] < pos_of[v] for s in ins2)]
        if ins2 == ins and outs2 == outs:
            return ins, outs
        ins, outs = ins2, outs2


def arc_costs(mb: ModelBuilder, instance: Instance, family: str,
              per_distance: float) -> list:
    """Objective terms pricing every arc of ``family`` at its length times ``per_distance``.

    The first two indices of each arc variable are its tail and head: the
    CDC (``o`` or ``o~``), a stop or a customer; an id naming both a stop
    and a customer is the stop.
    """
    where = {c.id: c.location for c in instance.customers}
    where.update((s.id, s.location) for s in instance.stops)
    where.update({CDC_NODE: instance.cdc, CDC_SINK: instance.cdc})
    return [(var, per_distance * euclidean_distance(where[u], where[v]))
            for (u, v, *_), var in mb.family_items(family)]


def _homogeneous(capacities: list[float]) -> bool:
    return len(set(capacities)) <= 1


def add_truck_routing(mb: ModelBuilder, instance: Instance, M: float,
                      symmetry: bool) -> dict:
    """Shared tier-1 structure: arc variables, degree balance, times.

    Returns the drop-in stops and the arc tails (the CDC and the drop-in
    stops) that ``add_stop_assignments`` links its visits to.
    """
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

    if symmetry and _homogeneous([d.capacity for d in instance.trucks]):
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

    return {"dropins": dropins, "tails": tails}


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


def class_assignments(mb: ModelBuilder, instance: Instance, customer_id: str,
                      stop_id: str) -> list[tuple[str, object]]:
    """(class, z variable) for each class of the stop that may serve the customer."""
    pairs = [(g, mb.get("z", customer_id, g))
             for g, _ in vehicle_classes(instance.freighters_of_stop(stop_id))]
    return [(g, z) for g, z in pairs if z is not None]


def ride_minutes(instance: Instance, a, cust) -> float:
    """Minutes from leaving point ``a`` to the end of service at ``cust``."""
    return instance.travel_minutes(a, cust.location) + cust.service_time


def add_class_routing(mb: ModelBuilder, instance: Instance, g: str, depot: str, sink: str,
                      fleet, earliest: dict[str, float]) -> list[tuple[str, str]]:
    """Two-index routing of one vehicle class; returns its arcs as (tail, head).

    The class (see ``vehicle_classes``) serves the customers keyed in
    ``earliest``, each no sooner than ``earliest[i]``: routes leave
    ``depot`` and end at ``sink``, at most the class size of them, and
    enough to carry what the class delivers. ``z[i,g]`` marks the customers
    served; ``l[i,g]`` is the load delivered up to and including ``i`` and
    ``t[i,g]`` the minute service at ``i`` ends. Load labels are
    Miller-Tucker-Zemlin rows lifted as Desrochers and Laporte (1991)
    describe, with a two-cycle row per pair of opposite arcs; with the time
    labels they cut subtours. Arcs the windows rule out are not built, and
    each time row has its own big-M. A class with no customer adds nothing.
    """
    if not earliest:
        return []
    capacity = fleet[0].capacity
    members = [instance.customer(cid) for cid in earliest]
    for c in members:
        mb.binary("z", c.id, g)
        mb.continuous("l", c.id, g, lb=c.demand, ub=capacity)
        mb.continuous("t", c.id, g, lb=earliest[c.id], ub=max(earliest[c.id], c.window_hi))

    arcs = []
    for j in members:
        arcs += [(depot, j.id), (j.id, sink)]
        arcs += [(i.id, j.id) for i in members if i is not j
                 and earliest[i.id] + ride_minutes(instance, i.location, j) <= j.window_hi + 1e-9]
    for u, v in arcs:
        mb.binary("x", u, v, g)

    leaving = [(mb.get("x", depot, c.id, g), 1.0) for c in members]
    mb.add(leaving, "<=", float(len(fleet)), f"fleet[{g}]")
    mb.add([(x, capacity) for x, _ in leaving]
           + [(mb.get("z", c.id, g), -c.demand) for c in members],
           ">=", 0.0, f"volume[{g}]")
    for c in members:
        z = mb.get("z", c.id, g)
        mb.add([(mb.get("x", u, v, g), 1.0) for u, v in arcs if v == c.id] + [(z, -1.0)],
               "=", 0.0, f"in[{c.id},{g}]")
        mb.add([(mb.get("x", u, v, g), 1.0) for u, v in arcs if u == c.id] + [(z, -1.0)],
               "=", 0.0, f"out[{c.id},{g}]")
    by_id = {c.id: c for c in members}
    for u, v in arcs:
        if u == depot or v == sink:
            continue
        i, j = by_id[u], by_id[v]
        x, back = mb.get("x", u, v, g), mb.get("x", v, u, g)
        lifted = [] if back is None else [(back, i.demand + j.demand - capacity)]
        mb.add([(mb.get("l", v, g), 1.0), (mb.get("l", u, g), -1.0), (x, -capacity)]
               + lifted, ">=", j.demand - capacity, f"load[{u},{v},{g}]")
        if back is not None and u < v:
            mb.add([(x, 1.0), (back, 1.0)], "<=", 1.0, f"two_cycle[{u},{v},{g}]")
        hop = ride_minutes(instance, i.location, j)
        big = i.window_hi + hop - earliest[v]
        if big > 0:
            mb.add([(mb.get("t", v, g), 1.0), (mb.get("t", u, g), -1.0), (x, -big)],
                   ">=", hop - big, f"time[{u},{v},{g}]")
    return arcs


def add_freighter_routing(mb: ModelBuilder, instance: Instance,
                          customers_of_stop: dict[str, list[str]],
                          departure_bounds) -> None:
    """Shared tier-3 structure: ``add_class_routing`` per freighter class of each stop.

    ``customers_of_stop`` lists, per drop-out stop, the customers its
    freighters may serve; a customer may be listed at several stops, in
    which case the once-served constraint spans all of them. Stops absent
    from the map contribute no variables. ``departure_bounds(customer,
    stop)`` gives (earliest, latest) bounds on the departure of the route
    serving that customer from that stop.

    Routes leave the stop and return to it, and serve a customer no sooner
    than the earliest departure plus the ride. The departure ``td[i,g]`` is
    carried along the arcs so callers can bound it per package (loading and
    dwell rows). A class leaves out a customer whose demand exceeds its
    capacity or whom no departure still reaches within the window.
    """
    served_by: dict[str, list] = {}
    for stop_id in sorted(customers_of_stop):
        stop = instance.stop(stop_id)
        for g, fleet in vehicle_classes(instance.freighters_of_stop(stop_id)):
            earliest, depart = {}, {}
            for cid in customers_of_stop[stop_id]:
                cust = instance.customer(cid)
                ride = ride_minutes(instance, stop.location, cust)
                lo, hi = departure_bounds(cid, stop_id)
                # the route reaches cid no sooner than the direct ride
                hi = min(hi, cust.window_hi - ride)
                if cust.demand <= fleet[0].capacity and lo <= hi + 1e-9:
                    earliest[cid] = max(cust.window_lo, lo + ride)
                    depart[cid] = (lo, max(lo, hi))
            arcs = add_class_routing(mb, instance, g, stop_id, stop_id, fleet, earliest)
            for cid, (lo, hi) in depart.items():
                served_by.setdefault(cid, []).append(mb.get("z", cid, g))
                mb.continuous("td", cid, g, lb=lo, ub=hi)
            for i, j in arcs:
                if j == stop_id:
                    continue
                x = mb.get("x", i, j, g)
                if i == stop_id:
                    # first visit: no sooner than the route's departure plus the ride;
                    # a big-M from earliest[j] instead of window_lo took more nodes
                    head = instance.customer(j)
                    t_min = ride_minutes(instance, stop.location, head)
                    big = depart[j][1] + t_min - head.window_lo
                    if big > 0:
                        mb.add([(mb.get("t", j, g), 1.0), (mb.get("td", j, g), -1.0),
                                (x, -big)], ">=", t_min - big, f"freighter_first[{j},{g}]")
                    continue
                # one departure per route: the label is equal along every arc
                spread = max(depart[j][1] - depart[i][0], depart[i][1] - depart[j][0])
                if spread > 0:
                    mb.add([(mb.get("td", j, g), 1.0), (mb.get("td", i, g), -1.0),
                            (x, spread)], "<=", spread, f"departure_fwd[{i},{j},{g}]")
                    mb.add([(mb.get("td", i, g), 1.0), (mb.get("td", j, g), -1.0),
                            (x, spread)], "<=", spread, f"departure_bwd[{i},{j},{g}]")

    # every listed customer is served exactly once, across all stops
    for cid, zs in sorted(served_by.items()):
        mb.add([(z, 1.0) for z in zs], "=", 1.0, f"customer_once[{cid}]")


def add_transit_flow(mb: ModelBuilder, instance: Instance, compat: Compatibility,
                     unserved, in_ok=None, out_ok=None,
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
            ins, outs = transit_pairs(instance, compat, cust.id, trip.id,
                                      in_ok=in_ok, out_ok=out_ok)
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


def add_stop_assignments(mb: ModelBuilder, instance: Instance,
                         stops_of: dict[str, list[str]], ctx: dict) -> None:
    """r[i,s,d]: each package goes to one of ``stops_of[i]`` on one truck.

    Trucks carry no more than their capacity. ``g[d,v]`` marks a visit of
    truck ``d`` to drop-in stop ``v``: it equals the truck's arcs into ``v``
    (``ctx`` from ``add_truck_routing``) and is 1 wherever the truck carries
    a package to ``v``.
    """
    for cust in instance.customers:
        for s in stops_of[cust.id]:
            for d in instance.trucks:
                mb.binary("r", cust.id, s, d.id)
    for d in instance.trucks:
        for v in ctx["dropins"]:
            mb.binary("g", d.id, v)
    for cust in instance.customers:
        mb.add([(mb.get("r", cust.id, s, d.id), 1.0)
                for s in stops_of[cust.id] for d in instance.trucks],
               "=", 1.0, f"assign[{cust.id}]")
    for d in instance.trucks:
        mb.add([(mb.get("r", c.id, s, d.id), c.demand)
                for c in instance.customers for s in stops_of[c.id]],
               "<=", d.capacity, f"truck_cap[{d.id}]")
        for v in ctx["dropins"]:
            mb.add([(mb.get("g", d.id, v), 1.0)]
                   + [(mb.get("w", u, v, d.id), -1.0) for u in ctx["tails"] if u != v],
                   "=", 0.0, f"visit_link[{v},{d.id}]")
    for cust in instance.customers:
        for s in stops_of[cust.id]:
            for d in instance.trucks:
                mb.add([(mb.get("g", d.id, s), 1.0), (mb.get("r", cust.id, s, d.id), -1.0)],
                       ">=", 0.0, f"visit_if_carrying[{cust.id},{s},{d.id}]")


def add_arrival_window(mb: ModelBuilder, instance: Instance, cust: str, stop: str,
                       M: float, lo=None, hi=None) -> None:
    """The truck carrying ``cust`` to ``stop`` arrives within ``[lo, hi]``.

    ``lo`` and ``hi`` are ``(terms, constant)`` expressions; either may be
    left open. Per truck, big-M rows on ``r[cust,stop,d]`` hold them only
    for the truck that carries the package.
    """
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


def build_full(instance: Instance, compat: Compatibility,
               options: FullOptions | None = None) -> MilpModel:
    """Complete three-tier model; minimizes truck plus freighter routing cost."""
    options = options or FullOptions()
    params = instance.cost_params
    max_hop = max((instance.travel_minutes(instance.cdc, s.location)
                   for s in instance.stops), default=0.0) * 2
    M = big_M(params, extra_time=max_hop)
    mb = ModelBuilder("full")

    domains = add_transit_flow(mb, instance, compat,
                               lambda cust: f"no carrying trip: customer {cust.id}")
    ctx = add_truck_routing(mb, instance, M, options.symmetry_breaking)
    stops_of = {c.id: sorted(compat.s_in_of_customer[c.id]) for c in instance.customers}
    add_stop_assignments(mb, instance, stops_of, ctx)

    pickups = {(c.id, s): [(mb.get("y1", c.id, s, p), instance.trip(p).stop_times[s])
                           for p, (ins, _) in domains[c.id].items() if s in ins]
               for c in instance.customers for s in stops_of[c.id]}
    # drop-off by the truck pairs with pickup by a transit vehicle at that stop
    for (cid, s), terms in pickups.items():
        mb.add([(mb.get("r", cid, s, d.id), 1.0) for d in instance.trucks]
               + [(v, -1.0) for v, _ in terms], "=", 0.0, f"handover[{cid},{s}]")
    # truck reaches the stop before the scheduled pickup, and within the dwell cap
    for (cid, s), terms in pickups.items():
        add_arrival_window(mb, instance, cid, s, M,
                           lo=(terms, -instance.stop(s).max_dwell), hi=(terms, 0.0))

    drops_at = {}  # (customer, drop-out stop) -> [(y2, scheduled drop time)]
    for cust in instance.customers:
        for p, (_, outs) in domains[cust.id].items():
            for s in outs:
                drops_at.setdefault((cust.id, s), []).append(
                    (mb.get("y2", cust.id, s, p), instance.trip(p).stop_times[s]))
    customers_of_stop = {
        s.id: [c for c in sorted(compat.customers_of_dropout.get(s.id, ()))
               if (c, s.id) in drops_at]
        for s in instance.drop_out_stops()
    }

    def departure_bounds(cid: str, sid: str) -> tuple[float, float]:
        times = [t for _, t in drops_at[(cid, sid)]]
        stop = instance.stop(sid)
        return min(times) + stop.service_time, max(times) + stop.max_dwell

    add_freighter_routing(mb, instance, customers_of_stop, departure_bounds)

    for cust in instance.customers:
        for s in sorted(cust.dropout_candidates):
            if (cust.id, s) not in drops_at:
                continue
            drop_terms, stop = drops_at[(cust.id, s)], instance.stop(s)
            assigned = class_assignments(mb, instance, cust.id, s)
            for g, z_var in assigned:
                td = mb.get("td", cust.id, g)
                # leave only after the package is loaded, and within the dwell cap
                mb.add([(td, 1.0), (z_var, -M)] + [(v, -t) for v, t in drop_terms],
                       ">=", stop.service_time - M, f"load_first[{cust.id},{g}]")
                mb.add([(td, 1.0), (z_var, M)] + [(v, -t) for v, t in drop_terms],
                       "<=", stop.max_dwell + M, f"dwell_out[{cust.id},{g}]")
            # handover to freighters: served from a stop exactly when dropped there
            mb.add([(z, 1.0) for _, z in assigned] + [(v, -1.0) for v, _ in drop_terms],
                   "=", 0.0, f"freighter_handover[{cust.id},{s}]")

    objective = (arc_costs(mb, instance, "w", params.truck_cost_per_distance)
                 + arc_costs(mb, instance, "x",
                             params.freighter_cost_scale * params.truck_cost_per_distance))
    if options.service_cost_mu > 0:
        # per-visit service costs: a truck arc into a drop-in stop, a freighter leaving its stop
        stop_ids = {s.id for s in instance.stops}
        objective += [(var, options.lambda1)
                      for (_u, v, _d), var in mb.family_items("w") if v != CDC_SINK]
        objective += [(var, options.lambda3) for (i, j, _g), var in mb.family_items("x")
                      if i in stop_ids and j not in stop_ids]
    mb.set_objective(objective)
    return mb.build(
        mu=options.service_cost_mu,
        lambda1=options.lambda1,
        lambda3=options.lambda3,
        symmetry_breaking=options.symmetry_breaking,
    )


def _binary_value(values: dict[str, float], var) -> bool:
    v = values[var.name]
    if abs(v - round(v)) > INTEGRALITY_TOL:
        raise DecodeError(f"{var.name} = {v} is fractional beyond tolerance")
    return round(v) >= 1


def decode_full(instance: Instance, model: MilpModel, result: SolveResult) -> Plan:
    """Turn a FULL solution into a plan; raises on fractional binaries."""
    if not result.has_solution():
        raise DecodeError(f"no solution to decode (status {result.status})")
    values = result.values

    truck_routes = decode_truck_routes(instance, model, values)
    stop_time: dict[tuple[str, str], float] = {}
    for route in truck_routes:
        for s, t in zip(route.stops, route.times):
            stop_time[(route.truck, s)] = t

    freighter_routes = decode_freighter_routes(instance, model, values)
    delivery: dict[str, tuple[str, float]] = {}
    for route in freighter_routes:
        for c, t in zip(route.customers, route.times):
            delivery[c] = (route.freighter, t)

    carried = truck_assignments(model, values)
    dropped = {i: (s, p) for (i, s, p), var in model.family("y2").items()
               if _binary_value(values, var)}
    itineraries = []
    for cust in instance.customers:
        if cust.id not in carried or cust.id not in dropped or cust.id not in delivery:
            raise DecodeError(f"customer {cust.id}: incomplete assignment in solution")
        stop_in, truck_id = carried[cust.id]
        stop_out, trip_id = dropped[cust.id]
        freighter_id, t_delivery = delivery[cust.id]
        itineraries.append(CustomerItinerary(
            customer=cust.id,
            truck=truck_id,
            drop_in_stop=stop_in,
            drop_in_time=stop_time.get((truck_id, stop_in), 0.0),
            trip=trip_id,
            drop_out_stop=stop_out,
            drop_out_time=instance.trip(trip_id).stop_times[stop_out],
            freighter=freighter_id,
            delivery_time=t_delivery,
        ))

    service = bool(model.metadata.get("mu"))
    draft = Plan(
        itineraries=tuple(itineraries),
        truck_routes=tuple(truck_routes),
        freighter_routes=tuple(freighter_routes),
        costs=CostBreakdown(0.0, 0.0),
        service_lambda1=float(model.metadata.get("lambda1", 0.0)) if service else 0.0,
        service_lambda3=float(model.metadata.get("lambda3", 0.0)) if service else 0.0,
    )
    return replace(draft, costs=recompute_costs(instance, draft))


def truck_assignments(model: MilpModel, values: dict[str, float]) -> dict[str, tuple[str, str]]:
    """Customer -> (drop-in stop, truck) from the ``r`` family of any truck model."""
    return {i: (s, d) for (i, s, d), var in model.family("r").items()
            if _binary_value(values, var)}


def decode_truck_routes(instance: Instance, model: MilpModel,
                        values: dict[str, float]) -> list[TruckRoute]:
    routes = []
    for d in instance.trucks:
        succ: dict[str, str] = {}
        for (u, v, dd), var in model.family("w").items():
            if dd == d.id and _binary_value(values, var):
                succ[u] = v
        stops: list[str] = []
        node = CDC_NODE
        for _ in range(len(succ) + 1):
            node = succ.get(node)
            if node is None or node == CDC_SINK:
                break
            stops.append(node)
        if not stops:
            continue  # idle truck
        times = [values[model.family("t1")[(s, d.id)].name] for s in stops]
        departure = values[model.family("t1")[(CDC_NODE, d.id)].name]
        routes.append(TruckRoute(truck=d.id, departure=departure,
                                 stops=tuple(stops), times=tuple(times)))
    return routes


def class_routes(model: MilpModel, values: dict[str, float], depot: str, sink: str, g: str,
                 fleet) -> list[tuple[object, tuple[str, ...], tuple[float, ...]]]:
    """(vehicle, customers, times) per route of class ``g``, handed to ``fleet`` in order.

    A route of ``add_class_routing`` leaves ``depot`` on an ``x`` arc and
    follows the chosen arcs until ``sink``; the (depot, sink) arc of an idle
    vehicle is skipped. Times are the ``t`` labels of the customers.
    """
    starts: list[str] = []
    succ: dict[str, str] = {}
    for (u, v, gg), var in model.family("x").items():
        if gg == g and (u, v) != (depot, sink) and _binary_value(values, var):
            if u == depot:
                starts.append(v)
            else:
                succ[u] = v
    if len(starts) > len(fleet):
        raise DecodeError(f"class {g}: {len(starts)} routes for {len(fleet)} vehicles")
    t = model.family("t")
    routes = []
    for vehicle, node in zip(fleet, starts):
        nodes: list[str] = []
        while node != sink:
            if node in nodes:
                raise DecodeError(f"class {g}: route through {node} does not close")
            nodes.append(node)
            node = succ[node]
        routes.append((vehicle, tuple(nodes), tuple(values[t[(c, g)].name] for c in nodes)))
    return routes


def decode_freighter_routes(instance: Instance, model: MilpModel,
                            values: dict[str, float]) -> list[FreighterRoute]:
    """Routes per freighter class, handed to the class's freighters in order."""
    td = model.family("td")
    routes = []
    for stop in instance.stops:
        for g, fleet in vehicle_classes(instance.freighters_of_stop(stop.id)):
            for k, customers, times in class_routes(model, values, stop.id, stop.id, g, fleet):
                routes.append(FreighterRoute(
                    freighter=k.id, home_stop=stop.id,
                    departure=values[td[(customers[0], g)].name],
                    customers=customers, times=times))
    return routes
