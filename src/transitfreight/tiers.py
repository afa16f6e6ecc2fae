"""Tier models for the three decomposition pipelines.

Pipelines differ in which tier commits first:
  * transit-first: assign stops/trips in one transit model, then route trucks
    to the fixed drop-in times and freighters from the fixed drop-out times
    (the drop-out side separates into one routing model per stop);
  * truck-first: route trucks under approximate delivery-deadline cuts and a
    half-day split, then pick trips and drop-out stops, then freighters;
  * freighter-first: pick freighter routes, which fix the drop-out stops,
    seeded by each stop's first trip arrival, then pick trips that drop
    every package of a route within the dwell cap before the route's
    latest departure, then route trucks.

The transit model supports three surrogate objectives: used-stop count,
distance proxies, and an estimated freighter count per period. The
used-stop count switches a stop's flag on by a big-M row whose M is the
number of pickup or drop variables at that stop.

Every stage is built from the fragments ``model_full`` shares with the
monolithic model: ``add_transit_flow`` for transit, ``add_truck_rows`` and
``add_arrival_window`` for trucks chosen per vehicle, and
``add_freighter_routing`` for freighters, which chooses among
enumerated route columns; ``arc_costs`` and ``route_costs`` price them.
The two freighter stages pass departure bounds that are data: t3-stopwise
from the fixed drops and the dwell cap, d3-t3 from each stop's first trip
arrival. Each route leaves once its packages are loaded after their drops,
so only ``full`` gives a route a departure variable: t3-stopwise times its
routes as it decodes them (``decode_freighter_routes``), and d3-t3 hands on
its routes untimed, as (freighter, customers in visit order, latest
departure L), L being what the route DP lists for the route's column; the
pipeline times them once d3's transit stage has fixed the drops. The three
transit stages differ only in the stop predicates they pass: d2-t2 keeps
pickups a truck can feed and drops a freighter can still serve in time;
d1-t2 pins the pickup to the truck's stop within the dwell cap after its
arrival, and d3-t2 pins the drop to the home stop of the package's d3-t3
route within the dwell cap before that route's L.
``model_full.decode_transit`` reads all three.

There is one truck stage (``_build_truck_stage``); d1-t1 and t1-handoff
differ only in the windows they pass: per package, the drop-in stops it
may use and a window ``(lo, hi)`` at each. d1-t1 passes every stop whose
window under the deadline cut and the half-day split is not empty;
t1-handoff passes the drop-in stop of each package's transit choice, within
the dwell cap before its pickup. The stage chooses, under covering rows,
among the routes ``enumerate_truck_routes`` lists per truck class. Both
route tiers are listed by the one label-setting DP,
``model_full.enumerate_routes``: a freighter visit serves one customer, a
truck visit the packages at one stop whose windows there meet. The number
of routes grows combinatorially with the packages one truck can carry, so
past ``ROUTE_LABEL_LIMIT`` labels the stage is built from the per-truck rows
``full`` also uses instead, with ``full``'s M: the horizon plus twice the
longest CDC-to-stop ride (``model_full.truck_time_big_m``).
``decode_t1`` reads either form through ``full``'s truck decoder
(``model_full.decode_trucks``), which times every route forward from the
CDC, and hands on, per package, its stop, its truck and the truck's minute
there.

Each stage builder takes only the instance, what the decoder before it
returns and, for a transit stage, the objective: the transit choices
(``model_full.TransitChoice``) of ``decode_transit``, the truck placements
of ``decode_t1``, or d3-t3's route records (``decode_d3_t3``). What a stage
derives from the instance alone, such as d1-t1's half-day split or d3-t3's
first trip arrival at each stop, it derives itself. The one other input is
d1-t1's drop-in map (``compat.derive_compatibility``), from whose stops its
truck stage picks since no trip is chosen yet; the pipeline's instance check
derives that map anyway. Every transit stage takes its stops from its own
domains (``model_full.transit_pairs``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .instance import Instance, euclidean_distance
from .milp import MilpModel, ModelBuilder, ModelError, SolveResult
from .model_full import (
    DecodeError,
    ModelBuildError,
    TransitChoice,
    add_arrival_window,
    add_freighter_routing,
    add_transit_flow,
    add_truck_rows,
    arc_costs,
    decode_freighter_routes,
    decode_trucks,
    enumerate_routes,
    freighter_orders,
    route_costs,
    vehicle_classes,
)
from .plan import FreighterRoute, TruckRoute

OBJ1, OBJ2, OBJ3 = "obj1", "obj2", "obj3"
DEADLINE_SLACK_FACTOR = 1.3  # stretches the direct-access time estimate into a journey estimate


@dataclass(frozen=True)
class T2Objective:
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in (OBJ1, OBJ2, OBJ3):
            raise ModelError(f"unknown transit objective {self.tag!r}")


# ---- shared surrogate-objective machinery ------------------------------


def _attach_used_stop_flags(mb: ModelBuilder, pickup_side: bool, drop_side: bool) -> list:
    """Binary flags that switch on when any package touches a stop.

    The pickup (or drop) columns at a stop are binaries, so they sum to at most
    their number, which is the flag's coefficient.
    """
    terms = []
    for used, family, flags, row in ((pickup_side, "y1", "phi1", "used_in"),
                                     (drop_side, "y2", "phi2", "used_out")):
        if not used:
            continue
        by_stop: dict[str, list] = {}
        for (i, s, p), var in mb.family_items(family):
            by_stop.setdefault(s, []).append(var)
        for s in sorted(by_stop):
            flag = mb.binary(flags, s)
            mb.add([(v, 1.0) for v in by_stop[s]] + [(flag, -float(len(by_stop[s])))],
                   "<=", 0.0, f"{row}[{s}]")
            terms.append((flag, 1.0))
    return terms


def _attach_freighter_estimate(mb: ModelBuilder, instance: Instance) -> list:
    """Integer per-period freighter counts covering dropped volume."""
    params = instance.cost_params
    qf = sum(k.capacity for k in instance.freighters) / len(instance.freighters)
    length, count = params.period_length, params.period_count
    total_demand = sum(c.demand for c in instance.customers)
    h_ub = math.ceil(total_demand / qf) + 1

    dropped: dict[tuple[str, int], list] = {}
    for (i, s, p), var in mb.family_items("y2"):
        t = instance.trip(p).stop_times[s]
        period = min(int(t // length), count - 1)
        dropped.setdefault((s, period), []).append((i, var))
    terms = []
    for (s, period), entries in sorted(dropped.items()):
        h = mb.integer("h", s, period, lb=0.0, ub=float(h_ub))
        mb.add([(var, instance.customer(i).demand) for i, var in entries]
               + [(h, -qf)],
               "<=", 0.0, f"freighters_needed[{s},{period}]")
        terms.append((h, 1.0))
    return terms


def _distance_proxy_terms(mb: ModelBuilder, instance: Instance,
                          pickup_side: bool, drop_side: bool) -> list:
    """Distance proxies: CDC-to-stop per truck visit, stop-to-customer per package.

    The pickup side prices truck visits, not packages: one binary per
    (drop-in stop, pickup-time bucket of width ``max_dwell``) switches on
    when any package is picked up there in that bucket, and costs the
    CDC-to-stop distance. Packages that share a stop and a dwell window thus
    share one visit, while the same stop used at distant times costs one
    visit per window. The drop side prices each package's stop-to-customer
    distance.
    """
    terms = []
    if pickup_side:
        picked: dict[tuple[str, int], list] = {}
        for (i, s, p), var in mb.family_items("y1"):
            t = instance.trip(p).stop_times[s]
            dwell = instance.stop(s).max_dwell
            bucket = int(t // dwell) if dwell > 0 else t
            picked.setdefault((s, bucket), []).append((var, f"y1[{i},{s},{p}]"))
        for (s, bucket), entries in sorted(picked.items()):
            visit = mb.binary("v1", s, bucket)
            for var, name in entries:
                mb.add([(var, 1.0), (visit, -1.0)], "<=", 0.0, f"visit_in[{name}]")
            terms.append((visit, euclidean_distance(instance.cdc, instance.stop(s).location)))
    if drop_side:
        for (i, s, p), var in mb.family_items("y2"):
            terms.append((var, euclidean_distance(
                instance.customer(i).location, instance.stop(s).location)))
    return terms


def _set_transit_objective(mb: ModelBuilder, instance: Instance, objective: T2Objective,
                           pickup_side: bool, drop_side: bool) -> None:
    if objective.tag == OBJ1:
        mb.set_objective(_attach_used_stop_flags(mb, pickup_side, drop_side))
    elif objective.tag == OBJ2:
        mb.set_objective(_distance_proxy_terms(mb, instance, pickup_side, drop_side))
    else:
        mb.set_objective(_attach_freighter_estimate(mb, instance))


# ---- transit-first: the transit model ----------------------------------


def _truck_can_feed(instance: Instance):
    """Pickup predicate: a truck from the CDC reaches the stop before the trip calls."""
    def in_ok(cust, stop, trip) -> bool:
        lead = instance.travel_minutes(instance.cdc, stop.location) + stop.service_time
        return trip.stop_times[stop.id] >= lead - 1e-9
    return in_ok


def _freighter_can_meet(instance: Instance):
    """Drop predicate: a freighter leaving after the drop still meets the window's closing."""
    def out_ok(cust, stop, trip) -> bool:
        eta = (trip.stop_times[stop.id] + instance.travel_minutes(stop.location, cust.location)
               + stop.service_time + cust.service_time)
        return eta <= cust.window_hi + 1e-9
    return out_ok


def _at_fixed_stop(windows: dict[str, tuple[str, float, float]]):
    """Stop predicate: ``windows[i]`` is package ``i``'s fixed stop and ``(lo, hi)``; the
    trip calls there within them."""
    def ok(cust, stop, trip) -> bool:
        fixed, lo, hi = windows[cust.id]
        return stop.id == fixed and lo - 1e-9 <= trip.stop_times[stop.id] <= hi + 1e-9
    return ok


def build_d2_t2(instance: Instance, objective: T2Objective) -> MilpModel:
    """Assign stops/trips to every package before either road tier is solved.

    Pickups are restricted to trips a truck could feed in time; drops are
    restricted so a freighter can still meet the window's closing.
    """
    mb = ModelBuilder("d2-t2")
    add_transit_flow(mb, instance, lambda cust: f"T2 infeasible: customer {cust.id}",
                     in_ok=_truck_can_feed(instance), out_ok=_freighter_can_meet(instance))
    _set_transit_objective(mb, instance, objective, pickup_side=True, drop_side=True)
    return mb.build()


# ---- the truck stage ------------------------------------------------------


ROUTE_LABEL_LIMIT = 20_000  # stop visits and labels the truck route DP may make per class


def _stop_visits(stop: str, members: list[str], windows, demand, capacity: float,
                 limit: int) -> list[tuple] | None:
    """Every visit (``enumerate_routes``) to ``stop`` that serves a nonempty set of
    ``members`` whose load fits ``capacity`` and whose windows there
    (``windows[i][stop]``) meet, leaving the CDC from minute 0, in
    ``itertools.combinations`` order; None once there are more than ``limit``. Sets
    grow package by package, and one that fails either test is not grown further."""
    visits: list[tuple] = []

    def grow(start: int, group: tuple, load: float, lo: float, hi: float) -> bool:
        for k in range(start, len(members)):
            c = members[k]
            c_lo, c_hi = windows[c][stop]
            c_load, c_lo, c_hi = load + demand[c], max(lo, c_lo), min(hi, c_hi)
            if c_lo <= c_hi + 1e-9 and c_load <= capacity + 1e-9:
                visits.append((stop, group + (c,), c_load, c_lo, c_hi, (0.0, math.inf)))
                if len(visits) > limit or not grow(k + 1, group + (c,), c_load, c_lo, c_hi):
                    return False
        return True

    if not grow(0, (), 0.0, -math.inf, math.inf):
        return None
    position = {c: k for k, c in enumerate(members)}
    return sorted(visits, key=lambda v: (len(v[1]), [position[c] for c in v[1]]))


def enumerate_truck_routes(instance: Instance, windows: dict, capacity: float
                           ) -> list[tuple[tuple[tuple[str, str], ...], float]] | None:
    """The routes a truck of ``capacity`` may drive to bring each package to a stop in time.

    Package ``i`` may be brought to any stop ``windows[i]`` lists, within the
    window ``(lo, hi)`` given there. ``enumerate_routes`` lists the routes from
    the CDC whose visits each serve, at one stop, a set of packages whose
    windows there meet (``_stop_visits``); per customer set the shortest is
    kept.

    Removing a package never lengthens a route or delays a visit (travel is
    Euclidean and trucks may wait), so a set is dropped when one more
    package gives a route no longer: that route covers it for no more.

    Returns ((customer, stop) pairs in visit order; distance) per kept set,
    or None once the stop visits and grown labels pass ``ROUTE_LABEL_LIMIT``:
    the number of customer sets grows combinatorially with the packages one
    truck can carry.
    """
    demand = {c.id: c.demand for c in instance.customers}
    at_stop: dict[str, list[str]] = {}
    for c in instance.customers:
        for sid in windows[c.id]:
            at_stop.setdefault(sid, []).append(c.id)
    visits: list[tuple] = []
    for sid, members in at_stop.items():
        found = _stop_visits(sid, members, windows, demand, capacity,
                             ROUTE_LABEL_LIMIT - len(visits))
        if found is None:
            return None
        visits += found
    places = {sid: (instance.stop(sid).location, instance.stop(sid).service_time)
              for sid in at_stop}
    found = enumerate_routes(instance, instance.cdc, places, visits, capacity,
                             ROUTE_LABEL_LIMIT - len(visits))
    if found is None:
        return None
    length = {served: front[0][0] for served, front in found.items()}
    routes = [(tuple(zip(front[0][2], front[0][3])), length[served])
              for served, front in found.items()
              if not any(length.get(served | {c}, math.inf) <= length[served] + 1e-9
                         for c in demand if c not in served)]
    return sorted(routes, key=lambda route: (len(route[0]), route[0]))


def _build_truck_stage(instance: Instance, windows: dict, tag: str) -> MilpModel:
    """Route trucks so each package ``i`` reaches one of the stops ``windows[i]`` lists
    within the window ``(lo, hi)`` given there (``lo`` may be ``-inf``).

    A covering model over ``enumerate_truck_routes``: per truck class
    (``vehicle_classes``) one binary ``x1[g,i1,s1,...,ik,sk]`` per route,
    indexed by the class and its packages in visit order, each with its stop,
    priced at its length; at most the class size of routes are driven
    (``fleet[g]``), and every customer is on at least one (``cover[i]``).
    Covering loses nothing: a package served twice leaves one route early,
    which never costs more (``decode_t1``).

    When a class has more routes than the DP lists within
    ``ROUTE_LABEL_LIMIT``, the stage is built from per-truck rows instead,
    whose size grows polynomially: the arcs and times of trucks that carry
    each package to one of its stops (``add_truck_rows``) and a big-M window
    per pair (``add_arrival_window``), with the M ``full`` uses
    (``model_full.truck_time_big_m``). Either model keeps ``windows`` in its
    metadata.
    """
    columns = {}
    for g, fleet in vehicle_classes(instance.trucks):
        columns[g] = enumerate_truck_routes(instance, windows, fleet[0].capacity)
        if columns[g] is None:
            return _truck_rows(instance, windows, tag)

    per_distance = instance.cost_params.truck_cost_per_distance
    mb = ModelBuilder(tag)
    objective = []
    covering: dict[str, list] = {c.id: [] for c in instance.customers}
    for g, fleet in vehicle_classes(instance.trucks):
        driven = []
        for visits, dist in columns[g]:
            x = mb.binary("x1", g, *itertools.chain.from_iterable(visits))
            objective.append((x, per_distance * dist))
            driven.append((x, 1.0))
            for cid, _ in visits:
                covering[cid].append((x, 1.0))
        if driven:
            mb.add(driven, "<=", float(len(fleet)), f"fleet[{g}]")
    for cid, covers in covering.items():
        if not covers:
            where = " or ".join(f"stop {sid} within [{lo:g}, {hi:g}]"
                                for sid, (lo, hi) in windows[cid].items())
            raise ModelBuildError(f"customer {cid}: no truck can bring it to {where}")
        mb.add(covers, ">=", 1.0, f"cover[{cid}]")
    mb.set_objective(objective)
    return mb.build(windows=windows)


def _truck_rows(instance: Instance, windows: dict, tag: str) -> MilpModel:
    """The truck stage from per-truck rows (``_build_truck_stage``)."""
    mb = ModelBuilder(tag)
    add_truck_rows(mb, instance, {cid: list(at) for cid, at in windows.items()}, symmetry=True)
    for cid, at in windows.items():
        for sid, (lo, hi) in at.items():
            add_arrival_window(mb, instance, cid, sid,
                               lo=None if lo == -math.inf else ([], lo), hi=([], hi))
    mb.set_objective(arc_costs(mb, instance, "w", instance.cost_params.truck_cost_per_distance))
    return mb.build(windows=windows)


def build_t1_from_handoff(instance: Instance, choices: dict[str, TransitChoice]) -> MilpModel:
    """Route trucks so every package reaches the drop-in stop of its transit choice by
    its pickup, and not more than the dwell cap earlier (``_build_truck_stage``)."""
    windows: dict[str, dict[str, tuple[float, float]]] = {}
    for cust in instance.customers:
        ch = choices[cust.id]
        stop, t_in = instance.stop(ch.drop_in), ch.pickup_time
        earliest = instance.travel_minutes(instance.cdc, stop.location) + stop.service_time
        if t_in < earliest - 1e-9:
            raise ModelBuildError(
                f"customer {cust.id}: pickup at {t_in:g} precedes the "
                f"earliest truck arrival {earliest:g} at stop {stop.id}")
        windows[cust.id] = {stop.id: (t_in - stop.max_dwell, t_in)}
    return _build_truck_stage(instance, windows, "t1-handoff")


def decode_t1(instance: Instance, model: MilpModel, result: SolveResult
              ) -> tuple[list[TruckRoute], dict[str, tuple[str, str, float]]]:
    """Returns (routes, placed) of either truck stage: ``placed`` is, per customer,
    (stop, truck, minute there).

    ``model_full.decode_trucks`` reads either form and times every route
    forward from the windows' ``lo``.
    """
    lo = {(cid, sid): window[0] for cid, at in model.metadata["windows"].items()
          for sid, window in at.items()}
    routes, placed = decode_trucks(instance, model, result.values, lo)
    for cust in instance.customers:
        if cust.id not in placed:
            raise DecodeError(f"customer {cust.id}: no chosen truck route covers it")
    return routes, placed


# ---- per-stop freighter model fed by transit choices ----------------------


def build_t3_stopwise(instance: Instance, stop_id: str,
                      choices: dict[str, TransitChoice]) -> MilpModel:
    """Route one stop's freighters for the packages the transit choices drop there, at
    the drop times they fix."""
    stop = instance.stop(stop_id)
    customers = sorted(cid for cid, ch in choices.items() if ch.drop_out == stop_id)
    for cid in customers:
        cust = instance.customer(cid)
        t_out = choices[cid].drop_time
        eta = (t_out + stop.service_time
               + instance.travel_minutes(stop.location, cust.location)
               + cust.service_time)
        if eta > cust.window_hi + 1e-9:
            raise ModelBuildError(
                f"stop {stop_id}: customer {cid} cannot be reached before its window "
                f"closes (earliest arrival {eta:g} > {cust.window_hi:g})")

    mb = ModelBuilder("t3-stopwise")

    def departure_bounds(cid: str, _sid: str) -> tuple[float, float]:
        # leave only after the package is on hand, within the dwell cap
        t_out = choices[cid].drop_time
        return t_out + stop.service_time, t_out + stop.max_dwell

    # only this stop's freighters take part
    serving = add_freighter_routing(mb, instance, {stop_id: customers}, departure_bounds)
    for cid in customers:
        columns = serving.get((cid, stop_id))
        if not columns:
            raise ModelBuildError(
                f"stop {stop_id}: no freighter can carry customer {cid} within the dwell cap")
        mb.add([(q, 1.0) for q in columns], "=", 1.0, f"customer_once[{cid}]")

    mb.set_objective(route_costs(mb, instance))
    return mb.build(choices=choices)


def decode_t3_stopwise(instance: Instance, model: MilpModel,
                       result: SolveResult) -> list[FreighterRoute]:
    return decode_freighter_routes(instance, model, result.values, model.metadata["choices"])


# ---- truck-first pipeline ----------------------------------------------


def build_d1_t1(instance: Instance, drop_ins: dict[str, frozenset[str]]) -> MilpModel:
    """Truck routing committed first, under deadline cuts and a half-day split.

    Each package may go to any drop-in stop of its entry in the drop-in map
    ``drop_ins`` (``compat.derive_compatibility``) whose window is not empty: the
    truck is there by the deadline cut, the window's midpoint less the stretched
    ride from the stop to the customer, and within the package's half of the day.
    A pair takes the first half, whose window is open to the start, when working
    back from the window's closing through the dwell cap and that ride leaves no
    later start than midday; it takes the second half otherwise. Stops no truck
    reaches within their window are left out (``_build_truck_stage``).
    """
    params = instance.cost_params
    windows: dict[str, dict[str, tuple[float, float]]] = {}
    for cust in instance.customers:
        t_avg = (cust.window_lo + cust.window_hi) / 2.0
        windows[cust.id] = {}
        for sid in sorted(drop_ins[cust.id]):
            stop = instance.stop(sid)
            journey = DEADLINE_SLACK_FACTOR * instance.travel_minutes(stop.location, cust.location)
            cut = t_avg - journey
            if cust.window_hi - stop.max_dwell - journey <= params.t_mid_day:
                lo, hi = -math.inf, min(cut, params.t_mid_day)
            else:
                lo, hi = params.t_mid_day, cut
            earliest = instance.travel_minutes(instance.cdc, stop.location) + stop.service_time
            if hi < max(lo, earliest) - 1e-9:
                continue  # empty window: no truck brings the package here
            windows[cust.id][sid] = (lo, hi)
        if not windows[cust.id]:
            raise ModelBuildError(
                f"customer {cust.id}: every drop-in stop misses the deadline cut")
    return _build_truck_stage(instance, windows, "d1-t1")


def build_d1_t2(instance: Instance, placed: dict[str, tuple[str, str, float]],
                objective: T2Objective) -> MilpModel:
    """Pick a trip through each package's fixed drop-in stop, and a drop-out.

    ``placed`` is ``decode_t1``'s (stop, truck, minute) per package. The pickup
    is at that stop, on a trip that calls there after the truck's minute and
    within the dwell cap of it.
    """
    mb = ModelBuilder("d1-t2")
    windows = {cid: (stop, t_truck, t_truck + instance.stop(stop).max_dwell)
               for cid, (stop, _, t_truck) in placed.items()}

    def unserved(cust) -> str:
        stop, lo, hi = windows[cust.id]
        return (f"stranded package: customer {cust.id} has no trip through stop "
                f"{stop} within [{lo:g}, {hi:g}] that can still meet its window")

    add_transit_flow(mb, instance, unserved, in_ok=_at_fixed_stop(windows),
                     out_ok=_freighter_can_meet(instance))
    _set_transit_objective(mb, instance, objective, pickup_side=False, drop_side=True)
    return mb.build()


# ---- freighter-first pipeline -------------------------------------------


def build_d3_t3(instance: Instance) -> MilpModel:
    """Choose drop-out stops and freighter routes before any transit decision.

    A route leaves its stop after the stop's first scheduled trip arrival plus
    handling, and by the horizon; stops no trip reaches take no part. Each
    customer rides one column of its candidate stops, which fixes its drop-out
    stop. The metadata keeps each column's latest departure, min(L, horizon)
    (``add_freighter_routing``), by (home stop, customers in visit order).
    """
    mb = ModelBuilder("d3-t3")

    first_arrival: dict[str, float] = {}
    for trip in instance.trips:
        for sid, t in trip.stop_times.items():
            first_arrival[sid] = min(first_arrival.get(sid, math.inf), t)
    customers_of_stop = {
        s.id: sorted(c.id for c in instance.customers if s.id in c.dropout_candidates)
        for s in instance.drop_out_stops() if s.id in first_arrival
    }

    def departure_bounds(_cid: str, sid: str) -> tuple[float, float]:
        return first_arrival[sid] + instance.stop(sid).service_time, instance.cost_params.horizon

    latest: dict[tuple[str, tuple[str, ...]], float] = {}

    def keep_latest(_q, idx: tuple, _lo: float, hi: float) -> None:
        latest[(instance.freighter(idx[0]).home_stop, idx[1:])] = hi

    serving = add_freighter_routing(mb, instance, customers_of_stop, departure_bounds,
                                    keep_latest)
    for cust in instance.customers:
        columns = [q for sid in sorted(cust.dropout_candidates)
                   for q in serving.get((cust.id, sid), [])]
        if not columns:
            raise ModelBuildError(f"customer {cust.id}: no freighter route serves it")
        mb.add([(q, 1.0) for q in columns], "=", 1.0, f"customer_once[{cust.id}]")

    mb.set_objective(route_costs(mb, instance))
    return mb.build(latest=latest)


def decode_d3_t3(instance: Instance, model: MilpModel, result: SolveResult
                 ) -> list[tuple[str, tuple[str, ...], float]]:
    """One record per chosen route column: (freighter, customers in visit order, latest
    departure). The order is ``model_full.freighter_orders``'s; the latest departure is
    the column's, which every customer of the route shares. The routes are timed once
    d3-t2 has fixed the drops (``pipeline``)."""
    latest = model.metadata["latest"]
    return [(freighter, order, latest[(instance.freighter(freighter).home_stop, order)])
            for freighter, order in freighter_orders(instance, model, result.values)]


def build_d3_t2(instance: Instance, routes: list[tuple[str, tuple[str, ...], float]],
                objective: T2Objective) -> MilpModel:
    """Pick trips and pickup stops that feed the fixed freighter routes.

    ``routes`` is ``decode_d3_t3``'s (freighter, customers, latest departure L) per
    route. A package may ride only a trip that drops it at its freighter's home stop
    in time to be loaded before L and within the dwell cap of it:
    ``L - max_dwell <= t_drop <= L - service_time``. All packages of one route share
    L, so the actual departure ``max(drops) + service`` is at most L and at most
    ``max_dwell`` after the earliest drop.
    """
    if objective.tag == OBJ3:
        raise ModelError("the freighter-count objective is moot once freighters are fixed")
    windows: dict[str, tuple[str, float, float]] = {}
    for freighter, order, latest in routes:
        stop = instance.stop(instance.freighter(freighter).home_stop)
        windows.update(dict.fromkeys(
            order, (stop.id, latest - stop.max_dwell, latest - stop.service_time)))
    mb = ModelBuilder("d3-t2")

    def unserved(cust) -> str:
        stop, lo, hi = windows[cust.id]
        return (f"customer {cust.id}: no trip reaches stop {stop} within "
                f"[{lo:g}, {hi:g}] with a reachable pickup stop")

    add_transit_flow(mb, instance, unserved, in_ok=_truck_can_feed(instance),
                     out_ok=_at_fixed_stop(windows))
    _set_transit_objective(mb, instance, objective, pickup_side=True, drop_side=False)
    return mb.build()
