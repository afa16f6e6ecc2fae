"""Tier models for the three decomposition pipelines.

Pipelines differ in which tier commits first:
  * transit-first: assign stops/trips in one transit model, then route trucks
    to the fixed drop-in times and freighters from the fixed drop-out times
    (the drop-out side separates into one routing model per stop);
  * truck-first: route trucks under approximate delivery-deadline cuts and a
    half-day split, then pick trips and drop-out stops, then freighters;
  * freighter-first: pick drop-out stops and freighter routes seeded by each
    stop's first trip arrival, repair the visit times backward from the
    window closings into a latest departure per route, then pick trips that
    drop every package of a route within the dwell cap before that
    departure, then route trucks.

The transit model supports three surrogate objectives: used-stop count,
distance proxies, and an estimated freighter count per period.

Every stage is built from the fragments ``model_full`` shares with the
monolithic model: ``add_transit_flow`` for transit, ``add_truck_routing``,
``add_stop_assignments`` and ``add_arrival_window`` for trucks chosen per
vehicle, and ``add_freighter_routing`` for freighters, which chooses among
enumerated route columns; ``arc_costs`` and ``route_costs`` price them.
The two freighter stages pass departure bounds that are data: t3-stopwise
from the fixed drops and the dwell cap, d3-t3 from each stop's first trip
arrival; each route leaves once its packages are loaded, after their
fixed drops or the stop's first trip (``decode_freighter_routes``), so
only ``full`` gives a route a departure variable. The three transit stages
differ only in the stop predicates they pass: d2-t2 keeps pickups a truck
can feed and drops a freighter can still serve in time; d1-t2 pins the
pickup to ``b_in`` within the dwell cap after the truck's arrival, and
d3-t2 pins the drop to ``b_out`` within the dwell cap before the
freighter's latest departure. ``model_full.decode_transit`` reads all three.

There is one truck stage (``_build_truck_stage``); d1-t1 and t1-handoff
differ only in the windows they pass: per package, the drop-in stops it
may use and a window ``(lo, hi)`` at each. d1-t1 passes every stop whose
window under the deadline cut and the half-day split is not empty;
t1-handoff passes the fixed stop ``b_in``, within the dwell cap before the
pickup ``t_in``. The stage chooses, under covering rows, among the routes
``enumerate_truck_routes`` lists per truck class. Both route tiers are
listed by the one label-setting DP, ``model_full.enumerate_routes``: a
freighter visit serves one customer, a truck visit the packages at one
stop whose windows there meet. The number of routes grows combinatorially
with the packages one truck can carry, so past ``ROUTE_LABEL_LIMIT`` labels
the stage is built from the per-truck rows ``full`` also uses instead.
``decode_t1`` reads either form, times every route forward from the CDC
as ``full`` does (``model_full.time_truck_routes``), and hands on each
package's stop as ``b_in`` and its truck's minute there as ``t_truck``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .compat import Compatibility
from .instance import Instance, euclidean_distance
from .milp import MilpModel, ModelBuilder, ModelError, SolveResult, big_M
from .model_full import (
    DecodeError,
    ModelBuildError,
    TransitChoice,
    add_arrival_window,
    add_freighter_routing,
    add_stop_assignments,
    add_transit_flow,
    add_truck_routing,
    arc_costs,
    decode_freighter_routes,
    decode_transit,
    decode_truck_routes,
    enumerate_routes,
    route_costs,
    time_truck_routes,
    vehicle_classes,
    _binary_value,
)
from .plan import FreighterRoute, TierHandoff, TruckRoute

OBJ1, OBJ2, OBJ3 = "obj1", "obj2", "obj3"
DEADLINE_SLACK_FACTOR = 1.3  # stretches the direct-access time estimate into a journey estimate


@dataclass(frozen=True)
class T2Objective:
    tag: str

    def __post_init__(self) -> None:
        if self.tag not in (OBJ1, OBJ2, OBJ3):
            raise ModelError(f"unknown transit objective {self.tag!r}")

    @classmethod
    def parse(cls, tag: str) -> "T2Objective":
        return cls(tag=tag.lower())


# ---- shared surrogate-objective machinery ------------------------------


def _attach_used_stop_flags(mb: ModelBuilder, M: float,
                            pickup_side: bool, drop_side: bool) -> list:
    """Binary flags that switch on when any package touches a stop."""
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
            mb.add([(v, 1.0) for v in by_stop[s]] + [(flag, -M)], "<=", 0.0, f"{row}[{s}]")
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
            picked.setdefault((s, bucket), []).append(var)
        for (s, bucket), entries in sorted(picked.items()):
            visit = mb.binary("v1", s, bucket)
            for var in entries:
                mb.add([(var, 1.0), (visit, -1.0)], "<=", 0.0, f"visit_in[{var.name}]")
            terms.append((visit, euclidean_distance(instance.cdc, instance.stop(s).location)))
    if drop_side:
        for (i, s, p), var in mb.family_items("y2"):
            terms.append((var, euclidean_distance(
                instance.customer(i).location, instance.stop(s).location)))
    return terms


def _set_transit_objective(mb: ModelBuilder, instance: Instance, objective: T2Objective,
                           M: float, pickup_side: bool, drop_side: bool) -> None:
    if objective.tag == OBJ1:
        mb.set_objective(_attach_used_stop_flags(mb, M, pickup_side, drop_side))
    elif objective.tag == OBJ2:
        mb.set_objective(_distance_proxy_terms(mb, instance, pickup_side, drop_side))
    else:
        mb.set_objective(_attach_freighter_estimate(mb, instance))


# ---- transit-first: the transit model ----------------------------------


def _truck_can_feed(compat: Compatibility):
    """Pickup predicate: a truck from the CDC reaches the stop before the trip calls."""
    def in_ok(cust, stop, trip) -> bool:
        lead = compat.avg_truck_time[stop.id] + stop.service_time
        return trip.stop_times[stop.id] >= lead - 1e-9
    return in_ok


def _freighter_can_meet(compat: Compatibility):
    """Drop predicate: a freighter leaving after the drop still meets the window's closing."""
    def out_ok(cust, stop, trip) -> bool:
        eta = (trip.stop_times[stop.id] + compat.avg_freighter_time[(stop.id, cust.id)]
               + stop.service_time + cust.service_time)
        return eta <= cust.window_hi + 1e-9
    return out_ok


def _at_fixed_stop(stop_of: dict[str, str], window):
    """Stop predicate: the package's fixed stop, on a trip calling there within ``window(cust)``."""
    def ok(cust, stop, trip) -> bool:
        lo, hi = window(cust)
        return stop.id == stop_of[cust.id] and lo - 1e-9 <= trip.stop_times[stop.id] <= hi + 1e-9
    return ok


def build_d2_t2(instance: Instance, compat: Compatibility,
                objective: T2Objective) -> MilpModel:
    """Assign stops/trips to every package before either road tier is solved.

    Pickups are restricted to trips a truck could feed in time; drops are
    restricted so a freighter can still meet the window's closing.
    """
    M = big_M(instance.cost_params)
    mb = ModelBuilder("d2-t2")
    add_transit_flow(mb, instance, compat, lambda cust: f"T2 infeasible: customer {cust.id}",
                     in_ok=_truck_can_feed(compat), out_ok=_freighter_can_meet(compat))
    _set_transit_objective(mb, instance, objective, M, pickup_side=True, drop_side=True)
    return mb.build(objective_tag=objective.tag)


def decode_t2(instance: Instance, model: MilpModel, result: SolveResult
              ) -> tuple[dict[str, TransitChoice], TierHandoff]:
    """A transit stage's choice per package, and the handoff the later stages read."""
    choices = decode_transit(instance, model, result)
    return choices, handoff_from_transit(choices)


def handoff_from_transit(choices: dict[str, TransitChoice]) -> TierHandoff:
    return TierHandoff(
        b_in={c: ch.drop_in for c, ch in choices.items()},
        t_in={c: ch.pickup_time for c, ch in choices.items()},
        b_out={c: ch.drop_out for c, ch in choices.items()},
        t_out={c: ch.drop_time for c, ch in choices.items()},
    )


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
    whose size grows polynomially: the arcs and times of
    ``add_truck_routing``, each package on one truck to one of its stops
    (``add_stop_assignments``) and a big-M window per pair
    (``add_arrival_window``). Either model keeps ``windows`` in its metadata.
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
    M = big_M(instance.cost_params)
    mb = ModelBuilder(tag)
    ctx = add_truck_routing(mb, instance, M, symmetry=True)
    add_stop_assignments(mb, instance, {cid: list(at) for cid, at in windows.items()}, ctx)
    for cid, at in windows.items():
        for sid, (lo, hi) in at.items():
            add_arrival_window(mb, instance, cid, sid, M,
                               lo=None if lo == -math.inf else ([], lo), hi=([], hi))
    mb.set_objective(arc_costs(mb, instance, "w", instance.cost_params.truck_cost_per_distance))
    return mb.build(windows=windows)


def build_t1_from_handoff(instance: Instance, handoff: TierHandoff) -> MilpModel:
    """Route trucks so every package reaches its fixed stop ``b_in`` by its pickup
    ``t_in``, and not more than the dwell cap earlier (``_build_truck_stage``)."""
    windows: dict[str, dict[str, tuple[float, float]]] = {}
    for cust in instance.customers:
        stop, t_in = instance.stop(handoff.b_in[cust.id]), handoff.t_in[cust.id]
        earliest = instance.travel_minutes(instance.cdc, stop.location) + stop.service_time
        if t_in < earliest - 1e-9:
            raise ModelBuildError(
                f"customer {cust.id}: pickup at {t_in:g} precedes the "
                f"earliest truck arrival {earliest:g} at stop {stop.id}")
        windows[cust.id] = {stop.id: (t_in - stop.max_dwell, t_in)}
    return _build_truck_stage(instance, windows, "t1-handoff")


def decode_t1(instance: Instance, model: MilpModel,
              result: SolveResult) -> tuple[list[TruckRoute], TierHandoff, dict[str, str]]:
    """Returns (routes, handoff with b_in/t_truck, customer->truck) of either truck stage.

    Of a model built from rows, each truck drives its tour
    (``decode_truck_routes``). Of a column model, the chosen columns go to
    their class's trucks in instance order. Each customer rides the first
    tour that carries it, in that order; a tour skips the stops left without
    packages and is timed by ``time_truck_routes`` from the windows' ``lo``.
    """
    tours: dict[str, list[tuple[str, str]]] = {}  # truck -> (customer, stop) in visit order
    if model.family("w"):
        for truck, visits in decode_truck_routes(instance, model, result.values).items():
            tours[truck] = [(cid, sid) for sid, group in visits for cid in group]
    else:
        chosen: dict[str, list[list[tuple[str, str]]]] = {}
        for (g, *pairs), x in model.family("x1").items():
            if _binary_value(result.values, x):
                chosen.setdefault(g, []).append(list(zip(pairs[::2], pairs[1::2])))
        for g, fleet in vehicle_classes(instance.trucks):
            columns = chosen.get(g, [])
            if len(columns) > len(fleet):
                raise DecodeError(f"class {g}: {len(columns)} routes for {len(fleet)} trucks")
            tours.update((truck.id, visits) for truck, visits in zip(fleet, columns))
    carried, seen = {}, set()
    for truck, visits in tours.items():
        visits = [(cid, sid) for cid, sid in visits if cid not in seen]
        seen.update(cid for cid, _ in visits)
        if visits:
            carried[truck] = [(sid, [cid for cid, _ in group])
                              for sid, group in itertools.groupby(visits, key=lambda pair: pair[1])]
    lo = {(cid, sid): window[0] for cid, at in model.metadata["windows"].items()
          for sid, window in at.items()}
    routes, placed = time_truck_routes(instance, carried, lo)
    for cust in instance.customers:
        if cust.id not in placed:
            raise DecodeError(f"customer {cust.id}: no chosen truck route covers it")
    handoff = TierHandoff(b_in={c.id: placed[c.id][0] for c in instance.customers},
                          t_truck={c.id: placed[c.id][2] for c in instance.customers})
    return routes, handoff, {c.id: placed[c.id][1] for c in instance.customers}


# ---- per-stop freighter model fed by a handoff --------------------------


def build_t3_stopwise(instance: Instance, stop_id: str, customers_of_stop: list[str],
                      handoff: TierHandoff) -> MilpModel:
    """Route one stop's freighters for its already-fixed drop-off times."""
    stop = instance.stop(stop_id)
    for cid in customers_of_stop:
        cust = instance.customer(cid)
        t_out = handoff.t_out[cid]
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
        t_out = handoff.t_out[cid]
        return t_out + stop.service_time, t_out + stop.max_dwell

    # only this stop's freighters take part
    serving = add_freighter_routing(mb, instance, {stop_id: sorted(customers_of_stop)},
                                    departure_bounds)
    for cid in sorted(customers_of_stop):
        columns = serving.get((cid, stop_id))
        if not columns:
            raise ModelBuildError(
                f"stop {stop_id}: no freighter can carry customer {cid} within the dwell cap")
        mb.add([(q, 1.0) for q in columns], "=", 1.0, f"customer_once[{cid}]")

    mb.set_objective(route_costs(mb, instance))
    # a package is loaded one service time after its fixed drop
    ready = {cid: handoff.t_out[cid] + stop.service_time for cid in customers_of_stop}
    return mb.build(stop=stop_id, ready=ready)


def decode_t3_stopwise(instance: Instance, model: MilpModel,
                       result: SolveResult) -> list[FreighterRoute]:
    return decode_freighter_routes(instance, model, result.values, model.metadata["ready"])


# ---- truck-first pipeline ----------------------------------------------


def preprocess_midday(instance: Instance, compat: Compatibility) -> dict[tuple[str, str], int]:
    """Half-of-day tag per (customer, drop-in stop) pair.

    A package must start in the first half when, working back from the
    window's closing through the dwell allowance and the stretched direct
    travel estimate, it could not otherwise arrive in time.
    """
    params = instance.cost_params
    tau: dict[tuple[str, str], int] = {}
    for cust in instance.customers:
        for sid in sorted(compat.s_in_of_customer[cust.id]):
            stop = instance.stop(sid)
            journey = DEADLINE_SLACK_FACTOR * instance.travel_minutes(stop.location, cust.location)
            latest_start = cust.window_hi - stop.max_dwell - journey
            tau[(cust.id, sid)] = 1 if latest_start <= params.t_mid_day else 2
    return tau


def build_d1_t1(instance: Instance, compat: Compatibility,
                tau: dict[tuple[str, str], int]) -> MilpModel:
    """Truck routing committed first, under deadline cuts and a half-day split.

    Each package may go to any drop-in stop whose window is not empty: the
    truck is there by the deadline cut, and within the package's half of
    the day (``tau``; a first-half window is open to the start). Stops no
    truck reaches within their window are left out (``_build_truck_stage``).
    """
    params = instance.cost_params
    windows: dict[str, dict[str, tuple[float, float]]] = {}
    for cust in instance.customers:
        t_avg = (cust.window_lo + cust.window_hi) / 2.0
        windows[cust.id] = {}
        for sid in sorted(compat.s_in_of_customer[cust.id]):
            stop = instance.stop(sid)
            cut = t_avg - DEADLINE_SLACK_FACTOR * instance.travel_minutes(
                stop.location, cust.location)
            if tau[(cust.id, sid)] == 1:
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


def build_d1_t2(instance: Instance, compat: Compatibility, handoff: TierHandoff,
                objective: T2Objective) -> MilpModel:
    """Pick a trip through each package's fixed drop-in stop, and a drop-out.

    The pickup is at ``b_in``, on a trip that calls there after the truck's
    arrival ``t_truck`` and within the dwell cap of it.
    """
    M = big_M(instance.cost_params)
    mb = ModelBuilder("d1-t2")

    def pickup_window(cust) -> tuple[float, float]:
        t_truck = handoff.t_truck[cust.id]
        return t_truck, t_truck + instance.stop(handoff.b_in[cust.id]).max_dwell

    def unserved(cust) -> str:
        lo, hi = pickup_window(cust)
        return (f"stranded package: customer {cust.id} has no trip through stop "
                f"{handoff.b_in[cust.id]} within [{lo:g}, {hi:g}] that can still meet its window")

    add_transit_flow(mb, instance, compat, unserved,
                     in_ok=_at_fixed_stop(handoff.b_in, pickup_window),
                     out_ok=_freighter_can_meet(compat))
    _set_transit_objective(mb, instance, objective, M, pickup_side=False, drop_side=True)
    return mb.build(objective_tag=objective.tag)


# ---- freighter-first pipeline -------------------------------------------


def first_trip_times(instance: Instance) -> dict[str, float]:
    """Earliest scheduled arrival at each drop-out stop."""
    t_first: dict[str, float] = {}
    for trip in instance.trips:
        for sid, t in trip.stop_times.items():
            if instance.stop(sid).is_drop_out:
                t_first[sid] = min(t_first.get(sid, math.inf), t)
    return t_first


def build_d3_t3(instance: Instance, compat: Compatibility,
                t_first: dict[str, float]) -> MilpModel:
    """Choose drop-out stops and freighter routes before any transit decision.

    Every freighter is seeded to start no earlier than its stop's first
    scheduled trip arrival plus handling; stops no trip reaches take no part.
    """
    mb = ModelBuilder("d3-t3")

    customers_of_stop = {
        s.id: sorted(compat.customers_of_dropout.get(s.id, ()))
        for s in instance.drop_out_stops() if s.id in t_first
    }

    def departure_bounds(_cid: str, sid: str) -> tuple[float, float]:
        return t_first[sid] + instance.stop(sid).service_time, instance.cost_params.horizon

    serving = add_freighter_routing(mb, instance, customers_of_stop, departure_bounds)

    for cust in instance.customers:
        for sid in sorted(cust.dropout_candidates):
            mb.binary("gamma2", cust.id, sid)
        mb.add([(mb.get("gamma2", cust.id, sid), 1.0)
                for sid in sorted(cust.dropout_candidates)],
               "=", 1.0, f"dropout_once[{cust.id}]")
        for sid in sorted(cust.dropout_candidates):
            mb.add([(q, 1.0) for q in serving.get((cust.id, sid), [])]
                   + [(mb.get("gamma2", cust.id, sid), -1.0)],
                   "=", 0.0, f"stop_serve[{cust.id},{sid}]")

    mb.set_objective(route_costs(mb, instance))
    # a stop's packages are loaded one service time after its first trip at the earliest
    return mb.build(loaded={sid: t + instance.stop(sid).service_time for sid, t in t_first.items()})


def decode_d3_t3(instance: Instance, model: MilpModel,
                 result: SolveResult) -> tuple[dict[str, str], list[FreighterRoute]]:
    """The chosen drop-out stops, and routes leaving once each stop's first trip is unloaded."""
    b_out: dict[str, str] = {}
    for (i, sid), var in model.family("gamma2").items():
        if _binary_value(result.values, var):
            b_out[i] = sid
    ready = {cid: model.metadata["loaded"][sid] for cid, sid in b_out.items()}
    return b_out, decode_freighter_routes(instance, model, result.values, ready)


def repair_d3_times(routes: list[FreighterRoute], instance: Instance
                    ) -> tuple[dict[str, float], list[str]]:
    """Latest visit time per customer, back-propagated from the window closings.

    The last customer on each route is pinned to its closing time; each
    earlier one to min(own closing, successor's time minus the travel between
    them and the successor's service time). Visit order is kept, so the
    routing cost is untouched; any schedule along the route that delivers no
    later than these times meets every window.
    """
    t_visit: dict[str, float] = {}
    warnings: list[str] = []
    for route in routes:
        if not route.customers:
            continue
        times: dict[str, float] = {}
        last = route.customers[-1]
        times[last] = instance.customer(last).window_hi
        for idx in range(len(route.customers) - 2, -1, -1):
            cid = route.customers[idx]
            nxt = instance.customer(route.customers[idx + 1])
            hop = instance.travel_minutes(instance.customer(cid).location, nxt.location)
            times[cid] = min(instance.customer(cid).window_hi,
                             times[nxt.id] - hop - nxt.service_time)
        for cid, t in times.items():
            if t < instance.customer(cid).window_lo - 1e-9:
                warnings.append(
                    f"customer {cid}: repaired time {t:g} is before its window opens "
                    f"({instance.customer(cid).window_lo:g}); waiting will absorb it")
            t_visit[cid] = t
    return t_visit, warnings


def latest_departures(routes: list[FreighterRoute], instance: Instance,
                      t_visit: dict[str, float]) -> dict[str, float]:
    """Per customer, the latest minute its freighter may leave the drop-out stop.

    One freighter departure carries every package of a route, so all its
    customers share ``T(first) - ride(stop -> first) - service(first)``,
    with ``T`` the repaired latest visit times.
    """
    t_depart_max: dict[str, float] = {}
    for route in routes:
        if not route.customers:
            continue
        first = instance.customer(route.customers[0])
        ride = instance.travel_minutes(instance.stop(route.home_stop).location,
                                       first.location)
        latest = t_visit[first.id] - ride - first.service_time
        for cid in route.customers:
            t_depart_max[cid] = latest
    return t_depart_max


def build_d3_t2(instance: Instance, compat: Compatibility, handoff: TierHandoff,
                objective: T2Objective) -> MilpModel:
    """Pick trips and pickup stops that feed the fixed freighter departures.

    A package may ride only a trip that drops it at ``b_out`` in time to be
    loaded before the latest departure ``L = t_depart_max`` and within the
    dwell cap of it: ``L - max_dwell <= t_drop <= L - service_time``. All
    packages of one freighter route share ``L``, so the actual departure
    ``max(drops) + service`` is at most ``L`` and at most ``max_dwell``
    after the earliest drop.
    """
    if objective.tag == OBJ3:
        raise ModelError("the freighter-count objective is moot once freighters are fixed")
    M = big_M(instance.cost_params)
    mb = ModelBuilder("d3-t2")

    def drop_window(cust) -> tuple[float, float]:
        stop = instance.stop(handoff.b_out[cust.id])
        latest = handoff.t_depart_max[cust.id]
        return latest - stop.max_dwell, latest - stop.service_time

    def unserved(cust) -> str:
        lo, hi = drop_window(cust)
        return (f"customer {cust.id}: no trip reaches stop {handoff.b_out[cust.id]} within "
                f"[{lo:g}, {hi:g}] with a reachable pickup stop")

    add_transit_flow(mb, instance, compat, unserved, in_ok=_truck_can_feed(compat),
                     out_ok=_at_fixed_stop(handoff.b_out, drop_window))
    _set_transit_objective(mb, instance, objective, M, pickup_side=True, drop_side=False)
    return mb.build(objective_tag=objective.tag)
