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
arrival; ``decode_freighter_routes`` reads both. The three transit stages
differ only in the stop predicates they pass: d2-t2 keeps pickups a truck
can feed and drops a freighter can still serve in time; d1-t2 pins the
pickup to ``b_in`` within the dwell cap after the truck's arrival, and
d3-t2 pins the drop to ``b_out`` within the dwell cap before the
freighter's latest departure. ``decode_transit`` reads all three.

The two truck stages differ in what is fixed when they run. d1-t1 still
picks each package's stop among the drop-in stops whose window under the
deadline cut and the half-day split is not empty, so it keeps the shared
per-truck rows, read by ``decode_t1``. t1-handoff gets each package's stop
``b_in`` and pickup ``t_in``; its truck must arrive within the dwell cap
before ``t_in``. It chooses, under covering rows, among the routes
``enumerate_truck_routes`` lists per truck class, and
``decode_t1_from_handoff`` puts each package on one chosen route. Both
route tiers are listed by the one label-setting DP,
``model_full.enumerate_routes``: a freighter visit serves one customer, a
truck visit one stop's packages whose pickup windows meet. The
number of routes grows combinatorially with the packages one truck can
carry, so past ``ROUTE_LABEL_LIMIT`` labels the stage is built from
d1-t1's per-truck rows instead, with each package's stop and window fixed;
``decode_t1_from_handoff`` hands such a model to ``decode_t1``. Both
decoders hand on each truck's arrival at the package's stop as
``t_truck``.
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
    add_arrival_window,
    add_freighter_routing,
    add_stop_assignments,
    add_transit_flow,
    add_truck_routing,
    arc_costs,
    decode_freighter_routes,
    decode_truck_routes,
    enumerate_routes,
    route_costs,
    truck_assignments,
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


@dataclass(frozen=True)
class TransitChoice:
    """Decoded transit decision for one package."""

    trip: str
    drop_in: str
    pickup_time: float
    drop_out: str
    drop_time: float


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


def decode_transit(instance: Instance, model: MilpModel,
                   result: SolveResult) -> dict[str, TransitChoice]:
    """The trip, stops and times each package rides, from any transit stage."""
    picked: dict[str, tuple[str, str]] = {}
    dropped: dict[str, tuple[str, str]] = {}
    for (i, s, p), var in model.family("y1").items():
        if _binary_value(result.values, var):
            picked[i] = (s, p)
    for (i, s, p), var in model.family("y2").items():
        if _binary_value(result.values, var):
            dropped[i] = (s, p)
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


def handoff_from_transit(choices: dict[str, TransitChoice]) -> TierHandoff:
    return TierHandoff(
        b_in={c: ch.drop_in for c, ch in choices.items()},
        t_in={c: ch.pickup_time for c, ch in choices.items()},
        b_out={c: ch.drop_out for c, ch in choices.items()},
        t_out={c: ch.drop_time for c, ch in choices.items()},
    )


# ---- truck model fed by a handoff --------------------------------------


ROUTE_LABEL_LIMIT = 20_000  # stop visits and labels the truck route DP may make per class


def _pickup_windows(instance: Instance, handoff: TierHandoff) -> dict[str, tuple[float, float]]:
    """Per customer, the minutes its truck may be at ``b_in``: within the dwell cap before ``t_in``."""
    return {c.id: (handoff.t_in[c.id] - instance.stop(handoff.b_in[c.id]).max_dwell,
                   handoff.t_in[c.id])
            for c in instance.customers}


def _stop_visits(stop: str, members: list[str], window, demand, capacity: float,
                 limit: int) -> list[tuple] | None:
    """Every visit (``enumerate_routes``) to ``stop`` that serves a nonempty set of its
    packages whose load fits ``capacity`` and whose pickup windows meet, leaving the
    CDC from minute 0, in ``itertools.combinations`` order; None once there are more
    than ``limit``. Sets grow package by package, and one that fails either test is
    not grown further."""
    visits: list[tuple] = []

    def grow(start: int, group: tuple, load: float, lo: float, hi: float) -> bool:
        for k in range(start, len(members)):
            c = members[k]
            c_load, c_lo, c_hi = load + demand[c], max(lo, window[c][0]), min(hi, window[c][1])
            if c_lo <= c_hi + 1e-9 and c_load <= capacity + 1e-9:
                visits.append((stop, group + (c,), c_load, c_lo, c_hi, (0.0, math.inf)))
                if len(visits) > limit or not grow(k + 1, group + (c,), c_load, c_lo, c_hi):
                    return False
        return True

    if not grow(0, (), 0.0, -math.inf, math.inf):
        return None
    position = {c: k for k, c in enumerate(members)}
    return sorted(visits, key=lambda v: (len(v[1]), [position[c] for c in v[1]]))


def enumerate_truck_routes(instance: Instance, handoff: TierHandoff, capacity: float
                           ) -> list[tuple[tuple[str, ...], float]] | None:
    """The routes a truck of ``capacity`` may drive to the handoff's fixed stops and times.

    Package ``i`` is served at ``b_in[i]`` within ``[t_in[i] - max_dwell, t_in[i]]``.
    ``enumerate_routes`` lists the routes from the CDC whose visits each serve,
    at one stop, a set of that stop's packages whose windows meet
    (``_stop_visits``); per customer set the shortest is kept.

    Removing a package never lengthens a route or delays a visit (travel is
    Euclidean and trucks may wait), so a set is dropped when one more
    package gives a route no longer: that route covers it for no more.

    Returns (customers in visit order, grouped by stop; distance) per kept set,
    or None once the stop visits and grown labels pass ``ROUTE_LABEL_LIMIT``:
    the number of customer sets grows combinatorially with the packages one
    truck can carry.
    """
    window = _pickup_windows(instance, handoff)
    demand = {c.id: c.demand for c in instance.customers}
    at_stop: dict[str, list[str]] = {}
    for c in instance.customers:
        at_stop.setdefault(handoff.b_in[c.id], []).append(c.id)
    visits: list[tuple] = []
    for sid, members in at_stop.items():
        found = _stop_visits(sid, members, window, demand, capacity,
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
    routes = [(front[0][2], length[served]) for served, front in found.items()
              if not any(length.get(served | {c}, math.inf) <= length[served] + 1e-9
                         for c in demand if c not in served)]
    return sorted(routes, key=lambda route: (len(route[0]), route[0]))


def build_t1_from_handoff(instance: Instance, handoff: TierHandoff) -> MilpModel:
    """Route trucks so every package reaches its fixed stop by its fixed time.

    A covering model over ``enumerate_truck_routes``: per truck class
    (``vehicle_classes``) one binary ``x1[g,i1,...,ik]`` per route, indexed
    by the class and its customers in visit order, priced at its length;
    at most the class size of routes are driven (``fleet[g]``), and every
    customer is on at least one (``cover[i]``). Covering loses nothing: a
    package served twice leaves one route early, which never costs more
    (``decode_t1_from_handoff``).

    When a class has more routes than the DP lists within
    ``ROUTE_LABEL_LIMIT``, the stage is built from the per-truck rows d1-t1
    uses instead (``_build_t1_rows``), whose size grows polynomially.
    """
    for cust in instance.customers:
        stop = instance.stop(handoff.b_in[cust.id])
        earliest = (instance.travel_minutes(instance.cdc, stop.location)
                    + stop.service_time)
        if handoff.t_in[cust.id] < earliest - 1e-9:
            raise ModelBuildError(
                f"customer {cust.id}: pickup at {handoff.t_in[cust.id]:g} precedes the "
                f"earliest truck arrival {earliest:g} at stop {stop.id}")

    columns = {}
    for g, fleet in vehicle_classes(instance.trucks):
        columns[g] = enumerate_truck_routes(instance, handoff, fleet[0].capacity)
        if columns[g] is None:
            return _build_t1_rows(instance, handoff)

    per_distance = instance.cost_params.truck_cost_per_distance
    mb = ModelBuilder("t1-handoff")
    objective = []
    covering: dict[str, list] = {c.id: [] for c in instance.customers}
    for g, fleet in vehicle_classes(instance.trucks):
        driven = []
        for order, dist in columns[g]:
            x = mb.binary("x1", g, *order)
            objective.append((x, per_distance * dist))
            driven.append((x, 1.0))
            for cid in order:
                covering[cid].append((x, 1.0))
        if driven:
            mb.add(driven, "<=", float(len(fleet)), f"fleet[{g}]")
    window = _pickup_windows(instance, handoff)
    for cid, covers in covering.items():
        if not covers:
            raise ModelBuildError(
                f"customer {cid}: no truck can bring it to stop {handoff.b_in[cid]} "
                f"within [{window[cid][0]:g}, {window[cid][1]:g}]")
        mb.add(covers, ">=", 1.0, f"cover[{cid}]")
    mb.set_objective(objective)
    return mb.build()


def _build_t1_rows(instance: Instance, handoff: TierHandoff) -> MilpModel:
    """t1-handoff from d1-t1's truck rows, with each package's stop fixed to ``b_in``."""
    M = big_M(instance.cost_params)
    mb = ModelBuilder("t1-handoff")
    ctx = add_truck_routing(mb, instance, M, symmetry=True)
    add_stop_assignments(mb, instance, {c.id: [handoff.b_in[c.id]] for c in instance.customers},
                         ctx)
    for cust in instance.customers:
        stop, t_in = handoff.b_in[cust.id], handoff.t_in[cust.id]
        # arrive before the pickup, and not more than the dwell cap earlier
        add_arrival_window(mb, instance, cust.id, stop, M,
                           lo=([], t_in - instance.stop(stop).max_dwell), hi=([], t_in))
    mb.set_objective(arc_costs(mb, instance, "w", instance.cost_params.truck_cost_per_distance))
    return mb.build()


def decode_t1_from_handoff(instance: Instance, handoff: TierHandoff, model: MilpModel,
                           result: SolveResult
                           ) -> tuple[list[TruckRoute], TierHandoff, dict[str, str]]:
    """Returns (routes, handoff with b_in/t_truck, customer->truck) of t1-handoff.

    A model built from rows is read by ``decode_t1``. Of a column model, the
    chosen columns go to their class's trucks in instance order. Each
    customer rides the first chosen column that covers it, in class order
    and then column order; a route skips the stops left without packages and
    is timed forward from the CDC at minute 0: service at a stop ends one
    ride and its service time after the truck left the last, or when the
    pickup windows of its packages open if that is later.
    """
    if model.family("w"):
        return decode_t1(instance, model, result)
    chosen: dict[str, list[tuple[str, ...]]] = {}
    for (g, *order), x in model.family("x1").items():
        if _binary_value(result.values, x):
            chosen.setdefault(g, []).append(tuple(order))
    window = _pickup_windows(instance, handoff)
    routes, truck_of, t_truck = [], {}, {}
    for g, fleet in vehicle_classes(instance.trucks):
        columns = chosen.get(g, [])
        if len(columns) > len(fleet):
            raise DecodeError(f"class {g}: {len(columns)} routes for {len(fleet)} trucks")
        for truck, order in zip(fleet, columns):
            carried = [cid for cid in order if cid not in truck_of]
            t, here, stops, times = 0.0, instance.cdc, [], []
            for sid, group in itertools.groupby(carried, key=handoff.b_in.__getitem__):
                group, stop = list(group), instance.stop(sid)
                hop = instance.travel_minutes(here, stop.location) + stop.service_time
                t = max(max(window[cid][0] for cid in group), t + hop)
                here = stop.location
                stops.append(sid)
                times.append(t)
                for cid in group:
                    truck_of[cid], t_truck[cid] = truck.id, t
            if stops:
                routes.append(TruckRoute(truck=truck.id, departure=0.0,
                                         stops=tuple(stops), times=tuple(times)))
    for cust in instance.customers:
        if cust.id not in truck_of:
            raise DecodeError(f"customer {cust.id}: no chosen truck route covers it")
    return routes, TierHandoff(b_in=dict(handoff.b_in), t_truck=t_truck), truck_of


def decode_t1(instance: Instance, model: MilpModel,
              result: SolveResult) -> tuple[list[TruckRoute], TierHandoff, dict[str, str]]:
    """Returns (routes, handoff with b_in/t_truck, customer->truck) of d1-t1, and of a
    t1-handoff built from rows."""
    routes = decode_truck_routes(instance, model, result.values)
    stop_time = {(r.truck, s): t for r in routes for s, t in zip(r.stops, r.times)}
    carried = truck_assignments(model, result.values)
    handoff = TierHandoff(b_in={i: s for i, (s, _) in carried.items()},
                          t_truck={i: stop_time[(d, s)] for i, (s, d) in carried.items()})
    return routes, handoff, {i: d for i, (_, d) in carried.items()}


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
        mb.add([(q, 1.0) for q, _ in columns], "=", 1.0, f"customer_once[{cid}]")

    mb.set_objective(route_costs(mb, instance))
    return mb.build(stop=stop_id)


def decode_t3_stopwise(instance: Instance, model: MilpModel,
                       result: SolveResult) -> list[FreighterRoute]:
    return decode_freighter_routes(instance, model, result.values)


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
    """Truck routing committed first, under deadline cuts and a half-day split."""
    params = instance.cost_params
    M = big_M(params)
    mb = ModelBuilder("d1-t1")
    ctx = add_truck_routing(mb, instance, M, symmetry=True)

    windows: dict[tuple[str, str], tuple[float | None, float]] = {}
    stops_of: dict[str, list[str]] = {}
    for cust in instance.customers:
        t_avg = (cust.window_lo + cust.window_hi) / 2.0
        stops_of[cust.id] = []
        for sid in sorted(compat.s_in_of_customer[cust.id]):
            stop = instance.stop(sid)
            cut = t_avg - DEADLINE_SLACK_FACTOR * instance.travel_minutes(
                stop.location, cust.location)
            if tau[(cust.id, sid)] == 1:
                lo, hi = None, min(cut, params.t_mid_day)
            else:
                lo, hi = params.t_mid_day, cut
            earliest = instance.travel_minutes(instance.cdc, stop.location) + stop.service_time
            if hi < earliest - 1e-9 or (lo is not None and hi < lo - 1e-9):
                continue  # empty window: no truck brings the package here
            windows[(cust.id, sid)] = (lo, hi)
            stops_of[cust.id].append(sid)
        if not stops_of[cust.id]:
            raise ModelBuildError(
                f"customer {cust.id}: every drop-in stop misses the deadline cut")

    add_stop_assignments(mb, instance, stops_of, ctx)
    for (cid, sid), (lo, hi) in windows.items():
        add_arrival_window(mb, instance, cid, sid, M,
                           lo=None if lo is None else ([], lo), hi=([], hi))
    mb.set_objective(arc_costs(mb, instance, "w", params.truck_cost_per_distance))
    return mb.build()


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
            mb.add([(q, 1.0) for q, _ in serving.get((cust.id, sid), [])]
                   + [(mb.get("gamma2", cust.id, sid), -1.0)],
                   "=", 0.0, f"stop_serve[{cust.id},{sid}]")

    mb.set_objective(route_costs(mb, instance))
    return mb.build()


def decode_d3_t3(instance: Instance, model: MilpModel,
                 result: SolveResult) -> tuple[dict[str, str], list[FreighterRoute]]:
    b_out: dict[str, str] = {}
    for (i, sid), var in model.family("gamma2").items():
        if _binary_value(result.values, var):
            b_out[i] = sid
    routes = decode_freighter_routes(instance, model, result.values)
    return b_out, routes


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
