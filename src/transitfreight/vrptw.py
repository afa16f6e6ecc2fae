"""Direct-truck baseline: capacitated vehicle routing with time windows.

Trucks leave the CDC, serve customers inside their windows, and return.
The transit network plays no part; this exists to quantify what the
three-tier system saves in dedicated-vehicle distance.

The model is a two-index VRPTW (``add_class_routing``), once per truck
class (``vehicle_classes``: trucks that share a capacity are
interchangeable). Freighters choose among enumerated route columns
instead; on the baseline seeds the same columns solved more slowly than
these rows, build included.
Routes leave the CDC ``o`` and end at its route-sink copy ``o~``; the free
(o,o~) arc is always built. A customer joins a class when its demand fits
the capacity and the direct ride from the CDC meets its window, and is
served no sooner than that ride allows. The time labels ``t`` only hold
the windows and cut subtours: ``decode_vrptw`` reads the arcs alone through
the decoders' shared helpers (``arc_paths``, ``hand_out``) and times each
route from minute 0 (``forward_times``).
"""

from __future__ import annotations

from dataclasses import replace

from .instance import Instance
from .milp import MilpModel, ModelBuilder, SolveResult
from .model_full import (CDC_NODE, CDC_SINK, DecodeError, arc_costs, arc_paths, chosen,
                         forward_times, hand_out, ride_minutes, vehicle_classes)
from .plan import VrptwPlan, VrptwRoute
from .validate import recompute_vrptw_cost


def add_class_routing(mb: ModelBuilder, instance: Instance, g: str, fleet,
                      earliest: dict[str, float]) -> None:
    """Two-index routing of one truck class.

    The class (see ``vehicle_classes``) serves the customers keyed in
    ``earliest``, each no sooner than ``earliest[i]``: routes leave the CDC
    ``o`` and end at its copy ``o~``, at most the class size of them, and
    enough to carry what the class delivers. ``z[i,g]`` marks the customers
    served; ``l[i,g]`` is the load delivered up to and including ``i`` and
    ``t[i,g]`` the minute service at ``i`` ends. Load labels are
    Miller-Tucker-Zemlin rows lifted as Desrochers and Laporte (1991)
    describe, with a two-cycle row per pair of opposite arcs; with the time
    labels they cut subtours. Arcs the windows rule out are not built, and
    each time row has its own big-M. A class with no customer adds nothing.
    """
    if not earliest:
        return
    depot, sink = CDC_NODE, CDC_SINK
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


def build_vrptw(instance: Instance) -> MilpModel:
    mb = ModelBuilder("vrptw")
    for g, fleet in vehicle_classes(instance.trucks):
        earliest = {}
        for c in instance.customers:
            lb = max(c.window_lo, ride_minutes(instance, instance.cdc, c))
            if c.demand <= fleet[0].capacity and lb <= c.window_hi + 1e-9:
                earliest[c.id] = lb
        mb.binary("x", CDC_NODE, CDC_SINK, g)
        add_class_routing(mb, instance, g, fleet, earliest)

    # a customer no class can serve leaves an empty row: the model is infeasible
    for c in instance.customers:
        mb.add([(z, 1.0) for (i, _g), z in mb.family_items("z") if i == c.id],
               "=", 1.0, f"customer_once[{c.id}]")
    mb.set_objective(arc_costs(mb, instance, "x", instance.cost_params.truck_cost_per_distance))
    return mb.build()


def decode_vrptw(instance: Instance, model: MilpModel, result: SolveResult) -> VrptwPlan:
    """Per truck class, the paths of its chosen ``x`` arcs (``arc_paths``), handed to the
    class's trucks in instance order (``hand_out``); each leaves the CDC at minute 0 and
    serves every customer as early as its window allows (``forward_times``)."""
    if not result.has_solution():
        raise DecodeError(f"no solution to decode (status {result.status})")
    paths = arc_paths(chosen(model, result.values, "x"))
    routes = []
    for truck, path in hand_out(vehicle_classes(instance.trucks), paths, "vehicles"):
        customers = [instance.customer(cid) for cid in path]
        routes.append(VrptwRoute(truck=truck.id, departure=0.0, customers=tuple(path),
                                 times=forward_times(instance, instance.cdc, 0.0,
                                                     [(c, c.window_lo) for c in customers])))
    draft = VrptwPlan(routes=tuple(routes), total_cost=0.0)
    return replace(draft, total_cost=recompute_vrptw_cost(instance, draft))
