"""Direct-truck baseline: capacitated vehicle routing with time windows.

Trucks leave the CDC, serve customers inside their windows, and return.
The transit network plays no part; this exists to quantify what the
three-tier system saves in dedicated-vehicle distance.

The model is the two-index VRPTW, indexed by truck class instead of truck
(``vehicle_classes``: trucks that share a capacity are interchangeable):
  x[u,v,g]  a truck of class g traverses arc (u,v); the CDC is ``o`` and its
            route-sink copy ``o~``; the (o,o~) arc is free and always built
  z[i,g]    a truck of class g serves customer i
  l[i,g]    load delivered by the route through i, up to and including i
  t[i,g]    minute service at i ends, no sooner than the direct ride allows
At most the class size of routes leave the CDC. Load labels are
Miller-Tucker-Zemlin rows lifted as Desrochers and Laporte (1991) describe;
with the time labels they cut subtours. Arcs the windows rule out are not
built, and each time row has its own big-M.
"""

from __future__ import annotations

from dataclasses import replace

from .instance import Instance
from .milp import MilpModel, ModelBuilder, SolveResult
from .model_full import CDC_NODE, CDC_SINK, DecodeError, arc_costs, class_routes, vehicle_classes
from .plan import VrptwPlan, VrptwRoute
from .validate import recompute_vrptw_cost


def _hop(instance: Instance, a, cust) -> float:
    """Minutes from leaving point ``a`` to the end of service at ``cust``."""
    return instance.travel_minutes(a, cust.location) + cust.service_time


def build_vrptw(instance: Instance) -> MilpModel:
    mb = ModelBuilder("vrptw")
    served_by: dict[str, list] = {}

    for g, fleet in vehicle_classes(instance.trucks):
        capacity = fleet[0].capacity
        members, lb = [], {}
        for c in instance.customers:
            lb[c.id] = max(c.window_lo, _hop(instance, instance.cdc, c))
            if c.demand <= capacity and lb[c.id] <= c.window_hi + 1e-9:
                members.append(c)
                served_by.setdefault(c.id, []).append(mb.binary("z", c.id, g))
                mb.continuous("l", c.id, g, lb=c.demand, ub=capacity)
                mb.continuous("t", c.id, g, lb=lb[c.id], ub=max(lb[c.id], c.window_hi))

        arcs = [(CDC_NODE, CDC_SINK)]
        for j in members:
            arcs += [(CDC_NODE, j.id), (j.id, CDC_SINK)]
            arcs += [(i.id, j.id) for i in members
                     if i is not j and lb[i.id] + _hop(instance, i.location, j) <= j.window_hi + 1e-9]
        for u, v in arcs:
            mb.binary("x", u, v, g)
        if not members:
            continue

        mb.add([(mb.get("x", CDC_NODE, j.id, g), 1.0) for j in members],
               "<=", float(len(fleet)), f"fleet[{g}]")
        for c in members:
            z = mb.get("z", c.id, g)
            mb.add([(mb.get("x", u, v, g), 1.0) for u, v in arcs if v == c.id] + [(z, -1.0)],
                   "=", 0.0, f"in[{c.id},{g}]")
            mb.add([(mb.get("x", u, v, g), 1.0) for u, v in arcs if u == c.id] + [(z, -1.0)],
                   "=", 0.0, f"out[{c.id},{g}]")
        by_id = {c.id: c for c in members}
        for u, v in arcs:
            if u == CDC_NODE or v == CDC_SINK:
                continue
            i, j = by_id[u], by_id[v]
            x, back = mb.get("x", u, v, g), mb.get("x", v, u, g)
            lifted = [] if back is None else [(back, i.demand + j.demand - capacity)]
            mb.add([(mb.get("l", v, g), 1.0), (mb.get("l", u, g), -1.0), (x, -capacity)]
                   + lifted, ">=", j.demand - capacity, f"load[{u},{v},{g}]")
            if back is not None and u < v:
                mb.add([(x, 1.0), (back, 1.0)], "<=", 1.0, f"two_cycle[{u},{v},{g}]")
            hop = _hop(instance, i.location, j)
            big = i.window_hi + hop - lb[v]
            if big > 0:
                mb.add([(mb.get("t", v, g), 1.0), (mb.get("t", u, g), -1.0), (x, -big)],
                       ">=", hop - big, f"time[{u},{v},{g}]")

    # a customer no class can serve leaves an empty row: the model is infeasible
    for c in instance.customers:
        mb.add([(z, 1.0) for z in served_by.get(c.id, [])], "=", 1.0, f"customer_once[{c.id}]")
    mb.set_objective(arc_costs(mb, instance, "x", instance.cost_params.truck_cost_per_distance))
    return mb.build()


def decode_vrptw(instance: Instance, model: MilpModel, result: SolveResult) -> VrptwPlan:
    """Routes per truck class, handed to the class's trucks in instance order."""
    if not result.has_solution():
        raise DecodeError(f"no solution to decode (status {result.status})")
    t = model.family("t")
    routes = []
    for g, fleet in vehicle_classes(instance.trucks):
        for truck, order in class_routes(model, result.values, "x", CDC_NODE, CDC_SINK, g, fleet):
            times = tuple(result.values[t[(c, g)].name] for c in order)
            departure = times[0] - _hop(instance, instance.cdc, instance.customer(order[0]))
            routes.append(VrptwRoute(truck=truck.id, departure=departure,
                                     customers=tuple(order), times=times))
    draft = VrptwPlan(routes=tuple(routes), total_cost=0.0)
    return replace(draft, total_cost=recompute_vrptw_cost(instance, draft))
