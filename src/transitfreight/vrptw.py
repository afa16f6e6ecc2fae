"""Direct-truck baseline: capacitated vehicle routing with time windows.

Trucks leave the CDC, serve customers inside their windows, and return.
The transit network plays no part; this exists to quantify what the
three-tier system saves in dedicated-vehicle distance.

The model is the two-index VRPTW of ``model_full.add_class_routing``, the
fragment freighters are routed by, once per truck class
(``vehicle_classes``: trucks that share a capacity are interchangeable).
Routes leave the CDC ``o`` and end at its route-sink copy ``o~``; the free
(o,o~) arc is always built. A customer joins a class when its demand fits
the capacity and the direct ride from the CDC meets its window, and is
served no sooner than that ride allows.
"""

from __future__ import annotations

from dataclasses import replace

from .instance import Instance
from .milp import MilpModel, ModelBuilder, SolveResult
from .model_full import (CDC_NODE, CDC_SINK, DecodeError, add_class_routing, arc_costs,
                         class_routes, ride_minutes, vehicle_classes)
from .plan import VrptwPlan, VrptwRoute
from .validate import recompute_vrptw_cost


def build_vrptw(instance: Instance) -> MilpModel:
    mb = ModelBuilder("vrptw")
    for g, fleet in vehicle_classes(instance.trucks):
        earliest = {}
        for c in instance.customers:
            lb = max(c.window_lo, ride_minutes(instance, instance.cdc, c))
            if c.demand <= fleet[0].capacity and lb <= c.window_hi + 1e-9:
                earliest[c.id] = lb
        mb.binary("x", CDC_NODE, CDC_SINK, g)
        add_class_routing(mb, instance, g, CDC_NODE, CDC_SINK, fleet, earliest)

    # a customer no class can serve leaves an empty row: the model is infeasible
    for c in instance.customers:
        mb.add([(z, 1.0) for (i, _g), z in mb.family_items("z") if i == c.id],
               "=", 1.0, f"customer_once[{c.id}]")
    mb.set_objective(arc_costs(mb, instance, "x", instance.cost_params.truck_cost_per_distance))
    return mb.build()


def decode_vrptw(instance: Instance, model: MilpModel, result: SolveResult) -> VrptwPlan:
    """Routes per truck class, handed to the class's trucks in instance order."""
    if not result.has_solution():
        raise DecodeError(f"no solution to decode (status {result.status})")
    routes = []
    for g, fleet in vehicle_classes(instance.trucks):
        for truck, order, times in class_routes(model, result.values, CDC_NODE, CDC_SINK, g, fleet):
            departure = times[0] - ride_minutes(instance, instance.cdc, instance.customer(order[0]))
            routes.append(VrptwRoute(truck=truck.id, departure=departure,
                                     customers=order, times=times))
    draft = VrptwPlan(routes=tuple(routes), total_cost=0.0)
    return replace(draft, total_cost=recompute_vrptw_cost(instance, draft))
