"""Single-edit plan corruptions, one generator per constraint family.

Each generator receives a tightly-sized valid (instance, plan) pair and
returns a corrupted plan; the validator must flag every corruption. Fixtures
are parametrized by an index so each family gets ten distinct cases.
"""

from __future__ import annotations

from dataclasses import replace

from transitfreight.instance import (
    Customer,
    Freighter,
    Instance,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
)
from transitfreight.plan import (
    CostBreakdown,
    CustomerItinerary,
    FreighterRoute,
    Plan,
    TruckRoute,
)

FAMILIES = (
    "TRUCK_CAPACITY", "TRIP_CAPACITY", "FREIGHTER_CAPACITY", "WINDOW",
    "DWELL_IN", "DWELL_OUT", "ORDER", "TIMETABLE", "COVERAGE", "STOP_DISTINCT",
)


def tight_fixture(variant: int) -> tuple[Instance, Plan]:
    """Three customers, two trucks/trips/freighters, all capacities snug.

    The variant index jitters positions and windows so every mutation family
    gets ten genuinely different cases.
    """
    dx = 0.5 * (variant % 5)
    dy = 0.25 * (variant % 3)
    dwell_cap = 100.0
    instance = Instance(
        cdc=Point(0.0, 0.0),
        stops=(
            Stop("A", Point(10.0 + dx, 0.0), True, False, 10.0, dwell_cap),
            Stop("M", Point(30.0 + dx, dy), True, True, 10.0, dwell_cap),
            Stop("B", Point(50.0 + dx, 0.0), False, True, 10.0, dwell_cap),
        ),
        lines=(Line("L1", ("A", "M", "B")),),
        trips=(
            Trip("p1", "L1", {"A": 150.0, "M": 154.0, "B": 158.0}, 20.0),
            Trip("p2", "L1", {"A": 180.0, "M": 184.0, "B": 188.0}, 20.0),
        ),
        trucks=(Truck("d1", 25.0), Truck("d2", 25.0)),
        freighters=(Freighter("fM", "M", 20.0), Freighter("fB", "B", 20.0)),
        customers=(
            Customer("u", Point(31.0 + dx, 2.0 + dy), 10.0, 200.0 + variant,
                     700.0, 0.0, frozenset({"M", "B"})),
            Customer("v", Point(52.0 + dx, 2.0), 10.0, 210.0 + variant,
                     710.0, 0.0, frozenset({"B"})),
            Customer("x", Point(52.0 + dx, -2.0), 10.0, 220.0 + variant,
                     720.0, 0.0, frozenset({"M", "B"})),
        ),
    )
    instance.validate()

    def tt(a: Point, b: Point) -> float:
        from transitfreight.instance import euclidean_distance, travel_time
        return travel_time(euclidean_distance(a, b), instance.cost_params)

    # u rides p1 to M (freighter fM); v rides p1 to B; x rides p2 to B (fB)
    u, v, x = instance.customers
    t_d1 = 60.0 + 0.1 * variant   # pickup at 150: 90-minute stay, inside the cap
    t_d2 = 85.0 + 0.1 * variant   # pickup at 180: 95-minute stay
    dep_M = 154.0 + 10.0
    dep_B = 188.0 + 10.0
    t_u = max(dep_M + tt(instance.stop("M").location, u.location), u.window_lo)
    t_v = max(dep_B + tt(instance.stop("B").location, v.location), v.window_lo)
    t_x = max(t_v + tt(v.location, x.location), x.window_lo)
    plan = Plan(
        itineraries=(
            CustomerItinerary("u", "d1", "A", t_d1, "p1", "M", 154.0, "fM", t_u),
            CustomerItinerary("v", "d1", "A", t_d1, "p1", "B", 158.0, "fB", t_v),
            CustomerItinerary("x", "d2", "A", t_d2, "p2", "B", 188.0, "fB", t_x),
        ),
        truck_routes=(
            TruckRoute("d1", 0.0, ("A",), (t_d1,)),
            TruckRoute("d2", 0.0, ("A",), (t_d2,)),
        ),
        freighter_routes=(
            FreighterRoute("fM", "M", dep_M, ("u",), (t_u,)),
            FreighterRoute("fB", "B", dep_B, ("v", "x"), (t_v, t_x)),
        ),
        costs=CostBreakdown(0.0, 0.0),
    )
    return instance, plan


def _swap_itinerary(plan: Plan, customer: str, **changes) -> Plan:
    its = tuple(
        replace(it, **changes) if it.customer == customer else it
        for it in plan.itineraries)
    return replace(plan, itineraries=its)


def mutate(family: str, instance: Instance, plan: Plan) -> Plan:
    """One corrupted copy of the plan targeting the given constraint family."""
    if family == "TRUCK_CAPACITY":
        # move x onto d1: 30 units on a 25-unit truck
        return _swap_itinerary(plan, "x", truck="d1", drop_in_time=plan.itineraries[0].drop_in_time)
    if family == "TRIP_CAPACITY":
        # move x onto p1: 30 units through stop A on a 20-unit vehicle
        return _swap_itinerary(plan, "x", trip="p1", drop_out_time=158.0)
    if family == "FREIGHTER_CAPACITY":
        # give fB a third package: 30 units on a 20-unit freighter
        plan2 = _swap_itinerary(plan, "u", freighter="fB", drop_out_stop="B",
                                drop_out_time=158.0)
        routes = tuple(
            replace(r, customers=("u",) + r.customers,
                    times=(r.times[0] - 1.0,) + r.times)
            if r.freighter == "fB" else
            replace(r, customers=(), times=())
            for r in plan2.freighter_routes)
        return replace(plan2, freighter_routes=routes)
    if family == "WINDOW":
        late = instance.customer("v").window_hi + 5.0
        plan2 = _swap_itinerary(plan, "v", delivery_time=late)
        routes = tuple(
            replace(r, times=tuple(late if c == "v" else t
                                   for c, t in zip(r.customers, r.times)))
            if "v" in r.customers else r
            for r in plan2.freighter_routes)
        return replace(plan2, freighter_routes=routes)
    if family == "DWELL_IN":
        # the truck shows up so early that the package overstays the cap
        early = plan.itineraries[0].drop_in_time - 35.0
        plan2 = _swap_itinerary(plan, "u", drop_in_time=early)
        plan2 = _swap_itinerary(plan2, "v", drop_in_time=early)
        routes = tuple(
            replace(r, times=(early,) + r.times[1:]) if r.truck == "d1" else r
            for r in plan2.truck_routes)
        return replace(plan2, truck_routes=routes)
    if family == "DWELL_OUT":
        # hold the freighter at home far past the drop-off
        routes = []
        for r in plan.freighter_routes:
            if r.freighter == "fM":
                routes.append(replace(
                    r, departure=r.departure + 120.0,
                    times=tuple(t + 120.0 for t in r.times)))
            else:
                routes.append(r)
        plan2 = replace(plan, freighter_routes=tuple(routes))
        new_t = plan2.freighter_routes[0].times[0]
        return _swap_itinerary(plan2, "u", delivery_time=new_t)
    if family == "ORDER":
        # freighter claims to leave before its package is unloaded
        routes = tuple(
            replace(r, departure=150.0) if r.freighter == "fM" else r
            for r in plan.freighter_routes)
        return replace(plan, freighter_routes=routes)
    if family == "TIMETABLE":
        # drop-out time contradicts the published schedule
        return _swap_itinerary(plan, "v", drop_out_time=163.0)
    if family == "COVERAGE":
        return replace(plan, itineraries=plan.itineraries[1:])  # u unserved
    if family == "STOP_DISTINCT":
        # claim u boards and alights at M on the same trip
        return _swap_itinerary(plan, "u", drop_in_stop="M", drop_in_time=140.0)
    raise ValueError(f"unknown family {family}")


def _with_express_line(instance: Instance) -> Instance:
    """The fixture plus line L2, which runs from A straight to B as trip p3."""
    express = replace(instance, lines=instance.lines + (Line("L2", ("A", "B")),),
                      trips=instance.trips + (Trip("p3", "L2", {"A": 150.0, "B": 156.0}, 20.0),))
    express.validate()
    return express


def _swap_route(plan: Plan, kind: str, vehicle: str, **changes) -> Plan:
    """``plan`` with the ``kind`` ("truck" or "freighter") route of ``vehicle`` changed."""
    field = f"{kind}_routes"
    routes = tuple(replace(r, **changes) if getattr(r, kind) == vehicle else r
                   for r in getattr(plan, field))
    return replace(plan, **{field: routes})


def _late_truck(instance: Instance, plan: Plan) -> tuple[Instance, Plan]:
    # d1 reaches A at 155, after p1 has called there at 150
    plan2 = _swap_itinerary(plan, "u", drop_in_time=155.0)
    plan2 = _swap_itinerary(plan2, "v", drop_in_time=155.0)
    return instance, _swap_route(plan2, "truck", "d1", times=(155.0,))


def _freighter_revisit(instance: Instance, plan: Plan) -> tuple[Instance, Plan]:
    # fB drives on from x back to v
    route = plan.freighter_routes[1]
    return instance, _swap_route(plan, "freighter", "fB", customers=route.customers + ("v",),
                                 times=route.times + (route.times[-1] + 30.0,))


# One corruption per check of ``validate_plan`` that the family mutations above do not
# reach: check name -> (code, detail, (instance, plan) -> corrupted (instance, plan)).
CHECKS = {
    "drop-in role": ("TIMETABLE", "stop is not a drop-in stop",
                     lambda i, p: (i, _swap_itinerary(p, "v", drop_in_stop="B"))),
    "drop-out role": ("TIMETABLE", "stop is not a drop-out stop",
                      lambda i, p: (i, _swap_itinerary(p, "u", drop_out_stop="A"))),
    "line visits drop-in": (
        "TIMETABLE", "trip's line does not visit the drop-in stop",
        lambda i, p: (_with_express_line(i),
                      _swap_itinerary(p, "x", trip="p3", drop_in_stop="M"))),
    "line visits drop-out": (
        "TIMETABLE", "trip's line does not visit the drop-out stop",
        lambda i, p: (_with_express_line(i), _swap_itinerary(p, "u", trip="p3"))),
    "drop-out candidate": (
        "COVERAGE", "drop-out stop not among the customer's candidates",
        lambda i, p: (i, _swap_itinerary(p, "v", drop_out_stop="M", drop_out_time=154.0))),
    "freighter home": ("COVERAGE", "freighter does not serve the drop-out stop",
                       lambda i, p: (i, _swap_itinerary(p, "u", freighter="fB"))),
    "freighter route": (
        "COVERAGE", "assigned freighter route does not visit the customer",
        lambda i, p: (i, _swap_route(p, "freighter", "fM", customers=(), times=()))),
    "truck revisit": (
        "COVERAGE", "truck route revisits a stop",
        lambda i, p: (i, _swap_route(p, "truck", "d2", stops=("A", "A"),
                                     times=p.truck_routes[1].times * 2))),
    "freighter revisit": ("COVERAGE", "freighter route revisits a customer", _freighter_revisit),
    "route home": ("COVERAGE", "route does not start at the freighter's home stop",
                   lambda i, p: (i, _swap_route(p, "freighter", "fM", home_stop="B"))),
    "ride order": ("ORDER", "package picked up after its drop-off",
                   lambda i, p: (i, _swap_itinerary(p, "u", drop_in_stop="B"))),
    "drop-in time": (
        "ORDER", "itinerary drop-in time differs from the truck route",
        lambda i, p: (i, _swap_itinerary(p, "u",
                                         drop_in_time=p.itineraries[0].drop_in_time + 1.0))),
    "late truck": ("ORDER", "truck reaches the stop after the scheduled pickup", _late_truck),
}
