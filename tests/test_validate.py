import itertools
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from transitfreight.bruteforce import (
    OracleSizeError,
    _best_freighter_layer,
    _best_partition,
    _best_truck_layer,
    _shortest_tour,
    _transit_options,
    brute_force_optimum,
)
from transitfreight.instance import (
    Customer,
    Freighter,
    Instance,
    InstanceError,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
    with_beta,
)
from transitfreight.model_full import forward_times
from transitfreight.backends import ScipyHighsBackend
from transitfreight.pipeline import PipelineError, RunConfig, run_method
from transitfreight.plan import (
    CostBreakdown,
    CustomerItinerary,
    FreighterRoute,
    Plan,
    TruckRoute,
    VrptwPlan,
    VrptwRoute,
)
from transitfreight.validate import (
    ValidationInputError,
    price_routes,
    recompute_costs,
    validate_plan,
    validate_vrptw_plan,
)

from conftest import (
    MICRO1_T1,
    MICRO1_T3,
    MICRO1_TOTAL,
    generate_micro_instance,
    generate_micro_instances,
    make_micro1,
)


def micro1_plan() -> Plan:
    """Hand-built optimal plan for the two-stop fixture."""
    return Plan(
        itineraries=(CustomerItinerary(
            customer="c1", truck="d1", drop_in_stop="A", drop_in_time=12.0,
            trip="p1", drop_out_stop="B", drop_out_time=158.0,
            freighter="f1", delivery_time=200.0),),
        truck_routes=(TruckRoute(truck="d1", departure=0.0, stops=("A",),
                                 times=(12.0,)),),
        freighter_routes=(FreighterRoute(
            freighter="f1", home_stop="B", departure=168.0,
            customers=("c1",), times=(200.0,)),),
        costs=CostBreakdown(t1_cost=MICRO1_T1, t3_cost=MICRO1_T3),
    )


def test_hand_plan_is_clean(micro1):
    assert validate_plan(micro1, micro1_plan()) == []


def test_recompute_costs_match(micro1):
    costs = recompute_costs(micro1, micro1_plan())
    assert costs.t1_cost == pytest.approx(20.0)
    assert costs.t3_cost == pytest.approx(2.8284271, abs=1e-6)
    assert costs.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)


def test_recompute_idle_plan_is_zero(micro1):
    empty = Plan(itineraries=(), truck_routes=(), freighter_routes=(),
                 costs=CostBreakdown(0.0, 0.0))
    costs = recompute_costs(micro1, empty)
    assert costs.total == 0.0


def test_beta_rescales_last_leg_only(micro1):
    plan = micro1_plan()
    base = recompute_costs(micro1, plan)
    doubled = recompute_costs(with_beta(micro1, 1.0), plan)
    assert doubled.t3_cost == pytest.approx(2 * base.t3_cost)
    assert doubled.t1_cost == pytest.approx(base.t1_cost)


class _ModelKeeper:
    """Solves through the in-process backend and keeps every model it is given."""

    def __init__(self):
        self.models = []

    def solve(self, model, limits):
        self.models.append(model)
        return ScipyHighsBackend().solve(model, limits)


def test_every_route_column_costs_its_route_price(micro1):
    """A route column's objective coefficient is, exactly, the freighter cost the
    plan is priced at when that column's route is driven. At the default freighter
    rate of 0.5 every order of adding the priced legs agrees, so a rate of 0.3 runs too."""
    checked = set()
    draws = [micro1] + generate_micro_instances(2, start_seed=2000)
    for instance in draws + [with_beta(draw, 0.3) for draw in draws]:
        keeper = _ModelKeeper()
        for config in (RunConfig(method="full"), RunConfig(method="d2", t2_obj="obj2"),
                       RunConfig(method="d3", t2_obj="obj2")):
            try:
                run_method(instance, config, keeper)
            except PipelineError:
                pass  # d3 fails on micro1 at its transit stage, after its t3 stage
        for model in keeper.models:
            tag = model.metadata["formulation"]
            if tag not in ("full", "t3-stopwise", "d3-t3"):
                continue
            price = dict(model.objective)
            for (g, *order), col in model.family("q").items():
                route = FreighterRoute(g, instance.freighter(g).home_stop, 0.0,
                                       tuple(order), (0.0,) * len(order))
                assert price[col] == price_routes(instance, (), [route]).t3_cost
            checked.add(tag)
    assert checked == {"full", "t3-stopwise", "d3-t3"}


def test_unresolved_reference_is_hard_error(micro1):
    plan = micro1_plan()
    broken = replace(plan, itineraries=(
        replace(plan.itineraries[0], truck="ghost"),))
    with pytest.raises(ValidationInputError):
        validate_plan(micro1, broken)


def test_truck_capacity_violation_arithmetic():
    # 17 packages of 10 units on a 160-unit truck
    stops = (Stop("A", Point(10, 0), True, False, 10.0, 300.0),
             Stop("B", Point(50, 0), False, True, 10.0, 300.0))
    customers = tuple(
        Customer(f"c{i}", Point(50 + i * 0.01, 1.0), 10.0, 150.0, 900.0, 0.0,
                 frozenset({"B"}))
        for i in range(17))
    instance = Instance(
        cdc=Point(0, 0), stops=stops, lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 200.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=tuple(Freighter(f"f{i}", "B", 200.0) for i in range(1)),
        customers=customers)
    instance.validate()
    itineraries = []
    for i, c in enumerate(customers):
        itineraries.append(CustomerItinerary(
            customer=c.id, truck="d1", drop_in_stop="A", drop_in_time=12.0,
            trip="p1", drop_out_stop="B", drop_out_time=158.0,
            freighter="f0", delivery_time=200.0 + i))
    plan = Plan(
        itineraries=tuple(itineraries),
        truck_routes=(TruckRoute("d1", 0.0, ("A",), (12.0,)),),
        freighter_routes=(FreighterRoute(
            "f0", "B", 168.0, tuple(c.id for c in customers),
            tuple(200.0 + i for i in range(17))),),
        costs=CostBreakdown(0.0, 0.0))
    codes = {v.code for v in validate_plan(instance, plan)}
    assert "TRUCK_CAPACITY" in codes
    cap = next(v for v in validate_plan(instance, plan) if v.code == "TRUCK_CAPACITY")
    assert cap.measured == pytest.approx(170.0)
    assert cap.bound == pytest.approx(160.0)


def dual_role_instance() -> Instance:
    """A stop serving as both drop-in and drop-out."""
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("M", Point(30, 0), True, True, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "M", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "M": 154.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("fM", "M", 20.0), Freighter("fB", "B", 20.0)),
        customers=(Customer("c1", Point(31, 1), 10.0, 170.0, 800.0, 0.0,
                            frozenset({"M", "B"})),),
    )
    instance.validate()
    return instance


def test_stop_distinct_violation():
    instance = dual_role_instance()
    plan = Plan(
        itineraries=(CustomerItinerary(
            customer="c1", truck="d1", drop_in_stop="M", drop_in_time=12.0,
            trip="p1", drop_out_stop="M", drop_out_time=154.0,
            freighter="fM", delivery_time=200.0),),
        truck_routes=(TruckRoute("d1", 0.0, ("M",), (12.0,)),),
        freighter_routes=(FreighterRoute("fM", "M", 164.0, ("c1",), (200.0,)),),
        costs=CostBreakdown(0.0, 0.0))
    codes = {v.code for v in validate_plan(instance, plan)}
    assert "STOP_DISTINCT" in codes


def test_vrptw_route_without_its_times_is_a_hard_error(backend, micro1):
    plan, _ = run_method(micro1, RunConfig(method="vrptw"), backend)
    untimed = replace(plan, routes=(replace(plan.routes[0], times=()),))
    with pytest.raises(ValidationInputError, match="customers/times length mismatch"):
        validate_vrptw_plan(micro1, untimed)


def _earliest_times(instance: Instance, served) -> tuple[float, ...]:
    """Service end at each of ``served`` on a truck leaving the CDC at minute 0."""
    customers = [instance.customer(cid) for cid in served]
    return forward_times(instance, instance.cdc, 0.0, [(c, c.window_lo) for c in customers])


def test_vrptw_capacity_is_summed_per_truck():
    """Two routes of d1 carry 7 and 13 units: each fits its capacity of 19, together not."""
    instance = generate_micro_instances(1, start_seed=2002)[0]
    instance = replace(instance, trucks=(replace(instance.trucks[0], capacity=19.0),)
                       + instance.trucks[1:])
    routes = tuple(VrptwRoute("d1", 0.0, served, _earliest_times(instance, served))
                   for served in (("c2",), ("c3", "c1")))
    assert [instance.customer(c).demand for c in ("c2", "c3", "c1")] == [7.0, 8.0, 5.0]
    found = validate_vrptw_plan(instance, VrptwPlan(routes, 0.0))
    assert [(v.code, v.subjects, v.measured) for v in found] == [
        ("COVERAGE", ("d1",), 2), ("TRUCK_CAPACITY", ("d1",), 20.0)]


def _vrptw_draw_plan(**changes) -> tuple[Instance, VrptwPlan]:
    """Draw 2002 served by d1 on (c3, c1) and d2 on (c2,), both leaving at 0, with
    ``changes`` mapping a truck to its replacement (departure, customers, times), or
    to None for no route."""
    instance = generate_micro_instances(1, start_seed=2002)[0]
    served = {"d1": ("c3", "c1"), "d2": ("c2",)}
    routes = {truck: (0.0, custs, _earliest_times(instance, custs))
              for truck, custs in served.items()}
    routes.update(changes)
    return instance, VrptwPlan(tuple(VrptwRoute(truck, *route)
                                     for truck, route in routes.items() if route), 0.0)


@pytest.mark.parametrize("case, expected", [
    pytest.param({}, lambda inst: [], id="clean"),
    pytest.param({"d2": (424.0, ("c2",), (425.0,))},
                 lambda inst: [("ORDER", ("d2", "c2"), 425.0,
                                424.0 + inst.travel_minutes(inst.cdc, inst.customer("c2").location))],
                 id="order"),
    pytest.param({"d2": (0.0, ("c2",), (400.0,))},
                 lambda inst: [("WINDOW", ("c2",), 400.0, 425.0)], id="window-early"),
    pytest.param({"d2": (0.0, ("c2",), (800.0,))},
                 lambda inst: [("WINDOW", ("c2",), 800.0, 758.0)], id="window-late"),
    pytest.param({"d2": None}, lambda inst: [("COVERAGE", ("c2",), 0, 1)], id="unserved"),
    pytest.param({"d2": (0.0, ("c2", "c1"), (425.0, 500.0))},
                 lambda inst: [("COVERAGE", ("c1",), 2, 1)], id="served-twice"),
])
def test_vrptw_violations_are_reported_with_their_values(case, expected):
    instance, plan = _vrptw_draw_plan(**case)
    found = [(v.code, v.subjects, v.measured, v.bound)
             for v in validate_vrptw_plan(instance, plan)]
    assert found == expected(instance)


@pytest.mark.parametrize("case, names", [
    pytest.param({"ghost": (0.0, ("c2",), (425.0,)), "d2": None}, "unknown truck 'ghost'",
                 id="truck"),
    pytest.param({"d2": (0.0, ("c2", "ghost"), (425.0, 500.0))}, "unknown customer 'ghost'",
                 id="customer"),
])
def test_vrptw_unknown_reference_is_a_hard_error(case, names):
    instance, plan = _vrptw_draw_plan(**case)
    with pytest.raises(ValidationInputError, match=names):
        validate_vrptw_plan(instance, plan)


def test_a_vehicle_on_two_routes_is_a_coverage_violation(backend):
    instance = generate_micro_instances(1, start_seed=2000)[0]
    plan, _ = run_method(instance, RunConfig(method="full"), backend)
    assert validate_plan(instance, plan) == []
    truck, freighter = plan.truck_routes[0], plan.freighter_routes[0]
    for doubled, vehicle in ((replace(plan, truck_routes=plan.truck_routes + (truck,)), truck.truck),
                             (replace(plan, freighter_routes=plan.freighter_routes + (freighter,)),
                              freighter.freighter)):
        found = [v for v in validate_plan(instance, doubled) if v.code == "COVERAGE"]
        assert [(v.subjects, v.measured) for v in found] == [((vehicle,), 2)]


# ---- brute-force oracle --------------------------------------------------


def test_oracle_micro1_value(micro1):
    outcome = brute_force_optimum(micro1)
    assert outcome.feasible
    assert outcome.cost == pytest.approx(MICRO1_TOTAL, abs=1e-9)
    assert validate_plan(micro1, outcome.plan) == []
    assert outcome.plan.costs.t1_cost == pytest.approx(MICRO1_T1)
    assert outcome.plan.costs.t3_cost == pytest.approx(MICRO1_T3, abs=1e-9)


def test_oracle_reports_infeasible_window():
    # earliest possible delivery is 158 + 10 + 0.566 > 160
    outcome = brute_force_optimum(make_micro1(window=(150.0, 160.0)))
    assert not outcome.feasible
    assert outcome.cost is None


def test_oracle_symmetric_tie_has_unique_cost():
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0), Freighter("f2", "B", 20.0)),
        customers=(
            Customer("cL", Point(50, 5), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
            Customer("cR", Point(50, -5), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    outcome = brute_force_optimum(instance)
    assert outcome.feasible
    # one tour over both (10+10 fits one freighter): 5 + 10 + 5 at half cost
    assert outcome.cost == pytest.approx(0.5 * (5 + 10 + 5) + 20.0)
    assert validate_plan(instance, outcome.plan) == []


def _heavy_pair_instance(trucks, freighters) -> Instance:
    """h1 and h2 (8 each) and l (6) ride one trip from A to B."""
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=trucks,
        freighters=freighters,
        customers=(
            Customer("h1", Point(52, 3), 8.0, 200.0, 800.0, 0.0, frozenset({"B"})),
            Customer("h2", Point(52, -3), 8.0, 200.0, 800.0, 0.0, frozenset({"B"})),
            Customer("l", Point(47, 0), 6.0, 200.0, 800.0, 0.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    return instance


@pytest.mark.parametrize("tier", ["truck", "freighter"])
def test_oracle_puts_the_heavy_pair_on_the_larger_vehicle(tier):
    """Vehicles of capacity 7 and 16 carry packages of 8, 8 and 6 only as l on the
    smaller one and the pair of 8 on the larger one."""
    small, large = 7.0, 16.0
    if tier == "truck":
        instance = _heavy_pair_instance(
            (Truck("d1", small), Truck("d2", large)), (Freighter("f1", "B", 30.0),))
    else:
        instance = _heavy_pair_instance(
            (Truck("d1", 30.0),), (Freighter("f1", "B", small), Freighter("f2", "B", large)))
    outcome = brute_force_optimum(instance)
    assert outcome.feasible
    assert validate_plan(instance, outcome.plan) == []
    vehicle = {it.customer: getattr(it, tier) for it in outcome.plan.itineraries}
    assert vehicle == ({"h1": "d2", "h2": "d2", "l": "d1"} if tier == "truck"
                       else {"h1": "f2", "h2": "f2", "l": "f1"})


def test_oracle_plans_validate_and_recompute_to_their_cost():
    """Every feasible oracle plan on criterion 1's micro instances is valid and its
    routes recompute to the oracle's cost."""
    feasible = 0
    for instance in generate_micro_instances(20, start_seed=1000):
        outcome = brute_force_optimum(instance)
        if not outcome.feasible:
            continue
        assert validate_plan(instance, outcome.plan) == []
        assert recompute_costs(instance, outcome.plan).total == pytest.approx(
            outcome.cost, abs=1e-9)
        feasible += 1
    assert feasible >= 15


def _monolithic_draws(count: int) -> list[Instance]:
    """The first ``count`` instances of the benchmark's ``monolithic`` workload at seed
    1: generator seeds from 2001 on, with 2 + seed % 3 customers, skipping rejects."""
    drawn, seed = [], 2001
    while len(drawn) < count:
        try:
            drawn.append(generate_micro_instance(seed, 2 + seed % 3))
        except InstanceError:
            pass
        seed += 1
    return drawn


def test_shortest_tour_bounds_every_feasible_truck_layer():
    """The bound the oracle prunes by is a lower bound: on criterion 1's micro
    instances and a 30-second ``monolithic`` run's draws, every pickup pattern with a
    feasible truck layer costs at least the shortest CDC tour through its drop-in
    stops, and many cost exactly that."""
    checked = tight = 0
    for instance in generate_micro_instances(20, start_seed=1000) + _monolithic_draws(45):
        customers = sorted(c.id for c in instance.customers)
        demands = {c.id: c.demand for c in instance.customers}
        options = [_transit_options(instance, instance.customer(c)) for c in customers]
        patterns = {tuple((c, (opt.drop_in, opt.pickup_time)) for c, opt in zip(customers, picks))
                    for picks in itertools.product(*options)}
        memo = {}
        for pattern in sorted(patterns):
            layer = _best_truck_layer(instance, demands, dict(pattern), memo)
            if layer is None:
                continue
            bound = _shortest_tour(instance, tuple(sorted({s for _, (s, _) in pattern})))
            assert layer[0] >= bound - 1e-9, pattern
            checked += 1
            tight += layer[0] <= bound + 1e-9
    assert checked >= 1000 and tight >= 100


def _cheapest_freighter_layer(instance: Instance) -> float:
    """The least freighter cost over every drop pattern (a drop-out stop and minute per
    customer) with a feasible freighter layer."""
    customers = sorted(c.id for c in instance.customers)
    demands = {c.id: c.demand for c in instance.customers}
    drops = [sorted({(opt.drop_out, opt.drop_time)
                     for opt in _transit_options(instance, instance.customer(c))})
             for c in customers]
    memo, costs = {}, []
    for pattern in itertools.product(*drops):
        layer = _best_freighter_layer(instance, demands, dict(zip(customers, pattern)), memo)
        if layer is not None:
            costs.append(layer[0])
    return min(costs)


def test_oracle_looks_past_the_cheapest_freighter_layer(backend):
    """The oracle visits drop patterns by ascending freighter cost and stops only where
    that cost plus the cheapest CDC round trip passes its incumbent. On two-line micro
    draws a package may reach its cheapest drop-out stop only on a line whose drop-in
    stops lie far from the CDC, so some optima pay more for freighters than the cheapest
    freighter layer; on each such draw the oracle equals ``full``'s optimum. (One-line
    draws put every drop-in stop before every drop-out stop, so their tiers never pull
    apart.)"""
    coupled = 0
    for instance in generate_micro_instances(20, n_lines=2):
        outcome = brute_force_optimum(instance)
        assert outcome.feasible
        if outcome.plan.costs.t3_cost <= _cheapest_freighter_layer(instance) + 1e-9:
            continue
        plan, _ = run_method(instance, RunConfig(method="full"), backend)
        assert plan.costs.total == pytest.approx(outcome.cost, abs=1e-4)
        coupled += 1
    assert coupled >= 1


class _CountingRoutes:
    """A ``route_of`` stub: (cost, group) from ``cost_of``, or None; counts each ask."""

    def __init__(self, cost_of):
        self.cost_of, self.asked = cost_of, Counter()

    def __call__(self, group):
        self.asked[group] += 1
        cost = self.cost_of(group)
        return None if cost is None else (cost, group)


def _reference_partition(capacities, members, demands, route_of):
    """Every labelling in ``itertools.product`` order, each scored from scratch."""
    best = None
    for labels in itertools.product(range(len(capacities)), repeat=len(members)):
        cost, chosen = 0.0, []
        for vehicle, capacity in enumerate(capacities):
            group = tuple(m for m, label in zip(members, labels) if label == vehicle)
            if not group:
                continue
            if sum(demands[m] for m in group) > capacity + 1e-9:
                break
            route = route_of(group)
            if route is None:
                break
            cost += route[0]
            chosen.append((vehicle, group, route))
        else:
            if best is None or cost < best[0] - 1e-12:
                best = (cost, chosen)
    return best


def test_partition_tie_goes_to_the_first_labelling_and_skips_overloaded_groups():
    """With every package costing 1, all labellings that fit tie; the first in product
    order wins. The pair of 5s overloads vehicle 0, so it rides vehicle 1 or is split."""
    routes = _CountingRoutes(lambda group: float(len(group)))
    best = _best_partition([5.0, 10.0], ["a", "b"], {"a": 5.0, "b": 5.0}, routes)
    assert best == (2.0, [(0, ("a",), (1.0, ("a",))), (1, ("b",), (1.0, ("b",)))])
    assert max(routes.asked.values()) == 1
    alone = _CountingRoutes(lambda group: 1.0)
    assert _best_partition([5.0], ["a", "b"], {"a": 5.0, "b": 5.0}, alone) is None
    assert not alone.asked  # the pair is never routed for a vehicle it overloads


@pytest.mark.parametrize("vehicles", [1, 2])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4])
def test_partition_matches_a_reference_loop(vehicles, count):
    """On random capacities, demands and group costs (some groups unroutable, costs
    drawn from few values so labellings tie), the result equals a loop that scores
    every labelling from scratch, and each group is routed at most once."""
    members = [f"m{i}" for i in range(count)]
    groups = [g for size in range(1, count + 1) for g in itertools.combinations(members, size)]
    feasible = 0
    for seed in range(40):
        rng = random.Random(1000 * vehicles + 100 * count + seed)
        capacities = [float(rng.randint(3, 15)) for _ in range(vehicles)]
        demands = {m: float(rng.randint(1, 6)) for m in members}
        costs = {g: rng.choice([None, 1.0, 2.0, 2.0, 3.5]) for g in groups}
        routes = _CountingRoutes(costs.get)
        best = _best_partition(capacities, members, demands, routes)
        assert best == _reference_partition(capacities, members, demands,
                                            _CountingRoutes(costs.get))
        assert set(routes.asked.values()) <= {1}
        feasible += best is not None
    assert 0 < feasible < 40 or count == 0


def test_oracle_guard_refuses_large(micro1):
    big = replace(micro1, trucks=tuple(
        Truck(f"d{i}", 160.0) for i in range(3)))
    with pytest.raises(OracleSizeError, match="guard"):
        brute_force_optimum(big)


def _untimed(route):
    return replace(route, departure=math.nan, times=(math.nan,) * len(route.times))


@pytest.mark.parametrize("method", ["full", "vrptw"])
def test_every_time_that_is_not_finite_is_reported(backend, method):
    """A plan whose times and departures are all NaN passes no comparison, so each
    one is reported on its own."""
    instance = generate_micro_instances(1, start_seed=2000)[0]
    plan, _ = run_method(instance, RunConfig(method=method), backend)
    if isinstance(plan, VrptwPlan):
        validate, routes = validate_vrptw_plan, plan.routes
        blank = replace(plan, routes=tuple(_untimed(r) for r in routes))
        expected = sum(1 + len(r.times) for r in routes)
    else:
        validate, routes = validate_plan, plan.truck_routes + plan.freighter_routes
        blank = replace(
            plan,
            itineraries=tuple(replace(it, drop_in_time=math.nan, drop_out_time=math.nan,
                                      delivery_time=math.nan) for it in plan.itineraries),
            truck_routes=tuple(_untimed(r) for r in plan.truck_routes),
            freighter_routes=tuple(_untimed(r) for r in plan.freighter_routes))
        expected = 3 * len(plan.itineraries) + sum(1 + len(r.times) for r in routes)
    assert validate(instance, plan) == []
    flagged = [v for v in validate(instance, blank) if v.code == "NOT_FINITE"]
    assert len(flagged) == expected
