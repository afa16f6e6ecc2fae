import itertools
import math
from dataclasses import replace

import pytest

from transitfreight import tiers
from transitfreight.backends import _highs_lp, highs_core, solve
from transitfreight.bruteforce import _best_order, brute_force_optimum
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
from transitfreight.model_full import (
    CDC_NODE,
    CDC_SINK,
    DecodeError,
    FullOptions,
    build_full,
    decode_full,
    decode_transit,
    enumerate_routes,
)
from transitfreight.tiers import (
    T2Objective,
    _stop_visits,
    build_d2_t2,
    build_t1_from_handoff,
)
from transitfreight.validate import validate_plan
from transitfreight.vrptw import build_vrptw, decode_vrptw

from conftest import (MICRO1_T1, MICRO1_T3, MICRO1_TOTAL, cut_trip_capacities,
                      generate_micro_instance, generate_micro_instances, make_micro1)


def test_full_micro1_optimum(backend, micro1):
    model = build_full(micro1)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(MICRO1_TOTAL, abs=1e-4)
    plan = decode_full(micro1, model, result)
    assert validate_plan(micro1, plan) == []
    assert plan.costs.t1_cost == pytest.approx(MICRO1_T1, abs=1e-6)
    assert plan.costs.t3_cost == pytest.approx(MICRO1_T3, abs=1e-6)
    assert plan.costs.total == pytest.approx(result.objective, abs=1e-6)

    (it,) = plan.itineraries
    assert it.truck == "d1"
    assert it.drop_in_stop == "A"
    assert it.trip in ("p1", "p2")
    assert it.drop_out_stop == "B"
    assert it.drop_in_time <= 150.0 + 1e-6 or it.trip == "p2"
    assert 200.0 - 1e-6 <= it.delivery_time <= 800.0 + 1e-6


def test_full_micro1_narrow_window_infeasible(backend):
    narrow = make_micro1(window=(150.0, 160.0))
    model = build_full(narrow)
    result = solve(model, backend)
    assert result.status == "infeasible"
    assert not brute_force_optimum(narrow).feasible  # oracle agrees


def test_decode_requires_solution(backend, micro1):
    narrow = make_micro1(window=(150.0, 160.0))
    model = build_full(narrow)
    result = solve(model, backend)
    with pytest.raises(DecodeError):
        decode_full(narrow, model, result)


def test_decode_rejects_fractional(backend, micro1):
    model = build_full(micro1)
    result = solve(model, backend)
    result.values[next(iter(model.family("r").values()))] = 0.5
    with pytest.raises(DecodeError, match="fractional"):
        decode_full(micro1, model, result)


@pytest.mark.parametrize("method, draw, cut, added, message", [
    ("full", None, ("A", CDC_SINK, "d1"), [], "breaks off at A"),
    ("vrptw", None, ("c1", CDC_SINK, "d1"), [], "breaks off at c1"),
    ("full", 2002, ("L0S0", CDC_SINK, "d1"), [("L0S0", "L0S1", "d1"), ("L0S1", "L0S0", "d1")],
     "loops back to L0S0"),
    ("vrptw", 2002, ("c2", CDC_SINK, "d1"), [("c2", "c1", "d1")], "loops back to c1"),
])
def test_a_broken_arc_path_is_a_decode_error(backend, method, draw, cut, added, message):
    """A chosen path that stops short of the CDC's copy, or comes back to a node, is a
    DecodeError in either arc decoder, not a shorter route or a KeyError."""
    instance = make_micro1() if draw is None else generate_micro_instances(1, start_seed=draw)[0]
    if method == "full":
        model, family, decode = build_full(instance), "w", decode_full
    else:
        model, family, decode = build_vrptw(instance), "x", decode_vrptw
    result = solve(model, backend)
    arcs = model.family(family)
    assert result.values[arcs[cut]] == pytest.approx(1.0)
    result.values[arcs[cut]] = 0.0
    for arc in added:
        result.values[arcs[arc]] = 1.0
    with pytest.raises(DecodeError, match=message):
        decode(instance, model, result)


def test_idle_freighter_omitted(backend):
    two = make_micro1(freighters=2)
    model = build_full(two)
    result = solve(model, backend)
    plan = decode_full(two, model, result)
    assert len(plan.freighter_routes) == 1  # the second stays home, free self-loop
    assert validate_plan(two, plan) == []


def test_symmetry_toggle_preserves_optimum(backend, micro1):
    two = make_micro1(freighters=2)
    on = solve(build_full(two, FullOptions(symmetry_breaking=True)), backend)
    off = solve(build_full(two, FullOptions(symmetry_breaking=False)), backend)
    assert on.status == off.status == "optimal"
    assert on.objective == pytest.approx(off.objective, abs=1e-6)


def test_tampered_solution_flagged_by_validator(backend, micro1):
    model = build_full(micro1)
    result = solve(model, backend)
    plan = decode_full(micro1, model, result)
    # inflate the load: claim the package weighs its way onto a second run
    fat = replace(micro1, customers=(
        replace(micro1.customers[0], demand=170.0),))
    codes = {v.code for v in validate_plan(fat, plan)}
    assert "TRUCK_CAPACITY" in codes


def test_dual_role_stop_never_both_ends(backend):
    # M is drop-in and drop-out; the package must not use it for both
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("M", Point(10, 0), True, True, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("M", "B")),),
        trips=(Trip("p1", "L1", {"M": 150.0, "B": 158.0}, 60.0),
               Trip("p2", "L1", {"M": 180.0, "B": 188.0}, 60.0)),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("fM", "M", 20.0), Freighter("fB", "B", 20.0)),
        customers=(Customer("c1", Point(52, 2), 10.0, 200.0, 800.0, 0.0,
                            frozenset({"M", "B"})),),
    )
    instance.validate()
    model = build_full(instance)
    result = solve(model)
    assert result.status == "optimal"
    plan = decode_full(instance, model, result)
    (it,) = plan.itineraries
    assert it.drop_in_stop != it.drop_out_stop
    assert validate_plan(instance, plan) == []


def test_service_cost_consolidates_stops(backend):
    """With a large per-visit cost the truck uses one drop-in stop, not two."""
    instance = Instance(
        cdc=Point(0, 0),
        stops=(
            Stop("A1", Point(10, 6), True, False, 10.0, 300.0),
            Stop("A2", Point(10, -6), True, False, 10.0, 300.0),
            Stop("B", Point(50, 0), False, True, 10.0, 300.0),
        ),
        lines=(Line("L1", ("A1", "B")), Line("L2", ("A2", "B"))),
        trips=(
            Trip("p1", "L1", {"A1": 150.0, "B": 159.0}, 60.0),
            Trip("p2", "L2", {"A2": 150.0, "B": 159.5}, 60.0),
            Trip("p3", "L1", {"A1": 180.0, "B": 189.0}, 60.0),
            Trip("p4", "L2", {"A2": 180.0, "B": 189.5}, 60.0),
        ),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 50.0), Freighter("f2", "B", 50.0)),
        customers=(
            Customer("u", Point(52, 4), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
            Customer("v", Point(52, -4), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
        ),
    )
    instance.validate()

    base = solve(build_full(instance), backend)
    base_plan = decode_full(instance, build_full(instance), base)
    base_stops = {it.drop_in_stop for it in base_plan.itineraries}

    lam = 10.0 * base_plan.costs.t1_cost
    priced = build_full(instance, FullOptions(
        lambda1=lam, lambda3=10.0 * base_plan.costs.t3_cost))
    result = solve(priced, backend)
    assert result.status == "optimal"
    plan = decode_full(instance, priced, result)
    used = {it.drop_in_stop for it in plan.itineraries}
    assert len(used) <= len(base_stops)
    assert len(used) == 1
    assert plan.costs.service_cost > 0
    assert plan.costs.total == pytest.approx(result.objective, abs=1e-6)
    assert validate_plan(instance, plan) == []


def test_full_matches_oracle_on_dual_role(backend):
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("M", Point(10, 0), True, True, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("M", "B")),),
        trips=(Trip("p1", "L1", {"M": 150.0, "B": 158.0}, 60.0),
               Trip("p2", "L1", {"M": 180.0, "B": 188.0}, 60.0)),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("fM", "M", 20.0), Freighter("fB", "B", 20.0)),
        customers=(Customer("c1", Point(52, 2), 10.0, 200.0, 800.0, 0.0,
                            frozenset({"M", "B"})),),
    )
    instance.validate()
    outcome = brute_force_optimum(instance)
    result = solve(build_full(instance), backend)
    assert outcome.feasible and result.status == "optimal"
    assert result.objective == pytest.approx(outcome.cost, abs=1e-4)


@pytest.mark.parametrize("n_lines", [1, 2])
def test_full_matches_the_oracle_where_trip_loads_bind(backend, n_lines):
    """With trip capacities cut below their riders' demand (``cut_trip_capacities``),
    every micro draw builds load rows, and ``full`` still equals ``brute_force_optimum``:
    optimal at its cost, or infeasible where it is. The cut rules out or raises some
    optima the draws have as drawn."""
    bound = 0
    for drawn in generate_micro_instances(12, n_lines=n_lines):
        instance = cut_trip_capacities(drawn)
        model = build_full(instance)
        assert model.family("l2")
        result = solve(model, backend)
        outcome = brute_force_optimum(instance)
        if outcome.feasible:
            assert result.status == "optimal"
            plan = decode_full(instance, model, result)
            assert validate_plan(instance, plan) == []
            assert plan.costs.total == pytest.approx(outcome.cost, abs=1e-4)
            bound += outcome.cost > brute_force_optimum(drawn).cost + 1e-6
        else:
            assert result.status == "infeasible"
            bound += 1
    assert bound >= 1


def test_mixed_capacity_freighters_form_separate_classes(backend):
    # f1 (10) and f2 (30) share stop B but are not interchangeable: the 25-unit
    # package fits only f2, and both packages together fit neither
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 10.0), Freighter("f2", "B", 30.0)),
        customers=(Customer("u", Point(52, 2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
                   Customer("v", Point(52, -2), 25.0, 200.0, 800.0, 0.0, frozenset({"B"}))),
    )
    instance.validate()
    model = build_full(instance)
    assert {g for (g, *_order) in model.family("q")} == {"f1", "f2"}
    result = solve(model, backend)
    assert result.status == "optimal"
    plan = decode_full(instance, model, result)
    assert validate_plan(instance, plan) == []
    assert {it.customer: it.freighter for it in plan.itineraries} == {"u": "f1", "v": "f2"}
    assert plan.costs.total == pytest.approx(brute_force_optimum(instance).cost, abs=1e-4)


def _oracle_routes(instance, home, places, visits, capacity):
    """Per customer set a route can serve, its shortest length by ``_best_order``.

    For each placing of the set's customers at places that serve them, the
    route makes, at each place holding some of the set, the one visit that
    serves exactly those customers; it leaves home at the latest earliest
    departure of its visits, which must not pass their earliest latest one.
    """
    at: dict = {}  # customer -> the places that serve it
    for place, customers, *_ in visits:
        for cid in customers:
            at.setdefault(cid, set()).add(place)
    shortest = {}
    for size in range(1, len(at) + 1):
        for chosen in itertools.combinations(sorted(at), size):
            for placing in itertools.product(*(sorted(at[cid]) for cid in chosen)):
                wanted: dict = {}
                for cid, place in zip(chosen, placing):
                    wanted.setdefault(place, set()).add(cid)
                parts = [v for v in visits if wanted.get(v[0]) == set(v[1])]
                if len(parts) < len(wanted) or sum(v[2] for v in parts) > capacity + 1e-9:
                    continue
                start = max(v[5][0] for v in parts)
                if start > min(v[5][1] for v in parts) + 1e-9:
                    continue
                best = _best_order(instance, home, start,
                                   {v[0]: (*places[v[0]], v[3], v[4]) for v in parts}, 1.0)
                if best is not None:
                    served = frozenset(chosen)
                    shortest[served] = min(best[0], shortest.get(served, math.inf))
    return shortest


def _freighter_visits(instance):
    """One visit per customer from the first drop-out stop, the route leaving within
    20 minutes of one trip's call there, trips taken in turn: the micro trips call
    30 minutes apart, so some departure bounds do not meet."""
    stop = instance.drop_out_stops()[0]
    places, visits = {}, []
    for k, c in enumerate(instance.customers):
        t = instance.trips[k % len(instance.trips)].stop_times[stop.id]
        places[c.id] = (c.location, c.service_time)
        visits.append((c.id, (c.id,), c.demand, c.window_lo, c.window_hi,
                       (t + stop.service_time, t + 20.0)))
    return stop.location, places, visits


def _truck_visits(instance, dwell, any_stop=False):
    """Stop visits (``tiers._stop_visits``) of packages picked up by the trips in turn,
    within a dwell cap of ``dwell`` before the trip calls: dealt round the drop-in
    stops, or, with ``any_stop``, each free to use every drop-in stop, on the next trip
    at each next stop. The visits are listed at the total demand, so only the DP holds
    a smaller capacity."""
    instance = replace(instance, stops=tuple(replace(s, max_dwell=dwell) for s in instance.stops))
    stops = instance.drop_in_stops()
    windows = {}
    for k, c in enumerate(instance.customers):
        windows[c.id] = {}
        for j, stop in enumerate(stops if any_stop else [stops[k % len(stops)]]):
            t = instance.trips[(k + j) % len(instance.trips)].stop_times[stop.id]
            windows[c.id][stop.id] = (t - dwell, t)
    demand = {c.id: c.demand for c in instance.customers}
    places, visits = {}, []
    for stop in stops:
        members = [cid for cid in windows if stop.id in windows[cid]]
        places[stop.id] = (stop.location, stop.service_time)
        visits += _stop_visits(stop.id, members, windows, demand, sum(demand.values()), 1 << 20)
    return instance.cdc, places, visits


def test_route_dp_matches_the_oracle_on_micro_instances():
    """Of visits of either shape, one customer each with departure bounds (freighters)
    or several packages of one stop leaving the CDC from minute 0 (trucks, each
    package at one stop or free to use any), the DP lists the customer sets the
    oracle finds a route for, each at its shortest length, at an ample capacity and at
    one that holds about two packages."""
    checked = refused = 0
    for instance in generate_micro_instances(12):
        demands = sorted(c.demand for c in instance.customers)
        for home, places, visits in (_freighter_visits(instance),
                                     _truck_visits(instance, 120.0),
                                     _truck_visits(instance, 5.0),
                                     _truck_visits(instance, 5.0, any_stop=True)):
            for capacity in (sum(demands), sum(demands[:2])):
                found = enumerate_routes(instance, home, places, visits, capacity)
                oracle = _oracle_routes(instance, home, places, visits, capacity)
                assert found.keys() == oracle.keys()
                for served, length in oracle.items():
                    assert found[served][0][0] == pytest.approx(length, rel=1e-9)
                checked += len(oracle)
                refused += 2 ** len(instance.customers) - 1 - len(oracle)
    assert checked >= 100 and refused >= 100


def _lp_trucks_leaving_the_cdc(model) -> float:
    """Sum of w[o,u,d] over drop-in stops u and trucks d in the model's LP relaxation."""
    lp, _ = _highs_lp(model)
    lp.integrality_ = []
    highs = highs_core._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.passModel(lp)
    highs.run()
    assert highs.getModelStatus() == highs_core.HighsModelStatus.kOptimal
    x = highs.getSolution().col_value
    return sum(x[col] for (u, v, _d), col in model.family("w").items()
               if u == CDC_NODE and v != CDC_SINK)


@pytest.mark.parametrize("gen_seed", [2000, 2021])
def test_lp_relaxation_sends_a_loaded_truck_out_of_the_cdc(backend, monkeypatch, gen_seed):
    """In the LP relaxation of full and of the truck stage built from rows, some truck
    leaves the CDC toward a drop-in stop (the leave_cdc rows). Without them the
    relaxation routes its trucks in cycles between drop-in stops on these benchmark
    micro draws of two and three drop-in stops, and no truck leaves the CDC."""
    instance = generate_micro_instance(gen_seed, 2 + gen_seed % 3)
    assert len(instance.drop_in_stops()) >= 2
    assert _lp_trucks_leaving_the_cdc(build_full(instance)) >= 1 - 1e-9

    monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", 0)
    t2 = build_d2_t2(instance, T2Objective("obj2"))
    rows = build_t1_from_handoff(instance, decode_transit(instance, t2, solve(t2, backend)))
    assert rows.family("w")
    assert _lp_trucks_leaving_the_cdc(rows) >= 1 - 1e-9
