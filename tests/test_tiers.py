import dataclasses
import math

import pytest

from transitfreight.backends import solve
from transitfreight.compat import derive_compatibility
from transitfreight.instance import (
    Customer,
    Freighter,
    Instance,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
    euclidean_distance,
    travel_time,
)
from transitfreight.milp import ModelError
from transitfreight.model_full import DecodeError, build_full, decode_full
from transitfreight.plan import FreighterRoute, TierHandoff
from transitfreight.tiers import (
    ModelBuildError,
    T2Objective,
    build_d1_t1,
    build_d1_t2,
    build_d2_t2,
    build_d3_t2,
    build_d3_t3,
    build_t1_from_handoff,
    build_t3_stopwise,
    decode_d3_t3,
    decode_t1,
    decode_t3_stopwise,
    decode_transit,
    first_trip_times,
    handoff_from_transit,
    latest_departures,
    preprocess_midday,
    repair_d3_times,
)
from transitfreight.validate import validate_plan
from transitfreight.vrptw import build_vrptw

from conftest import generate_micro_instances, make_micro1

SQRT8 = math.sqrt(8.0)


# ---- transit-first: transit model ---------------------------------------


def test_t2_obj2_micro1(backend, micro1):
    compat = derive_compatibility(micro1)
    model = build_d2_t2(micro1, compat, T2Objective.parse("obj2"))
    result = solve(model, backend)
    assert result.status == "optimal"
    # distance proxy: CDC->A plus customer->B
    assert result.objective == pytest.approx(10.0 + SQRT8, abs=1e-6)
    choices = decode_transit(micro1, model, result)
    ch = choices["c1"]
    assert (ch.drop_in, ch.drop_out) == ("A", "B")
    assert ch.trip in ("p1", "p2")


def test_t2_obj1_micro1(backend, micro1):
    compat = derive_compatibility(micro1)
    result = solve(build_d2_t2(micro1, compat, T2Objective.parse("obj1")), backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0)  # one pickup stop, one drop stop


def test_t2_obj3_micro1(backend, micro1):
    compat = derive_compatibility(micro1)
    result = solve(build_d2_t2(micro1, compat, T2Objective.parse("obj3")), backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(math.ceil(10.0 / 20.0))


def test_t2_deadline_cut_infeasible(backend):
    # window closes before any trip's drop can be served
    tight = make_micro1(window=(150.0, 165.0))
    compat = derive_compatibility(tight)
    with pytest.raises(ModelError, match="T2 infeasible: customer c1"):
        build_d2_t2(tight, compat, T2Objective.parse("obj2"))


# ---- truck model from a handoff -----------------------------------------


def test_t1_from_handoff_micro1(backend, micro1):
    handoff = TierHandoff(b_in={"c1": "A"}, t_in={"c1": 150.0})
    model = build_t1_from_handoff(micro1, handoff)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(20.0)
    routes, decoded, truck_of = decode_t1(micro1, model, result)
    time_at = decoded.t_truck
    assert truck_of["c1"] == "d1"
    assert routes[0].stops == ("A",)
    assert time_at["c1"] <= 150.0 + 1e-6


def test_t1_handoff_too_early_raises(micro1):
    # pickup scheduled before the truck can possibly arrive (12 minutes)
    handoff = TierHandoff(b_in={"c1": "A"}, t_in={"c1": 1.0})
    with pytest.raises(ModelBuildError, match="c1"):
        build_t1_from_handoff(micro1, handoff)


def test_t1_handoff_recovers_the_truck_cost_of_a_full_optimum(backend, micro1):
    # fed the stops and pickup times of a full optimum, the truck stage can do
    # no better (full would use it) and no worse (full's routes are feasible)
    for instance in [micro1] + generate_micro_instances(12, start_seed=1000):
        model = build_full(instance, derive_compatibility(instance))
        result = solve(model, backend)
        assert result.status == "optimal"
        plan = decode_full(instance, model, result)
        assert validate_plan(instance, plan) == []
        handoff = TierHandoff(
            b_in={it.customer: it.drop_in_stop for it in plan.itineraries},
            t_in={it.customer: instance.trip(it.trip).stop_times[it.drop_in_stop]
                  for it in plan.itineraries})
        t1 = solve(build_t1_from_handoff(instance, handoff), backend)
        assert t1.status == "optimal"
        assert t1.objective == pytest.approx(plan.costs.t1_cost, rel=1e-6)


def test_t1_two_stops_one_truck_if_capacity(backend):
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(10, 3), True, False, 10.0, 300.0),
               Stop("A2", Point(10, -3), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A1", "B")), Line("L2", ("A2", "B"))),
        trips=(Trip("p1", "L1", {"A1": 150.0, "B": 159.0}, 60.0),
               Trip("p2", "L2", {"A2": 150.0, "B": 159.5}, 60.0)),
        trucks=(Truck("d1", 160.0), Truck("d2", 160.0)),
        freighters=(Freighter("f1", "B", 40.0),),
        customers=(Customer("u", Point(52, 2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
                   Customer("v", Point(52, -2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"}))),
    )
    instance.validate()
    handoff = TierHandoff(b_in={"u": "A1", "v": "A2"},
                          t_in={"u": 150.0, "v": 150.0})
    result = solve(build_t1_from_handoff(instance, handoff), backend)
    assert result.status == "optimal"
    # one truck sweeping both stops beats two separate round trips
    two_round_trips = 2 * euclidean_distance(Point(0, 0), Point(10, 3)) * 2
    assert result.objective < two_round_trips - 1e-6


# ---- per-stop freighter model --------------------------------------------


def test_t3_stopwise_micro1(backend, micro1):
    handoff = TierHandoff(b_out={"c1": "B"}, t_out={"c1": 158.0})
    model = build_t3_stopwise(micro1, "B", ["c1"], handoff)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.5 * 2 * SQRT8, abs=1e-9)
    routes = decode_t3_stopwise(micro1, model, result)
    assert len(routes) == 1
    assert routes[0].customers == ("c1",)
    assert routes[0].departure >= 158.0 + 10.0 - 1e-6
    assert 200.0 - 1e-6 <= routes[0].times[0] <= 800.0 + 1e-6


def test_t3_stopwise_pairs_when_capacity_allows(backend):
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0), Freighter("f2", "B", 20.0)),
        customers=(Customer("u", Point(52, 2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
                   Customer("v", Point(52, -2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"}))),
    )
    instance.validate()
    handoff = TierHandoff(b_out={"u": "B", "v": "B"},
                          t_out={"u": 158.0, "v": 158.0})
    model = build_t3_stopwise(instance, "B", ["u", "v"], handoff)
    result = solve(model, backend)
    assert result.status == "optimal"
    routes = decode_t3_stopwise(instance, model, result)
    assert len(routes) == 1  # both packages fit one freighter
    assert set(routes[0].customers) == {"u", "v"}


def test_t3_stopwise_unreachable_window(micro1):
    handoff = TierHandoff(b_out={"c1": "B"}, t_out={"c1": 850.0})
    with pytest.raises(ModelBuildError, match="stop B: customer c1"):
        build_t3_stopwise(micro1, "B", ["c1"], handoff)


def test_class_routing_prunes_arcs_from_the_earliest_service(backend):
    """Freighters and the vrptw baseline share one routing fragment.

    Stop B is 10 minutes from u and from v, and u and v are 14.1 minutes
    apart. Both packages are dropped at 158 and loaded by 168, so neither is
    served before 178; v's window closes at 191, before u can be served and
    v then reached (192.1). Trucks from the CDC reach u at 180.3 and v at 190.
    """
    far = 900.0
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(far - 40, 0), True, False, 10.0, 300.0),
               Stop("B", Point(far, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0),),
        customers=(Customer("u", Point(far, 50), 10.0, 60.0, 800.0, 0.0, frozenset({"B"})),
                   Customer("v", Point(far + 50, 0), 10.0, 60.0, 191.0, 0.0, frozenset({"B"}))),
    )
    instance.validate()
    handoff = TierHandoff(b_out={"u": "B", "v": "B"}, t_out={"u": 158.0, "v": 158.0})
    model = build_t3_stopwise(instance, "B", ["u", "v"], handoff)
    arcs = {(i, j) for i, j, _g in model.family("x")}
    assert ("u", "v") not in arcs and ("v", "u") in arcs
    for cid in ("u", "v"):
        ride = instance.travel_minutes(Point(far, 0), instance.customer(cid).location)
        assert model.family("t")[(cid, "f1")].lb == pytest.approx(max(60.0, 158.0 + 10.0 + ride))
    routes = decode_t3_stopwise(instance, model, solve(model, backend))
    assert [r.customers for r in routes] == [("v", "u")]

    baseline = build_vrptw(instance)
    arcs = {(i, j) for i, j, _g in baseline.family("x")}
    assert ("u", "v") not in arcs and ("v", "u") in arcs


# ---- half-day preprocessing ----------------------------------------------


def midday_fixture(window_hi: float) -> Instance:
    # distance 250 -> direct access time 50; stretched journey 65
    return Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(20, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 152.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0),),
        customers=(Customer("c1", Point(260.0, 0.0), 10.0, 60.0, window_hi, 0.0,
                            frozenset({"B"})),),
    )


def test_midday_rule_arithmetic():
    late = midday_fixture(800.0)  # 800 - 300 - 65 = 435 > 400
    tau = preprocess_midday(late, derive_compatibility(late))
    assert tau[("c1", "A")] == 2

    early = midday_fixture(600.0)  # 600 - 300 - 65 = 235 <= 400
    tau = preprocess_midday(early, derive_compatibility(early))
    assert tau[("c1", "A")] == 1

    boundary = midday_fixture(765.0)  # exactly 400 resolves to the first half
    tau = preprocess_midday(boundary, derive_compatibility(boundary))
    assert tau[("c1", "A")] == 1


# ---- truck-first pipeline stages -----------------------------------------


def test_d1_t1_micro1_cut_and_half(backend, micro1):
    compat = derive_compatibility(micro1)
    tau = preprocess_midday(micro1, compat)
    # latest start 800 - 300 - 10.93 = 489.07 >= 400: second half
    assert tau[("c1", "A")] == 2
    model = build_d1_t1(micro1, compat, tau)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(20.0)
    routes, handoff, truck_of = decode_t1(micro1, model, result)
    assert handoff.b_in["c1"] == "A"
    journey = 1.3 * travel_time(
        euclidean_distance(Point(10, 0), Point(52, 2)), micro1.cost_params)
    assert handoff.t_truck["c1"] <= 500.0 - journey + 1e-6  # deadline cut
    assert handoff.t_truck["c1"] >= 400.0 - 1e-6            # second-half pinning


def test_d1_t1_first_half_pinning(backend):
    instance = midday_fixture(600.0)
    instance.validate()
    compat = derive_compatibility(instance)
    tau = preprocess_midday(instance, compat)
    assert tau[("c1", "A")] == 1
    model = build_d1_t1(instance, compat, tau)
    result = solve(model, backend)
    assert result.status == "optimal"
    _routes, handoff, _ = decode_t1(instance, model, result)
    assert handoff.t_truck["c1"] <= 400.0 + 1e-6


def test_d1_t1_leaves_out_stops_whose_window_is_empty(backend):
    # window midpoint 400 minus the stretched ride (about 11 minutes) puts both
    # deadline cuts before the midday split: a second-half pair has no window
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(10, 3), True, False, 10.0, 300.0),
               Stop("A2", Point(10, -3), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A1", "B")), Line("L2", ("A2", "B"))),
        trips=(Trip("p1", "L1", {"A1": 150.0, "B": 159.0}, 60.0),
               Trip("p2", "L2", {"A2": 150.0, "B": 159.5}, 60.0)),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 40.0),),
        customers=(Customer("u", Point(52, 2), 10.0, 200.0, 600.0, 0.0, frozenset({"B"})),),
    )
    instance.validate()
    compat = derive_compatibility(instance)
    assert compat.s_in_of_customer["u"] == {"A1", "A2"}
    model = build_d1_t1(instance, compat, {("u", "A1"): 1, ("u", "A2"): 2})
    assert sorted(model.family("r")) == [("u", "A1", "d1")]
    result = solve(model, backend)
    assert result.status == "optimal"
    _routes, handoff, _ = decode_t1(instance, model, result)
    assert handoff.b_in == {"u": "A1"}
    with pytest.raises(ModelBuildError, match="every drop-in stop misses the deadline cut"):
        build_d1_t1(instance, compat, {("u", "A1"): 2, ("u", "A2"): 2})


def test_d1_t2_dwell_arithmetic(backend, micro1):
    compat = derive_compatibility(micro1)
    handoff = TierHandoff(b_in={"c1": "A"}, t_truck={"c1": 12.0})
    model = build_d1_t2(micro1, compat, handoff, T2Objective.parse("obj2"))
    result = solve(model, backend)
    assert result.status == "optimal"
    choices = decode_transit(micro1, model, result)
    assert choices["c1"].trip in ("p1", "p2")  # 150-12=138 <= 300 keeps p1 in play
    # objective carries only the drop-side distance proxy
    assert result.objective == pytest.approx(SQRT8, abs=1e-6)


def test_d1_t2_stranded_when_dwell_small():
    micro = make_micro1()
    from dataclasses import replace
    short_dwell = replace(micro, stops=(
        replace(micro.stops[0], max_dwell=100.0), micro.stops[1]))
    compat = derive_compatibility(short_dwell)
    handoff = TierHandoff(b_in={"c1": "A"}, t_truck={"c1": 12.0})
    with pytest.raises(ModelBuildError, match="stranded package"):
        build_d1_t2(short_dwell, compat, handoff, T2Objective.parse("obj2"))


# ---- freighter-first pipeline stages --------------------------------------


def test_first_trip_times(micro1):
    assert first_trip_times(micro1) == {"B": 158.0}


def test_d3_t3_micro1(backend, micro1):
    compat = derive_compatibility(micro1)
    t_first = first_trip_times(micro1)
    model = build_d3_t3(micro1, compat, t_first)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.5 * 2 * SQRT8, abs=1e-9)
    b_out, routes = decode_d3_t3(micro1, model, result)
    assert b_out == {"c1": "B"}
    assert routes[0].departure >= 158.0 + 10.0 - 1e-6


def test_d3_equidistant_candidates_tie(backend):
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B1", Point(50, 5), False, True, 10.0, 300.0),
               Stop("B2", Point(50, -5), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B1", "B2")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B1": 152.0, "B2": 154.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B1", 20.0), Freighter("f2", "B2", 20.0)),
        customers=(Customer("c1", Point(52, 0), 10.0, 200.0, 800.0, 0.0,
                            frozenset({"B1", "B2"})),),
    )
    instance.validate()
    compat = derive_compatibility(instance)
    result = solve(build_d3_t3(instance, compat, first_trip_times(instance)))
    assert result.status == "optimal"
    b_out, _routes = decode_d3_t3(instance, build_d3_t3(
        instance, compat, first_trip_times(instance)), result)
    assert b_out["c1"] in ("B1", "B2")  # symmetric optimum, either is optimal


def test_repair_rule_examples(micro1):
    # two-customer route: last pinned to closing, predecessor by the min rule
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 40.0),),
        customers=(
            Customer("c1", Point(150, 0), 10.0, 100.0, 800.0, 0.0, frozenset({"B"})),
            Customer("c2", Point(250, 0), 10.0, 100.0, 700.0, 0.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    route = FreighterRoute(freighter="f1", home_stop="B", departure=168.0,
                           customers=("c1", "c2"), times=(300.0, 320.0))
    t_out, warnings = repair_d3_times([route], instance)
    assert t_out["c2"] == pytest.approx(700.0)  # pinned to its closing
    assert t_out["c1"] == pytest.approx(680.0)  # min(800, 700 - 20)
    assert warnings == []

    # when the predecessor's own closing is the binding term
    from dataclasses import replace as dreplace
    tight = dreplace(instance, customers=(
        dreplace(instance.customers[0], window_hi=650.0), instance.customers[1]))
    t_out, _ = repair_d3_times([route], tight)
    assert t_out["c1"] == pytest.approx(650.0)


def test_repair_single_customer_route(micro1):
    route = FreighterRoute(freighter="f1", home_stop="B", departure=168.0,
                           customers=("c1",), times=(200.0,))
    t_out, _ = repair_d3_times([route], micro1)
    assert t_out["c1"] == pytest.approx(800.0)


def test_d3_t2_needs_a_late_trip(backend, micro1):
    compat = derive_compatibility(micro1)
    handoff = TierHandoff(b_out={"c1": "B"}, t_depart_max={"c1": 800.0})
    # trips at 158 and 188 both fall before the 500..790 drop window
    with pytest.raises(ModelBuildError, match="c1"):
        build_d3_t2(micro1, compat, handoff, T2Objective.parse("obj2"))

    late = make_micro1(extra_trip_time=550.0)
    compat_late = derive_compatibility(late)
    model = build_d3_t2(late, compat_late, handoff, T2Objective.parse("obj2"))
    result = solve(model, backend)
    assert result.status == "optimal"
    choices = decode_transit(late, model, result)
    assert choices["c1"].trip == "p3"
    # pickup-side distance proxy only
    assert result.objective == pytest.approx(10.0, abs=1e-6)


def test_d3_t2_dwell_window_intersection(backend, micro1):
    compat = derive_compatibility(micro1)
    handoff = TierHandoff(b_out={"c1": "B"}, t_depart_max={"c1": 480.0})
    model = build_d3_t2(micro1, compat, handoff, T2Objective.parse("obj2"))
    result = solve(model, backend)
    assert result.status == "optimal"
    choices = decode_transit(micro1, model, result)
    # the 180..470 window admits the 188 arrival but not the 158 one
    assert choices["c1"].trip == "p2"


def test_d3_rejects_freighter_count_objective(micro1):
    compat = derive_compatibility(micro1)
    handoff = TierHandoff(b_out={"c1": "B"}, t_depart_max={"c1": 480.0})
    with pytest.raises(ModelError):
        build_d3_t2(micro1, compat, handoff, T2Objective.parse("obj3"))


def test_handoff_from_transit_roundtrip(backend, micro1):
    compat = derive_compatibility(micro1)
    model = build_d2_t2(micro1, compat, T2Objective.parse("obj2"))
    result = solve(model, backend)
    choices = decode_transit(micro1, model, result)
    handoff = handoff_from_transit(choices)
    assert handoff.b_in == {"c1": "A"}
    assert handoff.b_out == {"c1": "B"}
    assert handoff.t_in["c1"] in (150.0, 180.0)
    assert handoff.t_out["c1"] == handoff.t_in["c1"] + 8.0


def test_stopwise_models_sum_to_merged_optimum(backend):
    """Per-stop routing solved independently matches the joint enumeration."""
    from transitfreight.bruteforce import _best_freighter_layer

    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B1", Point(50, 10), False, True, 10.0, 300.0),
               Stop("B2", Point(50, -10), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B1", "B2")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B1": 154.0, "B2": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B1", 20.0), Freighter("f2", "B1", 20.0),
                    Freighter("f3", "B2", 20.0), Freighter("f4", "B2", 20.0)),
        customers=(
            Customer("u", Point(55, 12), 10.0, 200.0, 800.0, 0.0, frozenset({"B1"})),
            Customer("v", Point(55, 8), 10.0, 200.0, 800.0, 0.0, frozenset({"B1"})),
            Customer("w", Point(55, -12), 10.0, 200.0, 800.0, 0.0, frozenset({"B2"})),
        ),
    )
    instance.validate()
    handoff = TierHandoff(
        b_out={"u": "B1", "v": "B1", "w": "B2"},
        t_out={"u": 154.0, "v": 154.0, "w": 158.0})

    total = 0.0
    for stop_id, members in (("B1", ["u", "v"]), ("B2", ["w"])):
        model = build_t3_stopwise(instance, stop_id, members, handoff)
        result = solve(model, backend)
        assert result.status == "optimal"
        total += result.objective

    demands = {c.id: c.demand for c in instance.customers}
    drops = {c: (handoff.b_out[c], handoff.t_out[c]) for c in handoff.b_out}
    merged = _best_freighter_layer(instance, demands, drops, {})
    assert merged is not None
    assert total == pytest.approx(merged[0], abs=1e-4)


# ---- freighter-first: latest departure and drop window --------------------


def test_repair_subtracts_successor_service_time():
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 40.0),),
        customers=(
            Customer("c1", Point(60, 0), 10.0, 100.0, 700.0, 5.0, frozenset({"B"})),
            Customer("c2", Point(70, 0), 10.0, 100.0, 700.0, 5.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    route = FreighterRoute(freighter="f1", home_stop="B", departure=168.0,
                           customers=("c1", "c2"), times=(175.0, 182.0))
    t_visit, _ = repair_d3_times([route], instance)
    assert t_visit["c2"] == pytest.approx(700.0)
    assert t_visit["c1"] == pytest.approx(700.0 - 2.0 - 5.0)  # hop 2, c2's service 5
    # the route leaves by T(c1) - ride(B -> c1) - service(c1)
    latest = latest_departures([route], instance, t_visit)
    assert latest == pytest.approx({"c1": 693.0 - 2.0 - 5.0, "c2": 686.0})


def ride_fixture(drop_times: tuple[float, ...]) -> Instance:
    # c1 sits 50 distance units (10 minutes) past the drop-out stop B
    trips = tuple(Trip(f"p{n + 1}", "L1", {"A": t - 8.0, "B": t}, 60.0)
                  for n, t in enumerate(drop_times))
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=trips,
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0),),
        customers=(Customer("c1", Point(100, 0), 10.0, 200.0, 500.0, 0.0,
                            frozenset({"B"})),),
    )
    instance.validate()
    return instance


def test_d3_t2_rejects_a_drop_too_late_for_the_ride(backend):
    route = FreighterRoute(freighter="f1", home_stop="B", departure=0.0,
                           customers=("c1",), times=(500.0,))
    late_only = ride_fixture((495.0,))
    t_visit, _ = repair_d3_times([route], late_only)
    handoff = TierHandoff(b_out={"c1": "B"},
                          t_depart_max=latest_departures([route], late_only, t_visit))
    assert handoff.t_depart_max["c1"] == pytest.approx(490.0)
    # 495 precedes the 500 closing, but loading (10) and the ride (10) miss it
    with pytest.raises(ModelBuildError, match=r"within \[190, 480\]"):
        build_d3_t2(late_only, derive_compatibility(late_only), handoff,
                    T2Objective.parse("obj2"))

    both = ride_fixture((470.0, 495.0))
    model = build_d3_t2(both, derive_compatibility(both), handoff, T2Objective.parse("obj2"))
    result = solve(model, backend)
    assert result.status == "optimal"
    assert decode_transit(both, model, result)["c1"].trip == "p1"


def test_d3_t2_drops_a_route_within_the_dwell_cap_of_its_departure(backend):
    # two customers of one route share the latest departure 600; the drop
    # window is [600 - 300, 600 - 10] = [300, 590]
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(10, 0), True, False, 10.0, 300.0),
               Stop("A2", Point(30, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A1", "B")), Line("L2", ("A2", "B"))),
        trips=(Trip("p1", "L1", {"A1": 242.0, "B": 250.0}, 60.0),   # too early
               Trip("p2", "L2", {"A2": 312.0, "B": 320.0}, 60.0),
               Trip("p3", "L2", {"A2": 572.0, "B": 580.0}, 60.0),
               Trip("p4", "L1", {"A1": 587.0, "B": 595.0}, 60.0)),  # too late
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 40.0),),
        customers=(
            Customer("u", Point(52, 2), 10.0, 100.0, 800.0, 0.0, frozenset({"B"})),
            Customer("v", Point(52, -2), 10.0, 100.0, 800.0, 0.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    handoff = TierHandoff(b_out={"u": "B", "v": "B"},
                          t_depart_max={"u": 600.0, "v": 600.0})
    model = build_d3_t2(instance, derive_compatibility(instance), handoff,
                        T2Objective.parse("obj1"))
    assert {pid for (_c, _s, pid) in model.family("y2")} == {"p2", "p3"}
    result = solve(model, backend)
    assert result.status == "optimal"
    drops = [ch.drop_time for ch in decode_transit(instance, model, result).values()]
    departure = max(drops) + 10.0
    assert departure <= 600.0 + 1e-9
    assert departure - min(drops) <= 300.0 + 1e-9


# ---- transit-first: pickup visits in the distance proxy -------------------


def test_obj2_prices_one_truck_visit_per_dwell_window(backend):
    # u can only ride p1; v rides p1 to the farther stop B1, or p2/p3 to B2.
    # p3 leaves A inside p1's dwell window, p2 beyond it.
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B1", Point(50, 5), False, True, 10.0, 300.0),
               Stop("B2", Point(50, -5), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B1")), Line("L2", ("A", "B2"))),
        trips=(Trip("p1", "L1", {"A": 20.0, "B1": 28.0}, 60.0),
               Trip("p2", "L2", {"A": 400.0, "B2": 408.0}, 60.0),
               Trip("p3", "L2", {"A": 100.0, "B2": 108.0}, 60.0)),
        trucks=(Truck("d1", 160.0), Truck("d2", 160.0)),
        freighters=(Freighter("f1", "B1", 20.0), Freighter("f2", "B2", 20.0)),
        customers=(
            Customer("u", Point(52, 7), 10.0, 100.0, 800.0, 0.0, frozenset({"B1"})),
            Customer("v", Point(55, -3), 10.0, 100.0, 800.0, 0.0, frozenset({"B1", "B2"})),
        ),
    )
    instance.validate()
    compat = derive_compatibility(instance)
    model = build_d2_t2(instance, compat, T2Objective.parse("obj2"))
    result = solve(model, backend)
    assert result.status == "optimal"
    choices = decode_transit(instance, model, result)
    pickups = [ch.pickup_time for ch in choices.values()]
    assert max(pickups) - min(pickups) <= 300.0
    # one visit at A, then each package's drop-side distance
    drop_side = sum(euclidean_distance(instance.customer(c).location,
                                       instance.stop(ch.drop_out).location)
                    for c, ch in choices.items())
    assert result.objective == pytest.approx(10.0 + drop_side, abs=1e-6)

    handoff = handoff_from_transit(choices)
    t1 = build_t1_from_handoff(instance, handoff)
    routes, _, _ = decode_t1(instance, t1, solve(t1, backend))
    assert sum(len(r.stops) for r in routes) == 1


# ---- trip capacity in every transit stage ---------------------------------


def shared_trip_fixture() -> Instance:
    """Two packages that each fill a trip, and would be cheaper on one.

    p1 and p2 leave A 100 minutes apart, so they fall in different pickup
    buckets of A's 120-minute dwell (obj2 prices one truck visit per bucket)
    and drop at B in different 30-minute periods (obj3 counts freighters of
    capacity 20 per period). Only the trip loads keep the packages apart.
    """
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 120.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 10.0),
               Trip("p2", "L1", {"A": 250.0, "B": 258.0}, 10.0)),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0),),
        customers=(
            Customer("u", Point(52, 2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
            Customer("v", Point(52, -2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    return instance


@pytest.mark.parametrize("stage", ["d2-t2", "d1-t2", "d3-t2"])
def test_trip_capacity_binds_in_every_transit_stage(backend, stage):
    instance = shared_trip_fixture()
    compat = derive_compatibility(instance)
    if stage == "d2-t2":
        model = build_d2_t2(instance, compat, T2Objective.parse("obj2"))
        split_cost = 2 * 10.0 + 2 * SQRT8  # two truck visits at A, two drop distances
    elif stage == "d1-t2":
        handoff = TierHandoff(b_in={"u": "A", "v": "A"}, t_truck={"u": 140.0, "v": 140.0})
        model = build_d1_t2(instance, compat, handoff, T2Objective.parse("obj3"))
        split_cost = 2.0  # one freighter in each drop period
    else:
        handoff = TierHandoff(b_out={"u": "B", "v": "B"},
                              t_depart_max={"u": 300.0, "v": 300.0})
        model = build_d3_t2(instance, compat, handoff, T2Objective.parse("obj2"))
        split_cost = 2 * 10.0
    result = solve(model, backend)
    assert result.status == "optimal"
    choices = decode_transit(instance, model, result)
    assert {choices["u"].trip, choices["v"].trip} == {"p1", "p2"}
    assert result.objective == pytest.approx(split_cost, abs=1e-6)


def test_decode_transit_rejects_a_customer_without_a_trip(backend, micro1):
    model = build_d2_t2(micro1, derive_compatibility(micro1), T2Objective.parse("obj2"))
    result = solve(model, backend)
    for var in model.family("y1").values():
        result.values[var.name] = 0.0
    with pytest.raises(DecodeError, match="c1"):
        decode_transit(micro1, model, result)


# ---- rides run forward in every model with a transit flow -----------------


def backward_ride_fixture() -> Instance:
    """One trip A(in) -> B(out) -> C(in) -> D(out); u may ride C -> B.

    v rides A -> D, so the trip carries v's load past B and the trip loads
    alone would let u be dropped at B before it is picked up at C.
    """
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(30, 0), False, True, 10.0, 300.0),
               Stop("C", Point(50, 0), True, False, 10.0, 300.0),
               Stop("D", Point(70, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B", "C", "D")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 160.0, "C": 170.0, "D": 180.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("fB", "B", 20.0), Freighter("fD", "D", 20.0)),
        customers=(
            Customer("u", Point(40, 5), 10.0, 200.0, 800.0, 0.0, frozenset({"B", "D"})),
            Customer("v", Point(72, 2), 10.0, 200.0, 800.0, 0.0, frozenset({"D"})),
        ),
    )
    instance.validate()
    return instance


def dual_role_fixture() -> Instance:
    """One trip A(in) -> S(in, out) -> D(out); u may be picked up and dropped at S."""
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("S", Point(30, 0), True, True, 10.0, 300.0),
               Stop("D", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "S", "D")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "S": 160.0, "D": 170.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("fS", "S", 20.0), Freighter("fD", "D", 20.0)),
        customers=(
            Customer("u", Point(32, 5), 10.0, 200.0, 800.0, 0.0, frozenset({"S", "D"})),
        ),
    )
    instance.validate()
    return instance


@pytest.mark.parametrize("model_kind", ["d2-t2", "full"])
@pytest.mark.parametrize("fixture, pickup, drop", [
    (backward_ride_fixture, "C", "B"),
    (dual_role_fixture, "S", "S"),
])
def test_a_ride_never_runs_backward(backend, model_kind, fixture, pickup, drop):
    """A -1000 lure on each end of a backward ride takes one end at most."""
    instance = fixture()
    compat = derive_compatibility(instance)
    if model_kind == "d2-t2":
        model = build_d2_t2(instance, compat, T2Objective.parse("obj1"))
    else:
        model = build_full(instance, compat)
    ends = (model.family("y1")[("u", pickup, "p1")], model.family("y2")[("u", drop, "p1")])
    lured = dataclasses.replace(model, objective=model.objective + [(var, -1000.0) for var in ends])
    result = solve(lured, backend)
    assert result.status == "optimal"
    assert sum(round(result.values[var.name]) for var in ends) == 1
    if model_kind == "d2-t2":
        choice = decode_transit(instance, lured, result)["u"]
        assert choice.pickup_time < choice.drop_time
    else:
        assert validate_plan(instance, decode_full(instance, lured, result)) == []
