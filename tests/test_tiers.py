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
from transitfreight.milp import ModelError, SolveResult
from transitfreight.model_full import DecodeError, build_full, decode_full, decode_transit
from transitfreight.pipeline import PipelineError, RunConfig, run_method
from transitfreight.plan import FreighterRoute, TierHandoff
from transitfreight import tiers
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
    enumerate_truck_routes,
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
    """Freighter route columns and the vrptw baseline's arcs respect the earliest service.

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
    orders = [order for _g, *order in model.family("q")]
    assert ["v", "u"] in orders
    assert not any({"u", "v"} <= set(o) and o.index("u") < o.index("v") for o in orders)
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


def test_d1_t1_leaves_out_stops_whose_window_is_empty(backend, monkeypatch):
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
    tau = {("u", "A1"): 1, ("u", "A2"): 2}
    model = build_d1_t1(instance, compat, tau)
    assert list(model.metadata["windows"]["u"]) == ["A1"]
    assert [idx[1:] for idx in model.family("x1")] == [("u", "A1")]
    monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", 0)
    rows = build_d1_t1(instance, compat, tau)
    assert sorted(rows.family("r")) == [("u", "A1", "d1")]
    for built in (model, rows):
        result = solve(built, backend)
        assert result.status == "optimal"
        _routes, handoff, _ = decode_t1(instance, built, result)
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


# ---- route columns ---------------------------------------------------------


def _stopwise_total(instance, handoff, backend) -> float | None:
    """Summed t3-stopwise optima over the handoff's drop-out stops; None if one has no plan."""
    by_stop: dict[str, list[str]] = {}
    for cid, sid in handoff.b_out.items():
        by_stop.setdefault(sid, []).append(cid)
    total = 0.0
    for sid, members in sorted(by_stop.items()):
        try:
            result = solve(build_t3_stopwise(instance, sid, members, handoff), backend)
        except ModelBuildError:
            return None
        if result.status == "infeasible":
            return None
        assert result.status == "optimal"
        total += result.objective
    return total


def _narrowed_windows(instance, handoff, width: float):
    """Windows ``width`` minutes long that open 0-59 minutes after the earliest direct delivery."""
    customers = []
    for k, cust in enumerate(instance.customers):
        stop = instance.stop(handoff.b_out[cust.id])
        earliest = (handoff.t_out[cust.id] + stop.service_time
                    + instance.travel_minutes(stop.location, cust.location) + cust.service_time)
        lo = earliest + (23 * k) % 60
        customers.append(dataclasses.replace(cust, window_lo=lo, window_hi=lo + width))
    return dataclasses.replace(instance, customers=tuple(customers))


def test_route_columns_match_the_oracle_on_micro_instances(backend):
    """Per-stop column optima sum to the brute-force freighter layer on every d2 handoff
    of the micro instances, as drawn and with narrow windows that make the order matter."""
    from transitfreight.bruteforce import _best_freighter_layer

    checked = 0
    for instance in generate_micro_instances(20):
        compat = derive_compatibility(instance)
        demands = {c.id: c.demand for c in instance.customers}
        for tag in ("obj1", "obj2", "obj3"):
            t2 = build_d2_t2(instance, compat, T2Objective.parse(tag))
            result = solve(t2, backend)
            assert result.status == "optimal"
            handoff = handoff_from_transit(decode_transit(instance, t2, result))
            drops = {c: (handoff.b_out[c], handoff.t_out[c]) for c in handoff.b_out}
            for variant in (instance, _narrowed_windows(instance, handoff, 25.0)):
                total = _stopwise_total(variant, handoff, backend)
                merged = _best_freighter_layer(variant, demands, drops, {})
                if merged is None:
                    assert total is None
                else:
                    assert total == pytest.approx(merged[0], abs=1e-4)
                    checked += 1
    assert checked >= 60


def test_d3_t3_drives_the_later_leaving_direction_of_a_tie(backend):
    """Both directions of a two-customer route cost the same, but u closes first:
    served first, it lets the route leave later, and only that direction is a column."""
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A", "B")),),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0),),
        customers=(Customer("u", Point(52, 2), 10.0, 200.0, 300.0, 0.0, frozenset({"B"})),
                   Customer("v", Point(52, -2), 10.0, 200.0, 800.0, 0.0, frozenset({"B"}))),
    )
    instance.validate()
    model = build_d3_t3(instance, derive_compatibility(instance), first_trip_times(instance))
    assert ("f1", "v", "u") not in model.family("q")
    _b_out, routes = decode_d3_t3(instance, model, solve(model, backend))
    assert [r.customers for r in routes] == [("u", "v")]
    t_visit, _ = repair_d3_times(routes, instance)
    ride = instance.travel_minutes(Point(50, 0), Point(52, 2))
    assert latest_departures(routes, instance, t_visit) == {
        "u": pytest.approx(300.0 - ride), "v": pytest.approx(300.0 - ride)}


def test_d3_latest_departure_is_the_chosen_columns_bound(backend):
    """On the dominance seeds, the handoff's latest departure of every d3-t3 route
    is the latest departure L the route DP lists for its column."""
    from transitfreight.generate import generate_instance
    from transitfreight.model_full import enumerate_routes, vehicle_classes
    from test_acceptance import DOMINANCE_SEEDS, _dominance_params

    for seed in DOMINANCE_SEEDS:
        instance = generate_instance(_dominance_params(seed))
        compat, t_first = derive_compatibility(instance), first_trip_times(instance)
        # the DP's inputs as d3-t3 gives them: every route leaves after its stop's first trip
        dp_latest = {}
        for sid, t in t_first.items():
            stop = instance.stop(sid)
            custs = [instance.customer(c) for c in sorted(compat.customers_of_dropout.get(sid, ()))]
            places = {c.id: (c.location, c.service_time) for c in custs}
            visits = [(c.id, (c.id,), c.demand, c.window_lo, c.window_hi,
                       (t + stop.service_time, instance.cost_params.horizon)) for c in custs]
            for g, fleet in vehicle_classes(instance.freighters_of_stop(sid)):
                found = enumerate_routes(instance, stop.location, places, visits, fleet[0].capacity)
                dp_latest.update(((g, *order), latest) for front in found.values()
                                 for _, latest, order, _ in front)
        model = build_d3_t3(instance, compat, t_first)
        result = solve(model, backend)
        assert result.status == "optimal"
        _b_out, routes = decode_d3_t3(instance, model, result)
        t_visit, _ = repair_d3_times(routes, instance)
        latest = latest_departures(routes, instance, t_visit)
        chosen = [idx for idx, q in model.family("q").items() if result.values[q.name] > 0.5]
        assert [r.customers for r in routes] == [idx[1:] for idx in chosen]
        for idx in chosen:
            for cid in idx[1:]:
                assert latest[cid] == pytest.approx(dp_latest[idx], abs=1e-6)


# ---- truck route columns ---------------------------------------------------


def _t1_optimum(instance, handoff, backend) -> float | None:
    """The t1-handoff optimum; None when no covering of the routes exists."""
    try:
        result = solve(build_t1_from_handoff(instance, handoff), backend)
    except ModelBuildError:
        return None
    if result.status == "infeasible":
        return None
    assert result.status == "optimal"
    return result.objective


def _disjoint_pickups(instance, handoff) -> TierHandoff:
    """The handoff with each later package at a stop picked up one dwell cap (plus a minute)
    after the one before it, so no two packages at one stop share a truck visit."""
    t_in, seen = dict(handoff.t_in), {}
    for cust in instance.customers:
        sid = handoff.b_in[cust.id]
        if sid in seen:
            t_in[cust.id] = t_in[seen[sid]] + instance.stop(sid).max_dwell + 1.0
        seen[sid] = cust.id
    return TierHandoff(b_in=handoff.b_in, t_in=t_in)


def _tight_trucks(instance):
    """Two trucks of 70% and 50% of the total demand: neither carries every package."""
    total = sum(c.demand for c in instance.customers)
    return dataclasses.replace(instance, trucks=(Truck("d1", 0.7 * total),
                                                 Truck("d2", 0.5 * total)))


def _short_dwell(instance):
    """Every stop holds a package at most 5 minutes, less than any hop between stops."""
    return dataclasses.replace(instance, stops=tuple(
        dataclasses.replace(stop, max_dwell=5.0) for stop in instance.stops))


def _spread_pickups(instance, handoff) -> TierHandoff:
    """The handoff with the packages dealt round the drop-in stops and picked up at one
    minute: under a short dwell cap, one truck bound for a second stop comes too late."""
    stops = instance.drop_in_stops()
    latest = max(handoff.t_in.values())
    b_in = {c.id: stops[k % len(stops)].id for k, c in enumerate(instance.customers)}
    return TierHandoff(b_in=b_in, t_in={c: latest for c in b_in})


@pytest.mark.parametrize("label_limit,family,count", [(tiers.ROUTE_LABEL_LIMIT, "x1", 20),
                                                      (0, "w", 8)])
def test_truck_stage_matches_the_oracle_on_micro_instances(backend, monkeypatch,
                                                           label_limit, family, count):
    """The t1-handoff optimum equals the brute-force truck layer on every d2 handoff of
    the micro instances: as drawn, with the packages of one stop in disjoint pickup
    windows, with trucks too small to carry every package, and with the packages
    spread over the drop-in stops at one minute under a 5-minute dwell cap. With no
    label budget the stage is built from rows, and must agree all the same (on fewer
    instances: the rows take longer to solve)."""
    from transitfreight.bruteforce import _best_truck_layer

    monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", label_limit)
    assert build_t1_from_handoff(make_micro1(), TierHandoff(
        b_in={"c1": "A"}, t_in={"c1": 150.0})).family(family)
    checked = infeasible = 0
    for instance in generate_micro_instances(count):
        compat = derive_compatibility(instance)
        demands = {c.id: c.demand for c in instance.customers}
        for tag in ("obj1", "obj2", "obj3"):
            t2 = build_d2_t2(instance, compat, T2Objective.parse(tag))
            result = solve(t2, backend)
            assert result.status == "optimal"
            handoff = handoff_from_transit(decode_transit(instance, t2, result))
            for variant, fixed in ((instance, handoff),
                                   (instance, _disjoint_pickups(instance, handoff)),
                                   (_tight_trucks(instance), handoff),
                                   (_short_dwell(instance), _spread_pickups(instance, handoff))):
                pickup = {c: (fixed.b_in[c], fixed.t_in[c]) for c in fixed.b_in}
                oracle = _best_truck_layer(variant, demands, pickup, {})
                optimum = _t1_optimum(variant, fixed, backend)
                if oracle is None:
                    assert optimum is None
                    infeasible += 1
                else:
                    assert optimum == pytest.approx(oracle[0], rel=1e-6)
                    checked += 1
    assert checked >= 5 * count and infeasible >= count // 2


def _moved(stops, placed):
    """Each package at the next of ``stops`` (cyclically) at its unchanged minute."""
    ids = [stop.id for stop in stops]
    return {c: (ids[(ids.index(s) + 1) % len(ids)], t) for c, (s, t) in placed.items()}


def test_oracle_layer_memos_are_safe_to_share(backend):
    """One memo shared by the d2 handoffs of an instance gives what a fresh memo gives.
    Each handoff also comes with its packages at the next stop at unchanged minutes and
    with disjoint pickup windows, so a key that forgets the stop, the drop minutes or the
    truck windows hands back another handoff's result."""
    from transitfreight.bruteforce import _best_freighter_layer, _best_truck_layer

    checked = 0
    for instance in generate_micro_instances(20):
        compat = derive_compatibility(instance)
        demands = {c.id: c.demand for c in instance.customers}
        truck_memo, freighter_memo = {}, {}
        for tag in ("obj1", "obj2", "obj3"):
            t2 = build_d2_t2(instance, compat, T2Objective.parse(tag))
            handoff = handoff_from_transit(decode_transit(instance, t2, solve(t2, backend)))
            disjoint = _disjoint_pickups(instance, handoff)
            pickup = {c: (handoff.b_in[c], handoff.t_in[c]) for c in handoff.b_in}
            drops = {c: (handoff.b_out[c], handoff.t_out[c]) for c in handoff.b_out}
            for fixed in (pickup, _moved(instance.drop_in_stops(), pickup),
                          {c: (disjoint.b_in[c], disjoint.t_in[c]) for c in disjoint.b_in}):
                shared = _best_truck_layer(instance, demands, fixed, truck_memo)
                assert shared == _best_truck_layer(instance, demands, fixed, {})
                checked += shared is not None
            for fixed in (drops, _moved(instance.drop_out_stops(), drops)):
                shared = _best_freighter_layer(instance, demands, fixed, freighter_memo)
                assert shared == _best_freighter_layer(instance, demands, fixed, {})
                checked += shared is not None
    assert checked >= 250


def two_stop_two_truck_fixture() -> Instance:
    """u can only be picked up at A1 and v only at A2; two trucks of ample capacity."""
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(10, 3), True, False, 10.0, 300.0),
               Stop("A2", Point(10, -3), True, False, 10.0, 300.0),
               Stop("B1", Point(50, 5), False, True, 10.0, 300.0),
               Stop("B2", Point(50, -5), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A1", "B1")), Line("L2", ("A2", "B2"))),
        trips=(Trip("p1", "L1", {"A1": 150.0, "B1": 159.0}, 60.0),
               Trip("p2", "L2", {"A2": 150.0, "B2": 159.0}, 60.0)),
        trucks=(Truck("d1", 160.0), Truck("d2", 160.0)),
        freighters=(Freighter("f1", "B1", 20.0), Freighter("f2", "B2", 20.0)),
        customers=(Customer("u", Point(52, 7), 10.0, 200.0, 800.0, 0.0, frozenset({"B1"})),
                   Customer("v", Point(52, -7), 10.0, 200.0, 800.0, 0.0, frozenset({"B2"}))),
    )
    instance.validate()
    return instance


def _cover_u_twice(model):
    """A t1-handoff solution driving the route of u alone and the route of both."""
    columns = model.family("x1")
    pair = next(idx for idx in columns if len(idx) == 5)
    chosen = {columns[("d1", "u", "A1")], columns[pair]}
    values = {var.name: float(var in chosen) for var in model.variables}
    return SolveResult("optimal", values, model.objective_value(values), None, 0.0)


def test_decoder_serves_a_customer_covered_twice_once(backend):
    instance = two_stop_two_truck_fixture()
    handoff = TierHandoff(b_in={"u": "A1", "v": "A2"}, t_in={"u": 150.0, "v": 150.0})
    model = build_t1_from_handoff(instance, handoff)
    routes, arrivals, truck_of = decode_t1(instance, model, _cover_u_twice(model))
    # u rides the first chosen column (its own), so the second route skips A1
    assert truck_of == {"u": "d1", "v": "d2"}
    for cid in ("u", "v"):
        assert sum(handoff.b_in[cid] in route.stops for route in routes) == 1
    assert sorted(route.stops for route in routes) == [("A1",), ("A2",)]
    reach = {sid: instance.travel_minutes(instance.cdc, instance.stop(sid).location) + 10.0
             for sid in ("A1", "A2")}
    assert arrivals.t_truck == {"u": pytest.approx(reach["A1"]), "v": pytest.approx(reach["A2"])}
    assert arrivals.b_in == handoff.b_in  # read from the column index alone

    class CoverTwice(type(backend)):
        def solve(self, model, limits):
            if model.metadata["formulation"] == "t1-handoff":
                return _cover_u_twice(model)
            return super().solve(model, limits)

    plan, _metrics = run_method(instance, RunConfig(method="d2", t2_obj="obj2"), CoverTwice())
    assert validate_plan(instance, plan) == []
    assert sorted(route.stops for route in plan.truck_routes) == [("A1",), ("A2",)]


def test_one_truck_cannot_serve_disjoint_pickup_windows_at_one_stop(backend):
    """Trip capacity puts u and v on trips 150 minutes apart at A, beyond A's 120-minute
    dwell cap; the one truck visits A once, so the truck stage has no plan."""
    instance = dataclasses.replace(
        shared_trip_fixture(),
        trips=(Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 10.0),
               Trip("p2", "L1", {"A": 300.0, "B": 308.0}, 10.0)))
    instance.validate()
    with pytest.raises(PipelineError) as failure:
        run_method(instance, RunConfig(method="d2", t2_obj="obj2"), backend)
    assert (failure.value.stage, failure.value.status) == ("t1", "infeasible")


def test_t1_handoff_names_a_customer_no_truck_can_carry(micro1):
    heavy = dataclasses.replace(micro1, trucks=(Truck("d1", 5.0),))
    handoff = TierHandoff(b_in={"c1": "A"}, t_in={"c1": 150.0})
    with pytest.raises(ModelBuildError, match="customer c1: no truck can bring it to stop A"):
        build_t1_from_handoff(heavy, handoff)


@pytest.mark.parametrize("method,seed,tag", [("d2", 205, "obj3"), ("d2", 217, "obj1"),
                                             ("d2", 217, "obj3"), ("d3", 217, "obj1")])
def test_baseline_truck_stages_are_proven(backend, method, seed, tag):
    """The truck stages that used to stop at the 30 s stage limit end proven optimal."""
    from transitfreight.generate import generate_instance
    from test_acceptance import _baseline_params

    instance = generate_instance(_baseline_params(seed))
    _plan, metrics = run_method(instance, RunConfig(method=method, t2_obj=tag), backend)
    assert [s.status for s in metrics.stages if s.stage == "t1"] == ["optimal"]


def test_truck_stage_builds_rows_when_the_routes_outgrow_the_label_limit():
    """Forty light packages at one stop and one time fit one truck in 2^40 ways: the DP
    gives up within its label budget and the stage is built from per-truck rows."""
    from transitfreight.generate import GenParams, generate_instance

    instance = generate_instance(GenParams(n_customers=40, n_lines=2, seed=1))
    stop = instance.drop_in_stops()[0]
    t_in = instance.travel_minutes(instance.cdc, stop.location) + stop.service_time
    handoff = TierHandoff(b_in={c.id: stop.id for c in instance.customers},
                          t_in={c.id: t_in for c in instance.customers})
    windows = {c.id: {stop.id: (t_in - stop.max_dwell, t_in)} for c in instance.customers}
    assert enumerate_truck_routes(instance, windows, instance.trucks[0].capacity) is None
    model = build_t1_from_handoff(instance, handoff)
    assert model.metadata["formulation"] == "t1-handoff"
    assert model.family("w") and not model.family("x1")


def _d1_t1_optimum(instance, compat, tau, backend) -> float:
    """The d1-t1 optimum. Each decoded package is at one of its stops, within the window
    there."""
    model = build_d1_t1(instance, compat, tau)
    result = solve(model, backend)
    assert result.status == "optimal"
    _routes, handoff, _ = decode_t1(instance, model, result)
    windows = model.metadata["windows"]
    for cid, sid in handoff.b_in.items():
        lo, hi = windows[cid][sid]
        assert lo - 1e-6 <= handoff.t_truck[cid] <= hi + 1e-6
    return result.objective


def test_row_and_column_truck_stages_agree_in_d1_and_d2(backend, monkeypatch):
    """On micro instances the truck stages built from rows and from route columns reach
    the same optimum: d2's t1-handoff, whose decoded plans are valid either way, and
    d1-t1, whose decoded minutes lie in the windows either way."""
    budgets = ((tiers.ROUTE_LABEL_LIMIT, "columns"), (0, "rows"))
    for instance in generate_micro_instances(8):
        compat = derive_compatibility(instance)
        tau = preprocess_midday(instance, compat)
        costs, optima = [], []
        for label_limit, form in budgets:
            monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", label_limit)
            plan, metrics = run_method(instance, RunConfig(method="d2", t2_obj="obj2"), backend)
            assert validate_plan(instance, plan) == []
            assert [s.form for s in metrics.stages if s.stage == "t1"] == [form]
            costs.append(metrics.t1_cost)
            optima.append(_d1_t1_optimum(instance, compat, tau, backend))
        assert costs[1] == pytest.approx(costs[0], rel=1e-6)
        assert optima[1] == pytest.approx(optima[0], rel=1e-6)


def test_d1_t1_columns_reach_the_row_optimum_on_the_dominance_seeds(backend, monkeypatch):
    """On every dominance seed under obj1-obj3, d1's truck stage is built from route
    columns, reaches the optimum of the stage built from rows, and the plan is valid."""
    from transitfreight.generate import generate_instance
    from test_acceptance import DOMINANCE_SEEDS, _dominance_params

    for seed in DOMINANCE_SEEDS:
        instance = generate_instance(_dominance_params(seed))
        compat = derive_compatibility(instance)
        monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", 0)
        optimum = _d1_t1_optimum(instance, compat, preprocess_midday(instance, compat), backend)
        monkeypatch.undo()
        for tag in ("obj1", "obj2", "obj3"):
            plan, metrics = run_method(instance, RunConfig(method="d1", t2_obj=tag), backend)
            assert validate_plan(instance, plan) == []
            t1 = next(s for s in metrics.stages if s.stage == "t1")
            assert (t1.form, t1.status) == ("columns", "optimal")
            assert t1.objective == pytest.approx(optimum, rel=1e-6)
