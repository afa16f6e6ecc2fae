from dataclasses import replace
import math

import numpy as np
import pytest

from transitfreight.compat import derive_compatibility
from transitfreight.generate import (
    GenerationError,
    GenParams,
    NoProfitableLinesError,
    assign_dropouts,
    candidate_radius,
    filter_lines,
    generate_instance,
    generate_network,
    generate_time_windows,
    patch_orphan_dropouts,
    size_fleets,
    truck_band,
)
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
    serialize_instance,
)



def test_deterministic_given_seed():
    params = GenParams(n_customers=5, n_lines=2, seed=123, trips_per_line=4)
    a = generate_instance(params)
    b = generate_instance(params)
    assert serialize_instance(a) == serialize_instance(b)


def test_different_seeds_differ():
    a = generate_instance(GenParams(n_customers=5, n_lines=2, seed=1, trips_per_line=4))
    b = generate_instance(GenParams(n_customers=5, n_lines=2, seed=2, trips_per_line=4))
    assert serialize_instance(a) != serialize_instance(b)


def test_single_line_request():
    inst = generate_instance(GenParams(n_customers=4, n_lines=1, seed=7, trips_per_line=3))
    assert len(inst.lines) == 1


def test_six_stop_lines_have_both_roles():
    rng = np.random.default_rng(5)
    _cdc, stops, lines = generate_network(
        GenParams(n_customers=10, n_lines=4, stops_per_line=(6, 6), seed=5), rng)
    by_id = {s.id: s for s in stops}
    for line in lines:
        assert len(line.ordered_stops) == 6
        kinds = [("in" if by_id[s].is_drop_in else "out") for s in line.ordered_stops]
        assert "in" in kinds and "out" in kinds
        assert kinds[0] == "in"  # every drop-out has a pickup stop before it


def test_trip_count_defaults():
    assert GenParams(n_customers=50, n_lines=1).resolved_trips_per_line() == 15
    assert GenParams(n_customers=51, n_lines=1).resolved_trips_per_line() == 18
    assert GenParams(n_customers=10, n_lines=1,
                     trips_per_line=4).resolved_trips_per_line() == 4
    # no trip would reach any customer
    with pytest.raises(GenerationError, match="trips_per_line must be positive"):
        GenParams(n_customers=10, n_lines=1, trips_per_line=0)


@pytest.mark.parametrize("box", [(0.0, 0.0), (math.nan, 100.0), (100.0, math.inf),
                                 (-100.0, 100.0)])
def test_a_box_needs_two_positive_finite_sides(box):
    # an empty box drew 60 networks before failing, and a NaN or infinite side
    # broke the network or customer draws
    with pytest.raises(GenerationError, match="two positive finite sides"):
        GenParams(n_customers=4, n_lines=1, box=box)


# ---- line filtering -------------------------------------------------------


def line_with(cdc, din_dist, dout_dist, tag):
    stops = [
        Stop(f"{tag}i", Point(din_dist, 0.0), True, False, 10.0, 300.0),
        Stop(f"{tag}o", Point(dout_dist, 0.0), False, True, 10.0, 300.0),
    ]
    return stops, Line(tag, (f"{tag}i", f"{tag}o"))


def test_filter_keeps_profitable_line():
    cdc = Point(0, 0)
    stops, line = line_with(cdc, 1.0, 5.0, "L")
    kept_stops, kept_lines = filter_lines((stops, [line]), cdc)
    assert kept_lines == [line]


def test_filter_removes_inverted_line():
    cdc = Point(0, 0)
    stops, line = line_with(cdc, 5.0, 1.0, "L")
    with pytest.raises(NoProfitableLinesError):
        filter_lines((stops, [line]), cdc)


def test_filter_six_lines_three_survive():
    cdc = Point(0, 0)
    all_stops, lines = [], []
    spec = [(1, 5), (5, 1), (2, 8), (8, 2), (3, 9), (9, 3)]  # alternating good/bad
    for i, (din, dout) in enumerate(spec):
        stops, line = line_with(cdc, float(din), float(dout), f"L{i}")
        all_stops.extend(stops)
        lines.append(line)
    kept_stops, kept_lines = filter_lines((all_stops, lines), cdc)
    assert [l.id for l in kept_lines] == ["L0", "L2", "L4"]
    assert {s.id for s in kept_stops} == {"L0i", "L0o", "L2i", "L2o", "L4i", "L4o"}


def test_filter_is_a_fixpoint():
    cdc = Point(0, 0)
    all_stops, lines = [], []
    for i, (din, dout) in enumerate([(1, 5), (5, 1), (2, 8)]):
        stops, line = line_with(cdc, float(din), float(dout), f"L{i}")
        all_stops.extend(stops)
        lines.append(line)
    once = filter_lines((all_stops, lines), cdc)
    twice = filter_lines(once, cdc)
    assert once == twice


# ---- candidate assignment --------------------------------------------------


def test_radius_on_two_stop_network():
    stops = [Stop("a", Point(0, 0), True, False, 10.0, 300.0),
             Stop("b", Point(10, 0), False, True, 10.0, 300.0)]
    assert candidate_radius(stops) == pytest.approx(30.0)


def test_assign_within_radius():
    # five clustered drop-ins pull the mean pairwise distance down so the
    # radius (307.5 here) covers the two near drop-outs but not the far one
    stops = [Stop(f"a{x}", Point(float(x), 0), True, False, 10.0, 300.0)
             for x in (0, 2, 4, 6, 8)]
    stops += [
        Stop("o1", Point(10, 0), False, True, 10.0, 300.0),
        Stop("o2", Point(12, 0), False, True, 10.0, 300.0),
        Stop("o3", Point(400, 0), False, True, 10.0, 300.0),
    ]
    assert candidate_radius(stops) == pytest.approx(307.5)
    cust = Customer("c", Point(11, 0), 5.0, 60.0, 400.0, 0.0, frozenset())
    [assigned] = assign_dropouts([cust], stops)
    assert assigned.dropout_candidates == frozenset({"o1", "o2"})


def test_assign_falls_back_to_three_nearest():
    stops = [
        Stop("a", Point(0, 0), True, False, 10.0, 300.0),
        Stop("o1", Point(2, 0), False, True, 10.0, 300.0),
        Stop("o2", Point(4, 0), False, True, 10.0, 300.0),
        Stop("o3", Point(6, 0), False, True, 10.0, 300.0),
        Stop("o4", Point(8, 0), False, True, 10.0, 300.0),
    ]
    cust = Customer("c", Point(1000, 0), 5.0, 60.0, 400.0, 0.0, frozenset())
    [assigned] = assign_dropouts([cust], stops)
    assert assigned.dropout_candidates == frozenset({"o2", "o3", "o4"})


# ---- orphan patching --------------------------------------------------------


def orphan_fixture(n_orphans: int) -> Instance:
    stops = [Stop("A", Point(10, 0), True, False, 10.0, 300.0)]
    dropouts = []
    for i in range(n_orphans + 1):
        sid = f"B{i}"
        stops.append(Stop(sid, Point(50, 10 * i), False, True, 10.0, 300.0))
        dropouts.append(sid)
    line = Line("L1", tuple(["A"] + dropouts))
    times = {"A": 150.0}
    for i, sid in enumerate(dropouts):
        times[sid] = 152.0 + 2 * i
    inst = Instance(
        cdc=Point(0, 0), stops=tuple(stops), lines=(line,),
        trips=(Trip("p1", "L1", times, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=tuple(Freighter(f"f{i}", sid, 20.0) for i, sid in enumerate(dropouts)),
        customers=(Customer("c1", Point(50, 1), 10.0, 200.0, 800.0, 0.0,
                            frozenset({"B0"})),),
    )
    inst.validate()
    return inst


def test_patch_single_orphan():
    inst = orphan_fixture(1)
    rng = np.random.default_rng(0)
    patched = patch_orphan_dropouts(inst, rng)
    assert len(patched.customers) == 2
    new = patched.customers[-1]
    assert "B1" in new.dropout_candidates
    assert len(new.dropout_candidates) <= 3
    # injected customer sits close to the orphan stop
    assert euclidean_distance(new.location, inst.stop("B1").location) < 10.0


def test_patch_no_orphans_is_identity():
    inst = orphan_fixture(0)
    rng = np.random.default_rng(0)
    assert patch_orphan_dropouts(inst, rng) == inst


def test_patch_two_orphans_adds_two():
    inst = orphan_fixture(2)
    rng = np.random.default_rng(0)
    patched = patch_orphan_dropouts(inst, rng)
    assert len(patched.customers) == 3


# ---- windows and fleets -----------------------------------------------------


def test_window_bounds_hold():
    rng = np.random.default_rng(99)
    windows = generate_time_windows(300, rng)
    for lo, hi in windows:
        assert hi - lo >= 180.0
        assert lo >= 60.0
        assert hi <= 900.0


def test_truck_bands_follow_fleet_tiers():
    assert truck_band(10) == 5
    assert truck_band(20) == 5
    assert truck_band(30) == 8
    assert truck_band(40) == 8
    assert truck_band(50) == 10
    assert truck_band(60) == 14
    assert truck_band(80) == 14


def test_fleet_sizing_max_rule():
    # three drop-out stops serving 3, 5, and 2 customers
    stops = [Stop("A", Point(10, 0), True, False, 10.0, 300.0)]
    outs = ["B1", "B2", "B3"]
    for i, sid in enumerate(outs):
        stops.append(Stop(sid, Point(50 + i, 0), False, True, 10.0, 300.0))
    line = Line("L1", tuple(["A"] + outs))
    times = {"A": 150.0, "B1": 152.0, "B2": 154.0, "B3": 156.0}
    counts = {"B1": 3, "B2": 5, "B3": 2}
    customers = []
    idx = 0
    for sid, k in counts.items():
        for _ in range(k):
            idx += 1
            customers.append(Customer(
                f"c{idx}", Point(50, idx), 10.0, 200.0, 800.0, 0.0, frozenset({sid})))
    inst = Instance(
        cdc=Point(0, 0), stops=tuple(stops), lines=(line,),
        trips=(Trip("p1", "L1", times, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=tuple(Freighter(f"f{sid}", sid, 20.0) for sid in outs),
        customers=tuple(customers))
    inst.validate()
    n_trucks, per_stop = size_fleets(inst)
    assert per_stop == 5
    assert n_trucks == 5  # band for 10 customers


def test_truck_count_covers_demand():
    # total demand 200 with 160-unit trucks needs at least 2
    inst = orphan_fixture(0)
    heavy = replace(inst, customers=tuple(
        replace(inst.customers[0], id=f"c{i}", demand=100.0) for i in range(2)))
    n_trucks, _ = size_fleets(heavy)
    assert n_trucks >= 2


def test_generated_instances_reachable_and_valid():
    for seed in range(12):
        inst = generate_instance(GenParams(
            n_customers=4 + seed % 3, n_lines=1 + seed % 2, seed=seed,
            trips_per_line=3))
        inst.validate()
        derive_compatibility(inst)  # raises if anyone is unreachable
        per_stop = {}
        for k in inst.freighters:
            per_stop[k.home_stop] = per_stop.get(k.home_stop, 0) + 1
        worst = max(sum(s.id in c.dropout_candidates for c in inst.customers)
                    for s in inst.drop_out_stops())
        assert all(n >= worst for n in per_stop.values())
        assert sum(c.demand for c in inst.customers) <= sum(d.capacity for d in inst.trucks)
