import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from transitfreight.bruteforce import OracleSizeError, _check_guard
from transitfreight.compat import UnreachableCustomerError, derive_compatibility
from transitfreight.generate import generate_instance
from transitfreight.instance import (
    CostParams,
    Customer,
    Freighter,
    Instance,
    InstanceError,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
    euclidean_distance,
    parse_instance,
    serialize_instance,
    travel_time,
)
from transitfreight.model_full import transit_pairs

from conftest import generate_micro_instances, make_micro1

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.builds(Point, coords, coords)


def test_distance_345_triangle():
    assert euclidean_distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)


def test_distance_identity():
    p = Point(7.25, -3.5)
    assert euclidean_distance(p, p) == 0.0


def test_distance_hand_computed():
    assert euclidean_distance(Point(0, 0), Point(52, 2)) == pytest.approx(
        math.sqrt(52**2 + 2**2))


@given(points, points)
def test_distance_symmetry(a, b):
    assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))
    assert euclidean_distance(a, b) >= 0.0


@given(points, points, points)
def test_distance_triangle_inequality(a, b, c):
    assert euclidean_distance(a, c) <= (
        euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-7)


def test_travel_time_examples():
    params = CostParams()
    assert travel_time(100.0, params) == pytest.approx(20.0)
    assert travel_time(0.0, params) == 0.0
    d = euclidean_distance(Point(0, 0), Point(52, 2))
    assert travel_time(d, params) == pytest.approx(0.2 * d)


# ---- the drop-in map -----------------------------------------------------


def test_micro1_compatibility(micro1):
    assert derive_compatibility(micro1) == {"c1": frozenset({"A"})}


def test_unreachable_customer_is_an_error():
    # the only candidate drop-out is the first stop of the line
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("B", Point(5, 0), False, True, 10.0, 300.0),
               Stop("A", Point(10, 0), True, False, 10.0, 300.0)),
        lines=(Line("L1", ("B", "A")),),
        trips=(Trip("p1", "L1", {"B": 150.0, "A": 155.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 20.0),),
        customers=(Customer("c1", Point(6, 1), 5.0, 200.0, 500.0, 0.0,
                            frozenset({"B"})),),
    )
    instance.validate()
    with pytest.raises(UnreachableCustomerError, match="unreachable"):
        derive_compatibility(instance)


def test_shared_stop_merges_trips_of_both_lines():
    shared = Stop("S", Point(20, 0), False, True, 10.0, 300.0)
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(5, 0), True, False, 10.0, 300.0),
               Stop("A2", Point(5, 5), True, False, 10.0, 300.0),
               shared),
        lines=(Line("L1", ("A1", "S")), Line("L2", ("A2", "S"))),
        trips=(Trip("p1", "L1", {"A1": 150.0, "S": 155.0}, 60.0),
               Trip("p2", "L2", {"A2": 160.0, "S": 166.0}, 60.0)),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "S", 20.0),),
        customers=(Customer("c1", Point(21, 1), 5.0, 200.0, 800.0, 0.0,
                            frozenset({"S"})),),
    )
    instance.validate()
    assert derive_compatibility(instance) == {"c1": frozenset({"A1", "A2"})}


def test_drop_in_map_is_the_union_of_the_transit_pickups():
    """Each customer's entry in the drop-in map is the union over all trips of the pickup
    stops ``transit_pairs`` keeps without predicates, which is where every stage but
    ``d1`` takes its drop-in stops from. Checked on one- and two-line micro draws and
    on the dominance seeds; as in the two-line oracle test, two-line draws past the
    oracle's size guard are left out. Generated lines put every drop-in stop before every
    drop-out stop, so a hand-made line alternates them, and a line no trip runs offers
    a drop-in stop that no package can use."""
    from test_acceptance import DOMINANCE_SEEDS, _dominance_params

    alternating = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(10, 0), True, False, 10.0, 300.0),
               Stop("B1", Point(20, 0), False, True, 10.0, 300.0),
               Stop("A2", Point(30, 0), True, False, 10.0, 300.0),
               Stop("B2", Point(40, 0), False, True, 10.0, 300.0),
               Stop("A3", Point(10, 10), True, False, 10.0, 300.0)),
        lines=(Line("L1", ("A1", "B1", "A2", "B2")), Line("L2", ("A3", "B1"))),
        trips=(Trip("p1", "L1", {"A1": 150.0, "B1": 152.0, "A2": 154.0, "B2": 156.0}, 60.0),),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B1", 20.0), Freighter("f2", "B2", 20.0)),
        customers=(Customer("c1", Point(21, 1), 5.0, 200.0, 800.0, 0.0, frozenset({"B1"})),
                   Customer("c2", Point(41, 1), 5.0, 200.0, 800.0, 0.0, frozenset({"B2"}))),
    )
    alternating.validate()
    assert derive_compatibility(alternating) == {"c1": frozenset({"A1"}),
                                                 "c2": frozenset({"A1", "A2"})}

    two_line = []
    for instance in generate_micro_instances(40, n_lines=2):
        try:
            _check_guard(instance)
        except OracleSizeError:
            continue
        two_line.append(instance)
    assert len(two_line) >= 35
    dominance = [generate_instance(_dominance_params(seed)) for seed in DOMINANCE_SEEDS]
    for instance in [alternating] + generate_micro_instances(40) + two_line + dominance:
        drop_ins = derive_compatibility(instance)
        for cust in instance.customers:
            pickups = {sid for trip in instance.trips
                       for sid in transit_pairs(instance, cust.id, trip.id)[0]}
            assert drop_ins[cust.id] == pickups, cust.id


@given(st.integers(min_value=3, max_value=8), st.data())
def test_line_order_is_transitive(n, data):
    stop_ids = [f"s{i}" for i in range(n)]
    instance_line = Line("L", tuple(stop_ids))
    i, j, k = sorted(data.draw(
        st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)))
    order = instance_line.ordered_stops

    def precedes(a, b):
        return order.index(a) < order.index(b)

    if precedes(stop_ids[i], stop_ids[j]) and precedes(stop_ids[j], stop_ids[k]):
        assert precedes(stop_ids[i], stop_ids[k])


# ---- serialization -----------------------------------------------------


def test_round_trip_is_identity(micro1):
    text = serialize_instance(micro1)
    again = parse_instance(text)
    assert again == micro1
    assert serialize_instance(again) == text


def test_instance_document_layout(micro1):
    """Records list their dataclass's fields in declaration order; reordering a
    field changes the format, so the order is pinned here."""
    doc = json.loads(serialize_instance(micro1))
    assert list(doc) == ["schema", "cdc", "stops", "lines", "trips", "trucks", "freighters",
                         "customers", "cost_params"]
    assert list(doc["cdc"]) == ["x", "y"]
    assert list(doc["stops"][0]) == ["id", "location", "is_drop_in", "is_drop_out",
                                     "service_time", "max_dwell"]
    assert list(doc["lines"][0]) == ["id", "ordered_stops"]
    assert list(doc["trips"][0]) == ["id", "line", "stop_times", "capacity"]
    assert list(doc["trucks"][0]) == ["id", "capacity"]
    assert list(doc["freighters"][0]) == ["id", "home_stop", "capacity"]
    assert list(doc["customers"][0]) == ["id", "location", "demand", "window_lo", "window_hi",
                                         "service_time", "dropout_candidates"]
    assert list(doc["cost_params"]) == [
        "truck_cost_per_distance", "freighter_cost_scale", "time_per_distance", "t_mid_day",
        "period_length", "period_count"]


def test_missing_cost_param_is_named():
    """A cost parameter with a default is still required in a document."""
    doc = json.loads(serialize_instance(make_micro1()))
    del doc["cost_params"]["t_mid_day"]
    with pytest.raises(InstanceError, match="cost_params: missing field t_mid_day"):
        parse_instance(json.dumps(doc))


def test_older_cost_params_are_read_and_ignored(micro1):
    """Documents written while the cost parameters held a big-M and a service-cost
    scale still parse; both keys are ignored."""
    doc = json.loads(serialize_instance(micro1))
    doc["cost_params"].update(big_M=1000.0, service_cost_mu=0.5)
    assert parse_instance(json.dumps(doc)) == micro1


def test_missing_trips_field():
    import json
    doc = json.loads(serialize_instance(make_micro1()))
    del doc["trips"]
    with pytest.raises(InstanceError, match="missing field trips"):
        parse_instance(json.dumps(doc))


def test_decreasing_stop_times_rejected():
    import json
    doc = json.loads(serialize_instance(make_micro1()))
    doc["trips"][0]["stop_times"] = {"A": 150.0, "B": 140.0}
    with pytest.raises(InstanceError, match="stop_times not increasing"):
        parse_instance(json.dumps(doc))


def test_schema_tag_checked():
    import json
    doc = json.loads(serialize_instance(make_micro1()))
    doc["schema"] = "something-else"
    with pytest.raises(InstanceError, match="unsupported schema"):
        parse_instance(json.dumps(doc))


def test_invariant_messages():
    with pytest.raises(InstanceError, match="neither drop-in nor drop-out"):
        Instance(
            cdc=Point(0, 0),
            stops=(Stop("A", Point(1, 0), False, False, 0.0, 0.0),
                   Stop("B", Point(2, 0), False, True, 0.0, 0.0)),
            lines=(Line("L", ("A", "B")),),
            trips=(Trip("p", "L", {"A": 1.0, "B": 2.0}, 10.0),),
            trucks=(Truck("d", 10.0),),
            freighters=(Freighter("f", "B", 10.0),),
            customers=(Customer("c", Point(0, 0), 1.0, 0.0, 10.0, 0.0,
                                frozenset({"B"})),),
        ).validate()

    bad_window = make_micro1()
    from dataclasses import replace
    broken = replace(bad_window, customers=(
        replace(bad_window.customers[0], window_lo=500.0, window_hi=400.0),))
    with pytest.raises(InstanceError, match="window_lo"):
        broken.validate()

    no_freighter = replace(make_micro1(), freighters=())
    with pytest.raises(InstanceError, match="no freighter"):
        no_freighter.validate()

    micro = make_micro1()
    (a, b), (line,), p1 = micro.stops, micro.lines, micro.trips[0]
    f1, c1 = micro.freighters[0], micro.customers[0]

    def relined(*stops):
        return replace(micro, lines=(replace(line, ordered_stops=stops),))

    def candidates(*stops):
        return replace(micro, customers=(replace(c1, dropout_candidates=frozenset(stops)),))

    broken = {
        "stop id 'o' is reserved for the CDC nodes": replace(micro, stops=(replace(a, id="o"), b)),
        "stop id 'o~' is reserved for the CDC nodes": replace(micro, stops=(a, replace(b, id="o~"))),
        "line L1 has fewer than 2 stops": relined("A"),
        "line L1 repeats a stop": relined("A", "B", "A"),
        "line L1 references unknown stop Z": relined("A", "Z"),
        "trip p1 references unknown line L9": replace(micro, trips=(replace(p1, line="L9"),)),
        "trip p1: stop_times do not cover line L1": replace(
            micro, trips=(replace(p1, stop_times={"A": 150.0}),)),
        "freighter f1: home_stop A is not a drop-out stop": replace(
            micro, freighters=(replace(f1, home_stop="A"),)),
        "customer c1: dropout_candidates empty": candidates(),
        "customer c1: candidate A is not a drop-out stop": candidates("A", "B"),
    }
    for message, instance in broken.items():
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            instance.validate()


@pytest.mark.parametrize("name, value, least", [
    ("truck_cost_per_distance", -1.0, "nonnegative"),
    ("freighter_cost_scale", -1.0, "nonnegative"),
    ("freighter_cost_scale", math.nan, "nonnegative"),
    ("time_per_distance", math.inf, "nonnegative"),
    ("t_mid_day", math.nan, "nonnegative"),
    ("t_mid_day", math.inf, "nonnegative"),
    ("t_mid_day", -1.0, "nonnegative"),
    ("period_length", 0.0, "positive"),
    ("period_count", 0, "positive")])
def test_cost_params_out_of_range_are_named(name, value, least):
    """A negative cost scale would price a plan below the optimum; the document is
    refused, naming the field."""
    doc = json.loads(serialize_instance(make_micro1()))
    doc["cost_params"][name] = value
    with pytest.raises(InstanceError, match=f"cost_params: {name} .* is not finite and {least}"):
        parse_instance(json.dumps(doc))


# every number an instance holds and the range it must lie in besides being finite:
# (instance field, micro1's first record there, field, range)
_RANGED_FIELDS = [
    ("cdc", "cdc", "x", "finite"),
    ("cdc", "cdc", "y", "finite"),
    ("stops", "stop A", "location.x", "finite"),
    ("stops", "stop A", "service_time", "nonnegative"),
    ("stops", "stop A", "max_dwell", "nonnegative"),
    ("trips", "trip p1", "stop_times.B", "finite"),
    ("trips", "trip p1", "capacity", "positive"),
    ("trucks", "truck d1", "capacity", "positive"),
    ("freighters", "freighter f1", "capacity", "positive"),
    ("customers", "customer c1", "location.y", "finite"),
    ("customers", "customer c1", "demand", "positive"),
    ("customers", "customer c1", "window_lo", "finite"),
    ("customers", "customer c1", "window_hi", "finite"),
    ("customers", "customer c1", "service_time", "nonnegative"),
] + [("cost_params", "cost_params", name, rule) for name, rule in (
    ("truck_cost_per_distance", "nonnegative"), ("freighter_cost_scale", "nonnegative"),
    ("time_per_distance", "nonnegative"), ("t_mid_day", "nonnegative"),
    ("period_length", "positive"), ("period_count", "positive"))]
_OUT_OF_RANGE = {"finite": (), "nonnegative": (-1.0,), "positive": (0.0,)}


def _with_number(instance, records, name, value):
    """``instance`` with field ``name`` of its first ``records`` record, or of its CDC or
    cost parameters, set to ``value``; ``stop_times.<stop>`` names one scheduled minute
    and ``location.x`` one coordinate."""
    if records in ("cdc", "cost_params"):
        return replace(instance, **{records: _with_field(getattr(instance, records), name, value)})
    first, *rest = getattr(instance, records)
    return replace(instance, **{records: (_with_field(first, name, value), *rest)})


def _with_field(record, name, value):
    outer, _, inner = name.partition(".")
    if inner:
        held = getattr(record, outer)
        value = ({**held, inner: value} if isinstance(held, dict)
                 else replace(held, **{inner: value}))
    return replace(record, **{outer: value})


@pytest.mark.parametrize("records, record, name, rule, value", [
    pytest.param(records, record, name, rule, value, id=f"{records}-{name}-{value}")
    for records, record, name, rule in _RANGED_FIELDS
    for value in (math.nan, math.inf, -math.inf, *_OUT_OF_RANGE[rule])])
def test_every_number_must_be_finite_and_in_its_range(records, record, name, rule, value):
    """Each number of each record is refused when it is NaN, infinite or out of its range,
    by ``Instance.validate`` and by the reader, naming the record and the field: a NaN
    stop service time, say, would plan and price a plan at a wrong total."""
    broken = _with_number(make_micro1(), records, name, value)
    least = "" if rule == "finite" else f" and {rule}"
    with pytest.raises(InstanceError, match=re.escape(
            f"{record}: {name} {value!r} is not finite{least}")):
        broken.validate()
    # the reader refuses a whole-number field that is not a whole number by its path
    with pytest.raises(InstanceError, match=f"^{re.escape(record)}(: |\\.){re.escape(name)}\\b"):
        parse_instance(serialize_instance(broken))


def test_ids_are_unique_and_customers_name_no_stop_or_cdc_node():
    from dataclasses import replace
    micro = make_micro1()
    c1, p1, d1, f1 = micro.customers[0], micro.trips[0], micro.trucks[0], micro.freighters[0]
    broken = {
        "duplicate customer id c1": replace(micro, customers=(c1, replace(c1, location=Point(55, 0)))),
        "duplicate line id L1": replace(micro, lines=micro.lines * 2),
        "duplicate trip id p1": replace(micro, trips=(p1, replace(p1, capacity=30.0))),
        "duplicate truck id d1": replace(micro, trucks=(d1, d1)),
        "duplicate freighter id f1": replace(micro, freighters=(f1, f1)),
    }
    for cid in ("A", "B", "o", "o~"):
        broken[f"customer id '{cid}' names a stop or a CDC node"] = replace(
            micro, customers=(replace(c1, id=cid),))
    for message, instance in broken.items():
        with pytest.raises(InstanceError, match=message):
            instance.validate()
