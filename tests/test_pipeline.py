import json
import math
import re
from dataclasses import replace

import pytest

from transitfreight import model_full, pipeline, tiers, validate
from transitfreight.generate import GenParams, generate_instance
from transitfreight.instance import (
    Customer, Freighter, Instance, Line, Point, Stop, Trip, Truck, parse_instance,
    serialize_instance, with_beta)
from transitfreight.milp import CONTINUOUS, ModelError
from transitfreight.pipeline import (
    PipelineError,
    RunConfig,
    compare_methods,
    run_method,
)
from transitfreight.plan import (HANDOFF_SCHEMA, PlanError, parse_handoff, parse_plan,
                                 serialize_handoff, serialize_plan)
from transitfreight.validate import validate_plan

from conftest import MICRO1_TOTAL, MICRO1_VRPTW, generate_micro_instances, make_micro1


def test_config_validation():
    with pytest.raises(ModelError):
        RunConfig(method="warp")
    with pytest.raises(ModelError):
        RunConfig(method="d2")  # transit objective required
    with pytest.raises(ModelError):
        RunConfig(method="d3", t2_obj="obj3")  # rejected combination
    with pytest.raises(ModelError):
        RunConfig(method="d2", t2_obj="obj2", mu=0.5)  # service costs are FULL-only
    assert RunConfig(method="full").label() == "full"
    assert RunConfig(method="d2", t2_obj="obj1").label() == "d2-obj1"


def test_stage_seconds_accept_only_known_stage_kinds():
    # a misspelt kind would otherwise leave that stage at its default limit
    with pytest.raises(ModelError, match="'ful'"):
        RunConfig(method="full", stage_seconds={"ful": 5.0})
    assert RunConfig(method="full", stage_seconds={"full": 5.0}).limits["full"].time_limit == 5.0


def test_run_d2_matches_full_on_micro1(backend, micro1):
    plan_full, metrics_full = run_method(micro1, RunConfig(method="full"), backend)
    plan_d2, metrics_d2 = run_method(
        micro1, RunConfig(method="d2", t2_obj="obj2"), backend)
    assert metrics_full.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)
    assert metrics_d2.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)
    assert metrics_full.total <= metrics_d2.total + 1e-6
    assert validate_plan(micro1, plan_d2) == []
    assert metrics_d2.trucks_used == 1
    assert metrics_d2.freighters_used == 1
    assert metrics_d2.trips_used == 1
    assert metrics_d2.packages_per_truck == pytest.approx(1.0)
    stages = [s.stage for s in metrics_d2.stages]
    assert stages == ["t2", "t1", "t3[B]"]


def test_run_vrptw_micro1(backend, micro1):
    _plan, metrics = run_method(micro1, RunConfig(method="vrptw"), backend)
    assert metrics.total == pytest.approx(MICRO1_VRPTW, abs=1e-4)
    assert metrics.t3_cost == 0.0


def test_d1_and_d3_fail_structurally_on_micro1(backend, micro1):
    # the half-day rule pins the package after the last trip
    with pytest.raises(PipelineError) as exc1:
        run_method(micro1, RunConfig(method="d1", t2_obj="obj2"), backend)
    assert exc1.value.stage == "t2"
    # the repair pins the drop-out time past every trip's reach
    with pytest.raises(PipelineError) as exc3:
        run_method(micro1, RunConfig(method="d3", t2_obj="obj2"), backend)
    assert exc3.value.stage == "t2"


def test_d3_succeeds_with_a_late_trip(backend):
    late = make_micro1(extra_trip_time=550.0)
    plan, metrics = run_method(late, RunConfig(method="d3", t2_obj="obj2"), backend)
    assert validate_plan(late, plan) == []
    assert metrics.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)
    it = plan.itinerary_of("c1")
    assert it.trip == "p3"  # the only trip inside the repaired dwell window


def test_d1_succeeds_with_a_late_trip(backend):
    late = make_micro1(extra_trip_time=550.0)
    plan, metrics = run_method(late, RunConfig(method="d1", t2_obj="obj2"), backend)
    assert validate_plan(late, plan) == []
    assert metrics.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)


@pytest.mark.parametrize("text, names", [
    pytest.param("{", "not valid JSON", id="not-json"),
    pytest.param("[]", "top level: expected an object", id="a-list"),
    pytest.param(json.dumps({"schema": HANDOFF_SCHEMA, "t_in": []}),
                 "t_in: expected an object", id="map-a-list"),
    pytest.param(json.dumps({"schema": HANDOFF_SCHEMA, "t_in": {"c1": None}}),
                 "t_in.c1: expected a number", id="time-null"),
    pytest.param(json.dumps({"schema": HANDOFF_SCHEMA, "tau": [{"customer": "c1", "half": 1}]}),
                 "tau[0]: missing field stop", id="tau-without-stop"),
])
def test_malformed_handoff_is_a_plan_error(text, names):
    with pytest.raises(PlanError, match=re.escape(names)):
        parse_handoff(text)


def test_d1_truck_handoff_carries_truck_times(backend, tmp_path):
    late = make_micro1(extra_trip_time=550.0)
    plan, _metrics = run_method(late, RunConfig(method="d1", t2_obj="obj2"), backend,
                                artifacts_dir=tmp_path)
    handoff = parse_handoff((tmp_path / "handoff-t1.json").read_text())
    assert handoff.t_in == {}  # no trip is chosen before the transit stage
    at_stop = {(r.truck, s): t for r in plan.truck_routes for s, t in zip(r.stops, r.times)}
    assert handoff.t_truck == {it.customer: at_stop[(it.truck, it.drop_in_stop)]
                               for it in plan.itineraries}
    assert parse_handoff(serialize_handoff(handoff)) == handoff


def test_determinism(backend, micro1):
    _p1, m1 = run_method(micro1, RunConfig(method="d2", t2_obj="obj2"), backend)
    _p2, m2 = run_method(micro1, RunConfig(method="d2", t2_obj="obj2"), backend)
    assert m1.total == pytest.approx(m2.total, abs=1e-9)
    assert m1.t1_cost == pytest.approx(m2.t1_cost, abs=1e-9)


def test_artifacts_written(backend, micro1, tmp_path):
    art = tmp_path / "run"
    plan, _metrics = run_method(
        micro1, RunConfig(method="d2", t2_obj="obj2"), backend, artifacts_dir=art)
    assert (art / "instance.json").exists()
    assert (art / "plan.json").exists()
    assert (art / "metrics.json").exists()
    handoff = parse_handoff((art / "handoff-t2.json").read_text())
    assert handoff.b_in == {"c1": "A"}
    reloaded = parse_plan((art / "plan.json").read_text())
    assert reloaded == plan
    metrics_doc = json.loads((art / "metrics.json").read_text())
    assert metrics_doc["method"] == "d2"


def test_metrics_record_stage_model_size_and_bound(backend, micro1, tmp_path):
    for config, stages in ((RunConfig(method="vrptw"), ["vrptw"]),
                           (RunConfig(method="d2", t2_obj="obj2"), ["t2", "t1", "t3[B]"])):
        art = tmp_path / config.label()
        run_method(micro1, config, backend, artifacts_dir=art)
        doc = json.loads((art / "metrics.json").read_text())
        assert [s["stage"] for s in doc["stages"]] == stages
        for stage in doc["stages"]:
            assert stage["status"] == "optimal"
            assert stage["vars"] > 0 and stage["cons"] > 0 and stage["nnz"] >= stage["cons"]
            assert stage["best_bound"] == pytest.approx(stage["objective"], rel=1e-5, abs=1e-6)
            assert stage["message"]


def test_metrics_record_stage_build_time_and_gap(backend, micro1, tmp_path):
    art = tmp_path / "d2"
    _plan, metrics = run_method(micro1, RunConfig(method="d2", t2_obj="obj2"), backend,
                                artifacts_dir=art)
    doc = json.loads((art / "metrics.json").read_text())
    assert [s["stage"] for s in doc["stages"]] == ["t2", "t1", "t3[B]"]
    for stage, recorded in zip(metrics.stages, doc["stages"]):
        assert recorded["build_time"] == stage.build_time > 0.0
        assert recorded["gap"] == stage.gap
        expected = (stage.objective - stage.best_bound) / max(1.0, abs(stage.objective))
        assert stage.gap == pytest.approx(expected, abs=1e-12)
        assert -1e-9 <= stage.gap <= 1e-5

    _plan, unbounded = run_method(micro1, RunConfig(method="d2", t2_obj="obj2"),
                                  _BoundlessBackend(backend))
    assert [s.gap for s in unbounded.stages] == [None, None, None]


class _ResultRecordingBackend:
    """Solves through another backend and keeps every result."""

    def __init__(self, backend):
        self._backend = backend
        self.results = []

    def solve(self, model, limits):
        self.results.append(self._backend.solve(model, limits))
        return self.results[-1]


def test_metrics_record_each_stage_node_count(backend, micro1, tmp_path):
    for config in (RunConfig(method="full"), RunConfig(method="d2", t2_obj="obj2")):
        recorder = _ResultRecordingBackend(backend)
        art = tmp_path / config.label()
        _plan, metrics = run_method(micro1, config, recorder, artifacts_dir=art)
        nodes = [result.nodes for result in recorder.results]
        assert all(isinstance(n, int) and n >= 0 for n in nodes)
        assert [stage.nodes for stage in metrics.stages] == nodes
        doc = json.loads((art / "metrics.json").read_text())
        assert [stage["nodes"] for stage in doc["stages"]] == nodes


class _LimitRecordingBackend:
    """Solves through another backend and keeps the limits each solve was given."""

    def __init__(self, backend):
        self._backend = backend
        self.limits = []

    def solve(self, model, limits):
        self.limits.append(limits)
        return self._backend.solve(model, limits)


def test_metrics_record_the_time_limit_handed_to_the_backend(backend, micro1, tmp_path):
    seconds = {"full": 41.0, "first": 42.0, "other": 43.0, "per_stop": 44.0}
    for config, expected in (
            (RunConfig(method="d2", t2_obj="obj2", stage_seconds=seconds), [43.0, 43.0, 44.0]),
            (RunConfig(method="vrptw", stage_seconds=seconds), [41.0])):
        recorder = _LimitRecordingBackend(backend)
        art = tmp_path / config.label()
        _plan, metrics = run_method(micro1, config, recorder, artifacts_dir=art)
        assert [limits.time_limit for limits in recorder.limits] == expected
        assert [stage.time_limit for stage in metrics.stages] == expected
        doc = json.loads((art / "metrics.json").read_text())
        assert [stage["time_limit"] for stage in doc["stages"]] == expected


def test_metrics_name_the_form_of_each_stage(backend, micro1, tmp_path, monkeypatch):
    """Each stage reads ``columns`` when its vehicles run enumerated route columns and
    ``rows`` otherwise, in ``metrics.json`` too; past the label budget the truck stage
    reads ``rows``."""
    from transitfreight import tiers

    late, budget = make_micro1(extra_trip_time=550.0), tiers.ROUTE_LABEL_LIMIT
    for instance, config, limit, expected in (
            (micro1, RunConfig(method="full"), budget, ["rows"]),
            (micro1, RunConfig(method="vrptw"), budget, ["rows"]),
            (micro1, RunConfig(method="d2", t2_obj="obj2"), budget, ["rows", "columns", "columns"]),
            (micro1, RunConfig(method="d2", t2_obj="obj2"), 0, ["rows", "rows", "columns"]),
            (late, RunConfig(method="d1", t2_obj="obj2"), budget, ["columns", "rows", "columns"]),
            (late, RunConfig(method="d3", t2_obj="obj2"), budget, ["columns", "rows", "columns"])):
        monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", limit)
        art = tmp_path / f"{config.label()}-{limit}"
        _plan, metrics = run_method(instance, config, backend, artifacts_dir=art)
        assert [stage.form for stage in metrics.stages] == expected
        doc = json.loads((art / "metrics.json").read_text())
        assert [stage["form"] for stage in doc["stages"]] == expected


class _BoundlessBackend:
    """Solves correctly but reports no best bound."""

    def __init__(self, backend):
        self._backend = backend

    def solve(self, model, limits):
        return replace(self._backend.solve(model, limits), best_bound=None)


def test_beta_override_scales_freighter_cost(backend, micro1):
    _plan, base = run_method(micro1, RunConfig(method="d2", t2_obj="obj2"), backend)
    _plan, scaled = run_method(
        micro1, RunConfig(method="d2", t2_obj="obj2", beta=1.0), backend)
    assert scaled.t3_cost == pytest.approx(2 * base.t3_cost, abs=1e-6)
    assert scaled.t1_cost == pytest.approx(base.t1_cost, abs=1e-6)


def test_compare_methods_records_failures(backend, micro1):
    rows = compare_methods(
        [("micro1", micro1)],
        [RunConfig(method="full"),
         RunConfig(method="d2", t2_obj="obj2"),
         RunConfig(method="d3", t2_obj="obj2"),  # fails structurally here
         RunConfig(method="vrptw")],
        backend)
    by_label = {r.label(): r for r in rows}
    assert by_label["full"].status == "ok"
    assert by_label["d2-obj2"].status == "ok"
    assert by_label["d3-obj2"].status == "failed"
    assert "t2" in by_label["d3-obj2"].error
    assert by_label["vrptw"].status == "ok"
    # deviations: best total gets 0, everything else nonnegative
    ok_rows = [r for r in rows if r.status == "ok"]
    assert min(r.deviation_pct for r in ok_rows) == pytest.approx(0.0, abs=1e-9)
    assert all(r.deviation_pct >= -1e-9 for r in ok_rows)


def test_an_invalid_instance_fails_at_its_own_stage(backend, micro1):
    twice = replace(micro1, customers=micro1.customers * 2)  # two customers named c1
    with pytest.raises(PipelineError) as exc:
        run_method(twice, RunConfig(method="vrptw"), backend)
    assert exc.value.stage == "instance"
    assert "duplicate customer id c1" in exc.value.cause
    rows = compare_methods([("twice", twice)], [RunConfig(method="vrptw")], backend)
    assert [(r.status, r.error) for r in rows] == [
        ("failed", "[instance] duplicate customer id c1")]


class _FractionalBackend:
    """Solves as ``backend`` does, but hands back 0.5 for the first ``r`` variable."""

    def __init__(self, backend):
        self._backend = backend

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        for var in model.family("r").values():
            return replace(result, values={**result.values, var.name: 0.5})
        return result


def test_a_decode_failure_is_a_failed_row(backend, micro1):
    rows = compare_methods([("micro1", micro1)],
                           [RunConfig(method="full"), RunConfig(method="vrptw")],
                           _FractionalBackend(backend))
    by_label = {r.label(): r for r in rows}
    assert by_label["full"].status == "failed"
    assert "is fractional beyond tolerance" in by_label["full"].error
    assert by_label["vrptw"].status == "ok"
    assert by_label["vrptw"].total == pytest.approx(MICRO1_VRPTW, abs=1e-4)


class _NanContinuousBackend:
    """Solves as ``backend`` does, but hands back NaN for every continuous variable."""

    def __init__(self, backend):
        self._backend = backend

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        continuous = {var.name for var in model.variables if var.kind == CONTINUOUS}
        return replace(result, values={name: math.nan if name in continuous else value
                                       for name, value in result.values.items()})


@pytest.mark.parametrize("label_limit", [tiers.ROUTE_LABEL_LIMIT, 0])
def test_plans_are_decoded_from_binary_variables_alone(backend, monkeypatch, label_limit):
    """Every decoder reads only binaries, so continuous solver values, NaN here,
    change no plan and no failure; with no label budget the truck stages are rows."""
    monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", label_limit)
    configs = [RunConfig(method="full"), RunConfig(method="full", mu=0.5),
               RunConfig(method="vrptw"), RunConfig(method="d1", t2_obj="obj2"),
               RunConfig(method="d2", t2_obj="obj1"), RunConfig(method="d3", t2_obj="obj2")]
    instances = [make_micro1(), make_micro1(extra_trip_time=550.0)]
    instances += generate_micro_instances(3, start_seed=2000)
    blind = _NanContinuousBackend(backend)
    planned = set()
    for instance in instances:
        for config in configs:
            outcomes = []
            for solver in (backend, blind):
                try:
                    outcomes.append(serialize_plan(run_method(instance, config, solver)[0]))
                except PipelineError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], config
            if outcomes[0].startswith("{"):
                planned.add(config)
    assert planned == set(configs)  # every method planned some instance


def test_compare_methods_records_the_worst_stage_status(backend, micro1):
    rows = compare_methods(
        [("micro1", micro1)],
        [RunConfig(method="full"), RunConfig(method="d3", t2_obj="obj2")], backend)
    by_label = {r.label(): r for r in rows}
    assert by_label["full"].worst_stage_status == "optimal" and by_label["full"].proven
    # d3's transit stage cannot be built: no trip reaches the stop in time
    assert by_label["d3-obj2"].worst_stage_status == "infeasible"


def test_compare_methods_artifacts_layout(backend, micro1, tmp_path):
    compare_methods(
        [("m1", micro1)], [RunConfig(method="d2", t2_obj="obj2")], backend,
        artifacts_root=tmp_path)
    assert (tmp_path / "m1__d2-obj2" / "plan.json").exists()


def test_compare_methods_keeps_each_beta_apart(backend, micro1, tmp_path):
    rows = compare_methods(
        [("m1", micro1)],
        [RunConfig(method="full", beta=0.5), RunConfig(method="full", beta=1.0)], backend,
        artifacts_root=tmp_path)
    assert [(r.label(), r.beta, r.mu, r.status) for r in rows] == [
        ("full-beta0.5", 0.5, 0.0, "ok"), ("full-beta1", 1.0, 0.0, "ok")]
    assert rows[0].total < rows[1].total
    # each run is the best of its own beta, so neither deviates
    assert [r.deviation_pct for r in rows] == [0.0, 0.0]
    assert (tmp_path / "m1__full-beta0.5" / "plan.json").exists()
    assert (tmp_path / "m1__full-beta1" / "plan.json").exists()
    assert RunConfig(method="full", beta=0.5, mu=2.0).label() == "full-beta0.5-mu2"


def test_full_service_cost_reference_cached(backend, micro1):
    plan, metrics = run_method(micro1, RunConfig(method="full", mu=0.5), backend)
    # lambda terms derive from the plain solve of this same instance
    assert plan.service_lambda1 == pytest.approx(0.5 * 20.0, abs=1e-4)
    assert plan.service_lambda3 == pytest.approx(0.5 * 2.8284271, abs=1e-4)
    assert metrics.service_cost > 0
    assert metrics.total == pytest.approx(
        metrics.t1_cost + metrics.t3_cost + metrics.service_cost, abs=1e-9)


def test_service_cost_reference_is_a_recorded_stage(backend, micro1, monkeypatch, tmp_path):
    monkeypatch.setattr(pipeline, "_reference_cache", {})
    _plan, metrics = run_method(micro1, RunConfig(method="full", mu=0.5), backend,
                                artifacts_dir=tmp_path)
    assert [(s.stage, s.status) for s in metrics.stages] == [
        ("reference", "optimal"), ("full", "optimal")]
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert [s["stage"] for s in doc["stages"]] == ["reference", "full"]
    # the second run reads the cached reference
    _plan, again = run_method(micro1, RunConfig(method="full", mu=0.5), backend)
    assert [(s.stage, s.status) for s in again.stages] == [("full", "optimal")]
    # so does an equal instance read back from its JSON; a changed one misses
    reread = parse_instance(serialize_instance(micro1))
    _plan, equal = run_method(reread, RunConfig(method="full", mu=0.5), backend)
    assert [s.stage for s in equal.stages] == ["full"]
    _plan, other = run_method(with_beta(micro1, 0.75), RunConfig(method="full", mu=0.5), backend)
    assert [s.stage for s in other.stages] == ["reference", "full"]


def test_stitching_matches_stage_handoff(backend, micro1, tmp_path):
    """The assembled plan repeats the stage decisions without re-timing."""
    art = tmp_path / "stitch"
    plan, _metrics = run_method(
        micro1, RunConfig(method="d2", t2_obj="obj2"), backend, artifacts_dir=art)
    handoff = parse_handoff((art / "handoff-t2.json").read_text())
    it = plan.itinerary_of("c1")
    assert it.drop_in_stop == handoff.b_in["c1"]
    assert it.drop_out_stop == handoff.b_out["c1"]
    assert it.drop_out_time == pytest.approx(handoff.t_out["c1"])
    # handoff conservation: each populated map covers every customer once
    for mapping in (handoff.b_in, handoff.t_in, handoff.b_out, handoff.t_out):
        assert set(mapping) == {c.id for c in micro1.customers}


def service_time_fixture() -> Instance:
    """Two customers with door service times on one freighter route from B.

    Whichever order the route takes, its latest departure from B is 684 or
    686, so only p2 drops in time. Ignoring the successor's service time in
    the repair would admit p1, whose pickup stop is cheaper, and the route
    would then reach its last customer after the window closes.
    """
    instance = Instance(
        cdc=Point(0, 0),
        stops=(Stop("A1", Point(10, 0), True, False, 10.0, 300.0),
               Stop("A2", Point(20, 0), True, False, 10.0, 300.0),
               Stop("B", Point(50, 0), False, True, 10.0, 300.0)),
        lines=(Line("L1", ("A1", "B")), Line("L2", ("A2", "B"))),
        trips=(Trip("p1", "L1", {"A1": 670.0, "B": 678.0}, 60.0),
               Trip("p2", "L2", {"A2": 650.0, "B": 660.0}, 60.0)),
        trucks=(Truck("d1", 160.0),),
        freighters=(Freighter("f1", "B", 40.0),),
        customers=(
            Customer("c1", Point(60, 0), 10.0, 100.0, 700.0, 5.0, frozenset({"B"})),
            Customer("c2", Point(70, 0), 10.0, 100.0, 700.0, 5.0, frozenset({"B"})),
        ),
    )
    instance.validate()
    return instance


def test_d3_stitches_with_customer_service_times(backend, tmp_path):
    instance = service_time_fixture()
    plan, _metrics = run_method(instance, RunConfig(method="d3", t2_obj="obj2"),
                                backend, artifacts_dir=tmp_path)
    assert validate_plan(instance, plan) == []
    assert {it.trip for it in plan.itineraries} == {"p2"}
    handoff = parse_handoff((tmp_path / "handoff-t3.json").read_text())
    assert set(handoff.t_depart_max) == {"c1", "c2"}
    assert len(set(handoff.t_depart_max.values())) == 1  # one route, one departure
    assert handoff.t_out == {}  # no drop is scheduled before the transit stage
    assert parse_handoff(serialize_handoff(handoff)) == handoff


@pytest.mark.parametrize("seed", [1, 14, 20])
def test_d3_never_fails_at_stitching(backend, seed):
    # generated instances on which the drop window once ignored the ride
    instance = generate_instance(GenParams(n_customers=4 + seed % 5, n_lines=1 + seed % 2,
                                           stops_per_line=(4, 5), seed=seed))
    for obj in ("obj1", "obj2"):
        try:
            plan, _metrics = run_method(instance, RunConfig(method="d3", t2_obj=obj), backend)
        except PipelineError as exc:
            assert exc.stage != "d3-stitch", str(exc)
            continue
        assert validate_plan(instance, plan) == []


class _MisreportingBackend:
    """Solves correctly but reports an objective ``offset`` off, for the models of
    one formulation ``tag``, or of every tag by default."""

    def __init__(self, backend, tag=None, offset=1.0):
        self._backend = backend
        self._tag = tag
        self._offset = offset

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        if self._tag not in (None, model.metadata["formulation"]):
            return result
        return replace(result, objective=result.objective + self._offset)


# full and vrptw read every objective one unit high; the other cases read one
# tagged stage's objective one unit below its routes' price, which t1 refuses too
@pytest.mark.parametrize("instance, config, tag, stage", [
    pytest.param(make_micro1(), RunConfig(method="full"), None, "full", id="full"),
    pytest.param(make_micro1(), RunConfig(method="vrptw"), None, "vrptw", id="vrptw"),
    pytest.param(make_micro1(), RunConfig(method="d2", t2_obj="obj2"), "t1-handoff", "t1",
                 id="d2-t1-handoff"),
    pytest.param(make_micro1(), RunConfig(method="d2", t2_obj="obj2"), "t3-stopwise", "t3[B]",
                 id="d2-t3-stopwise"),
    pytest.param(make_micro1(extra_trip_time=550.0), RunConfig(method="d3", t2_obj="obj2"),
                 "d3-t3", "t3", id="d3-d3-t3"),
])
def test_solver_objective_must_match_the_plan_cost(backend, instance, config, tag, stage):
    offset = 1.0 if tag is None else -1.0
    with pytest.raises(PipelineError) as exc:
        run_method(instance, config, _MisreportingBackend(backend, tag, offset))
    assert exc.value.stage == "validate"
    assert "solver objective" in exc.value.cause
    assert exc.value.cause.startswith(f"stage {stage}:")


@pytest.mark.parametrize("tag", ["d2-t2", "t1-handoff"])
def test_a_surrogate_or_a_dearer_truck_objective_passes_the_price_check(backend, micro1, tag):
    # d2-t2's objective is a surrogate, not a price; a truck stage may report
    # more than its routes cost, since decode_t1 skips a stop left without packages
    plan, metrics = run_method(micro1, RunConfig(method="d2", t2_obj="obj2"),
                               _MisreportingBackend(backend, tag))
    assert validate_plan(micro1, plan) == []
    assert metrics.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)


@pytest.mark.parametrize("config", [RunConfig(method="d2", t2_obj="obj2"),
                                    RunConfig(method="full")], ids=RunConfig.label)
def test_a_run_prices_its_plan_once(backend, micro1, monkeypatch, config):
    calls = []
    real = validate.price_routes

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (model_full, validate, pipeline):
        monkeypatch.setattr(module, "price_routes", counted, raising=False)
    run_method(micro1, config, backend)
    assert len(calls) == 1


def test_d3_repair_warnings_reach_metrics(backend, monkeypatch, tmp_path):
    real_repair = pipeline.repair_d3_times

    def repair_with_warning(routes, instance):
        t_visit, warnings = real_repair(routes, instance)
        return t_visit, warnings + ["customer c1: repaired time 1 is before its window opens"]

    monkeypatch.setattr(pipeline, "repair_d3_times", repair_with_warning)
    late = make_micro1(extra_trip_time=550.0)
    _plan, metrics = run_method(late, RunConfig(method="d3", t2_obj="obj2"), backend,
                                artifacts_dir=tmp_path)
    expected = ["customer c1: repaired time 1 is before its window opens"]
    assert metrics.warnings == expected
    assert json.loads((tmp_path / "metrics.json").read_text())["warnings"] == expected
