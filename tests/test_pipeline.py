import json
import math
from dataclasses import replace

import pytest

from transitfreight import model_full, pipeline, tiers, validate
from transitfreight.bruteforce import OracleSizeError, brute_force_optimum, brute_force_vrptw
from transitfreight.generate import GenParams, generate_instance
from transitfreight.instance import (
    Customer, Freighter, Instance, Line, Point, Stop, Trip, Truck, parse_instance,
    serialize_instance, with_beta)
from transitfreight.milp import ModelError
from transitfreight.pipeline import (
    DEFAULT_STAGE_SECONDS,
    PipelineError,
    RunConfig,
    compare_methods,
    run_method,
)
from transitfreight.plan import HANDOFF_SCHEMA, parse_plan, serialize_plan
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
    for method in ("full", "vrptw"):  # no transit stage to take an objective
        with pytest.raises(ModelError, match=f"method {method} has no transit stage"):
            RunConfig(method=method, t2_obj="obj2")
    with pytest.raises(ModelError, match="finite"):
        RunConfig(method="full", mu=float("nan"))
    for beta in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ModelError, match="beta must be finite and nonnegative"):
            RunConfig(method="full", beta=beta)
    assert RunConfig(method="full", beta=0.0).beta == 0.0
    assert RunConfig(method="full").label() == "full"
    assert RunConfig(method="d2", t2_obj="obj1").label() == "d2-obj1"


@pytest.mark.parametrize("limits", [{"time_limit": math.nan}, {"rel_gap": math.nan},
                                    {"time_limit": 0.0}, {"rel_gap": -1e-6}])
def test_config_refuses_a_nan_or_out_of_range_solve_limit(limits):
    # NaN passes "time_limit <= 0" and "rel_gap < 0" alike, and strict JSON has no NaN
    with pytest.raises(ModelError, match="solve limits need a positive time limit"):
        RunConfig(method="d2", t2_obj="obj2", **limits)


@pytest.mark.parametrize("method, tag", [("d3", "OBJ3"), ("d2", "Obj1")])
def test_transit_objective_tags_are_taken_as_given(method, tag):
    # a tag in another case would run under a label of its own, or reach d3's obj3 stage
    with pytest.raises(ModelError, match=repr(tag)):
        RunConfig(method=method, t2_obj=tag)


def test_time_limit_sets_every_stage_kind():
    """Without a time limit each stage kind keeps its default; with one, every kind
    takes it, and a limit that is not positive fails when the config is made."""
    limits = RunConfig(method="full").limits
    assert {kind: limit.time_limit for kind, limit in limits.items()} == DEFAULT_STAGE_SECONDS
    limits = RunConfig(method="full", time_limit=5.0).limits
    assert {kind: limit.time_limit for kind, limit in limits.items()} == dict.fromkeys(
        DEFAULT_STAGE_SECONDS, 5.0)
    with pytest.raises(ModelError, match="positive"):
        RunConfig(method="full", time_limit=0.0)


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
    (it,) = plan.itineraries
    assert it.trip == "p3"  # the only trip inside the repaired dwell window


def test_d1_succeeds_with_a_late_trip(backend):
    late = make_micro1(extra_trip_time=550.0)
    plan, metrics = run_method(late, RunConfig(method="d1", t2_obj="obj2"), backend)
    assert validate_plan(late, plan) == []
    assert metrics.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)


def test_d1_truck_handoff_carries_truck_times(backend, tmp_path):
    late = make_micro1(extra_trip_time=550.0)
    plan, _metrics = run_method(late, RunConfig(method="d1", t2_obj="obj2"), backend,
                                artifacts_dir=tmp_path)
    handoff = json.loads((tmp_path / "handoff-t1.json").read_text())
    assert handoff["schema"] == HANDOFF_SCHEMA
    assert set(handoff) == {"schema", "placed"}  # no trip is chosen before transit
    # the stops, trucks and minutes read back are the plan's, the minutes to the last bit
    at_stop = {(r.truck, s): t for r in plan.truck_routes for s, t in zip(r.stops, r.times)}
    assert handoff["placed"] == {
        it.customer: [it.drop_in_stop, it.truck, at_stop[(it.truck, it.drop_in_stop)]]
        for it in plan.itineraries}


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
    handoff = json.loads((art / "handoff-t2.json").read_text())
    assert {c: ch["drop_in"] for c, ch in handoff["choices"].items()} == {"c1": "A"}
    reloaded = parse_plan((art / "plan.json").read_text())
    assert reloaded == plan
    metrics_doc = json.loads((art / "metrics.json").read_text())
    assert metrics_doc["method"] == "d2"


def test_plan_document_layout(backend, micro1):
    """Records list their dataclass's fields in declaration order, after the schema
    and kind; reordering a field changes the format, so the order is pinned here."""
    plan, _metrics = run_method(micro1, RunConfig(method="full"), backend)
    doc = json.loads(serialize_plan(plan))
    assert list(doc) == ["schema", "kind", "itineraries", "truck_routes", "freighter_routes",
                         "costs", "service_lambda1", "service_lambda3"]
    assert list(doc["itineraries"][0]) == [
        "customer", "truck", "drop_in_stop", "drop_in_time", "trip", "drop_out_stop",
        "drop_out_time", "freighter", "delivery_time"]
    assert list(doc["truck_routes"][0]) == ["truck", "departure", "stops", "times"]
    assert list(doc["freighter_routes"][0]) == ["freighter", "home_stop", "departure",
                                                "customers", "times"]
    assert list(doc["costs"]) == ["t1_cost", "t3_cost", "service_cost", "total"]
    baseline, _metrics = run_method(micro1, RunConfig(method="vrptw"), backend)
    doc = json.loads(serialize_plan(baseline))
    assert list(doc) == ["schema", "kind", "routes", "total_cost"]
    assert list(doc["routes"][0]) == ["truck", "departure", "customers", "times"]


def test_plan_without_service_fields_reads_them_as_zero(backend, micro1):
    plan, _metrics = run_method(micro1, RunConfig(method="full", mu=0.5), backend)
    assert plan.costs.service_cost > 0 and plan.service_lambda1 > 0 and plan.service_lambda3 > 0
    doc = json.loads(serialize_plan(plan))
    del doc["costs"]["service_cost"], doc["service_lambda1"], doc["service_lambda3"]
    assert parse_plan(json.dumps(doc)) == replace(
        plan, costs=replace(plan.costs, service_cost=0.0), service_lambda1=0.0,
        service_lambda3=0.0)


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
    d2_kinds = ("other", "other", "per_stop")  # t2, t1, t3[stop]
    for config, expected in (
            (RunConfig(method="d2", t2_obj="obj2"), [DEFAULT_STAGE_SECONDS[k] for k in d2_kinds]),
            (RunConfig(method="vrptw"), [DEFAULT_STAGE_SECONDS["full"]]),
            (RunConfig(method="d2", t2_obj="obj1", time_limit=5.0), [5.0, 5.0, 5.0]),
            (RunConfig(method="full", time_limit=5.0), [5.0])):
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

    # valid, but c1's only candidate C opens its line, so no transit trip reaches c1:
    # every transit method fails at the instance stage, and the direct trucks still plan
    stranded = replace(
        micro1,
        stops=micro1.stops + (Stop("C", Point(60.0, 0.0), False, True, 10.0, 300.0),
                              Stop("D", Point(70.0, 0.0), True, False, 10.0, 300.0)),
        lines=micro1.lines + (Line("L2", ("C", "D")),),
        trips=micro1.trips + (Trip("q1", "L2", {"C": 150.0, "D": 158.0}, 60.0),),
        freighters=micro1.freighters + (Freighter("f2", "C", 20.0),),
        customers=(replace(micro1.customers[0], dropout_candidates=frozenset({"C"})),))
    stranded.validate()
    with pytest.raises(PipelineError) as exc:
        run_method(stranded, RunConfig(method="d2", t2_obj="obj2"), backend)
    assert (exc.value.stage, exc.value.status) == ("instance", "infeasible")
    assert "customer c1 unreachable by transit" in exc.value.cause
    configs = [RunConfig(method="full"), RunConfig(method="d1", t2_obj="obj2"),
               RunConfig(method="d2", t2_obj="obj2"), RunConfig(method="d3", t2_obj="obj2"),
               RunConfig(method="vrptw")]
    rows = compare_methods([("stranded", stranded)], configs, backend)
    assert [(r.label(), r.status, r.worst_stage_status) for r in rows] == [
        ("full", "failed", "infeasible"), ("d1-obj2", "failed", "infeasible"),
        ("d2-obj2", "failed", "infeasible"), ("d3-obj2", "failed", "infeasible"),
        ("vrptw", "ok", "optimal")]
    assert all(r.error.startswith("[instance] customer c1 unreachable") for r in rows[:4])


def test_a_run_without_customers_plans_nothing_or_fails_at_its_first_stage(backend, micro1):
    """With no customer the monolithic and direct-truck models plan nothing at no cost,
    and each decomposition's first stage has no column, which the backend refuses: the
    run fails at that stage, and a comparison records it and goes on."""
    empty = replace(micro1, customers=())
    for method in ("full", "vrptw"):
        _plan, metrics = run_method(empty, RunConfig(method=method), backend)
        assert metrics.total == 0.0
    for method, stage in (("d1", "t1"), ("d2", "t2"), ("d3", "t3")):
        with pytest.raises(PipelineError) as exc:
            run_method(empty, RunConfig(method=method, t2_obj="obj2"), backend)
        assert (exc.value.stage, exc.value.cause, exc.value.status) == (
            stage, "backend error: empty model", "error")

    configs = [RunConfig(method="full"), RunConfig(method="d2", t2_obj="obj2")]
    rows = compare_methods([("empty", empty), ("micro1", micro1)], configs, backend)
    assert [(r.instance, r.label(), r.status) for r in rows] == [
        ("empty", "full", "ok"), ("empty", "d2-obj2", "failed"),
        ("micro1", "full", "ok"), ("micro1", "d2-obj2", "ok")]
    assert rows[1].error == "[t2] backend error: empty model"


class _MiscasedStatusBackend:
    """Solves as ``backend`` does, but reports ``Optimal`` where it means ``optimal``."""

    def __init__(self, backend):
        self._backend = backend

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        return replace(result, status=result.status.capitalize())


def test_a_status_no_backend_may_report_fails_its_stage(backend, micro1):
    with pytest.raises(PipelineError) as exc:
        run_method(micro1, RunConfig(method="d2", t2_obj="obj2"),
                   _MiscasedStatusBackend(backend))
    assert (exc.value.stage, exc.value.status) == ("t2", "error")
    assert exc.value.cause == "backend error: backend returned unknown status 'Optimal'"


class _FractionalBackend:
    """Solves as ``backend`` does, but hands back 0.5 for the first ``r`` variable."""

    def __init__(self, backend):
        self._backend = backend

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        for col in model.family("r").values():
            values = list(result.values)
            values[col] = 0.5
            return replace(result, values=values)
        return result


def test_a_decode_failure_is_a_failed_row(backend, micro1, monkeypatch):
    """A solution that cannot be decoded fails the run at the stage that solved it."""
    rows = compare_methods([("micro1", micro1)],
                           [RunConfig(method="full"), RunConfig(method="vrptw")],
                           _FractionalBackend(backend))
    by_label = {r.label(): r for r in rows}
    assert by_label["full"].status == "failed"
    assert by_label["full"].worst_stage_status == "error"
    assert by_label["full"].error.startswith("[full] ")
    assert "is fractional beyond tolerance" in by_label["full"].error
    assert by_label["vrptw"].status == "ok"
    assert by_label["vrptw"].total == pytest.approx(MICRO1_VRPTW, abs=1e-4)

    # without a label budget d2's truck stage is built from rows, the first with r columns
    monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", 0)
    with pytest.raises(PipelineError) as exc:
        run_method(micro1, RunConfig(method="d2", t2_obj="obj2"), _FractionalBackend(backend))
    assert (exc.value.stage, exc.value.status) == ("t1", "error")
    assert "is fractional beyond tolerance" in exc.value.cause


class _NanContinuousBackend:
    """Solves as ``backend`` does, but hands back NaN for every continuous variable."""

    def __init__(self, backend):
        self._backend = backend

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        return replace(result, values=[value if integer else math.nan for value, integer
                                       in zip(result.values, model.integer)])


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


def test_compare_methods_reports_the_mu_a_config_sets(backend, micro1):
    """A config's mu is its row's mu, label and case; a config without one prices the
    plain objective."""
    rows = compare_methods([("m1", micro1)],
                           [RunConfig(method="full"), RunConfig(method="full", mu=0.5),
                            RunConfig(method="d2", t2_obj="obj2")], backend)
    plain, priced, d2 = rows
    assert (plain.label(), plain.mu, plain.service_cost, plain.deviation_pct) == (
        "full", 0.0, 0.0, 0.0)
    assert (priced.label(), priced.mu, priced.deviation_pct) == ("full-mu0.5", 0.5, 0.0)
    assert priced.service_cost > 0 and priced.total != plain.total
    assert (d2.label(), d2.mu, d2.deviation_pct) == ("d2-obj2", 0.0, 0.0)


def test_full_service_cost_reference_cached(backend, micro1):
    plan, metrics = run_method(micro1, RunConfig(method="full", mu=0.5), backend)
    # lambda terms derive from the plain solve of this same instance
    assert plan.service_lambda1 == pytest.approx(0.5 * 20.0, abs=1e-4)
    assert plan.service_lambda3 == pytest.approx(0.5 * 2.8284271, abs=1e-4)
    assert metrics.service_cost > 0
    assert metrics.total == pytest.approx(
        metrics.t1_cost + metrics.t3_cost + metrics.service_cost, abs=1e-9)


def test_service_cost_reference_is_a_recorded_stage(backend, tmp_path):
    instance = make_micro1()
    config = RunConfig(method="full", mu=0.5)
    _plan, metrics = run_method(instance, config, backend, artifacts_dir=tmp_path)
    assert [(s.stage, s.status) for s in metrics.stages] == [
        ("reference", "optimal"), ("full", "optimal")]
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert [s["stage"] for s in doc["stages"]] == ["reference", "full"]
    assert doc["mu"] == 0.5
    # the second run on the same object reads the reference it keeps
    _plan, again = run_method(instance, config, backend)
    assert [(s.stage, s.status) for s in again.stages] == [("full", "optimal")]
    # an equal instance read back from its JSON is another object: it records its own,
    # and so does a copy at another freighter cost scale
    reread = parse_instance(serialize_instance(instance))
    assert reread == instance
    for other in (reread, with_beta(instance, 0.75)):
        _plan, metrics = run_method(other, config, backend)
        assert [s.stage for s in metrics.stages] == ["reference", "full"]


def test_a_replace_copy_solves_its_own_reference(backend):
    """The reference is no field of the instance, so ``replace`` does not copy it."""
    instance = make_micro1()
    _plan, plain = run_method(instance, RunConfig(method="full"), backend)
    assert [(s.stage, s.status) for s in plain.stages] == [("full", "optimal")]
    config = RunConfig(method="full", mu=0.5)
    copy = replace(instance)
    assert copy == instance
    _plan, copied = run_method(copy, config, backend)
    assert [s.stage for s in copied.stages] == ["reference", "full"]
    _plan, kept = run_method(instance, config, backend)
    assert [s.stage for s in kept.stages] == ["full"]


class _FirstFullUnprovenBackend:
    """Solves as ``backend`` does, but reports its first ``full`` model's solve as
    ``feasible``, as a solve that hit its time limit with an incumbent would be."""

    def __init__(self, backend):
        self._backend = backend
        self._unproven = True

    def solve(self, model, limits):
        result = self._backend.solve(model, limits)
        if self._unproven and model.metadata["formulation"] == "full":
            self._unproven = False
            return replace(result, status="feasible")
        return result


@pytest.mark.parametrize("first_mu", [0.5, 0.0])
def test_an_unproven_plain_solve_is_not_cached_as_the_reference(backend, first_mu):
    """Neither writer keeps a plain solve it did not prove optimal as the instance's
    reference, so the next service-cost run solves it again; once that one is proven,
    later runs read it."""
    instance = make_micro1()
    unproven = _FirstFullUnprovenBackend(backend)
    config = RunConfig(method="full", mu=0.5)
    _plan, first = run_method(instance, RunConfig(method="full", mu=first_mu), unproven)
    assert first.stages[0].status == "feasible"
    _plan, second = run_method(instance, config, unproven)
    assert [(s.stage, s.status) for s in second.stages] == [
        ("reference", "optimal"), ("full", "optimal")]
    _plan, third = run_method(instance, config, unproven)
    assert [(s.stage, s.status) for s in third.stages] == [("full", "optimal")]


class _CountingBackend:
    """Solves as ``backend`` does and counts the solves of each formulation."""

    def __init__(self, backend):
        self._backend = backend
        self.solves: dict[str, int] = {}

    def solve(self, model, limits):
        formulation = model.metadata["formulation"]
        self.solves[formulation] = self.solves.get(formulation, 0) + 1
        return self._backend.solve(model, limits)


def test_a_compare_mu_sweep_solves_one_plain_full_model_per_beta(backend):
    """Every config of one (instance, beta) runs on one object, so each mu=0.5 run reads
    the reference its beta's plain run kept: four ``full`` solves, no ``reference``. micro1
    already has scale 0.5; beta 1 runs on a copy."""
    counting = _CountingBackend(backend)
    configs = [RunConfig(method="full", beta=beta, mu=mu) for beta in (0.5, 1.0)
               for mu in (0.0, 0.5)]
    rows = compare_methods([("m1", make_micro1())], configs, counting)
    assert [(row.status, row.proven) for row in rows] == [("ok", True)] * 4
    assert counting.solves == {"full": 4}


def test_stitching_matches_stage_handoff(backend, micro1, tmp_path):
    """The assembled plan repeats the stage decisions without re-timing."""
    art = tmp_path / "stitch"
    plan, _metrics = run_method(
        micro1, RunConfig(method="d2", t2_obj="obj2"), backend, artifacts_dir=art)
    handoff = json.loads((art / "handoff-t2.json").read_text())
    assert handoff["schema"] == HANDOFF_SCHEMA
    (it,) = plan.itineraries
    choice = handoff["choices"]["c1"]
    assert it.trip == choice["trip"]
    assert it.drop_in_stop == choice["drop_in"]
    assert it.drop_out_stop == choice["drop_out"]
    assert it.drop_out_time == pytest.approx(choice["drop_time"])
    # handoff conservation: every customer has one whole transit choice
    assert set(handoff["choices"]) == {c.id for c in micro1.customers}
    for choice in handoff["choices"].values():
        assert set(choice) == {"trip", "drop_in", "pickup_time", "drop_out", "drop_time"}


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
    handoff = json.loads((tmp_path / "handoff-t3.json").read_text())
    assert handoff["schema"] == HANDOFF_SCHEMA
    # no drop is scheduled before the transit stage: the one route's freighter, its
    # customers in visit order and the latest departure they share
    assert set(handoff) == {"schema", "routes"}
    (route,) = handoff["routes"]
    assert route == {"freighter": "f1", "customers": ["c1", "c2"],
                     "latest_departure": pytest.approx(686.0)}
    (freighter_route,) = plan.freighter_routes
    assert freighter_route.departure <= route["latest_departure"] + 1e-9


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


@pytest.mark.parametrize("routes, dropped, named", [
    # c1 and c2 share a route but drop 350 minutes apart, past B's 300-minute dwell cap
    ([("f1", ("c1", "c2"), 686.0)], {"c1": 100.0, "c2": 450.0},
     "freighter f1: packages arrive too far apart"),
    # loaded at 700, c1's service ends at 707 (a 2-minute ride and 5 of service), past 700
    ([("f1", ("c1",), 686.0)], {"c1": 690.0},
     "customer c1: retimed delivery 707 misses the window closing 700"),
])
def test_d3_stitch_guards_name_what_a_broken_handoff_breaks(routes, dropped, named):
    instance = service_time_fixture()
    # the stitch reads each package's drop-out stop and drop minute; the rest is placeholder
    choices = {cid: model_full.TransitChoice("", "", math.nan, "B", t)
               for cid, t in dropped.items()}
    with pytest.raises(PipelineError, match=named) as exc:
        pipeline._retime_d3_routes(instance, routes, choices)
    assert exc.value.stage == "d3-stitch"


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


def test_d3_fails_at_t3_naming_a_customer_no_route_serves(backend, tmp_path):
    # c1's window closes at 160, before a freighter leaving after the first drop (158)
    # and its loading reaches it: d3-t3 has no column for c1 and is not solved
    early = make_micro1(window=(100.0, 160.0))
    with pytest.raises(PipelineError) as exc:
        run_method(early, RunConfig(method="d3", t2_obj="obj2"), backend,
                   artifacts_dir=tmp_path)
    assert (exc.value.stage, exc.value.status) == ("t3", "infeasible")
    assert exc.value.cause.startswith("customer c1: no freighter route serves it")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.json"]


def test_every_method_agrees_with_the_oracle_on_two_line_draws(backend):
    """Two-line draws are where the tiers interact: on one line every drop-in stop
    comes before every drop-out stop, so truck and freighter choices are independent.
    On each draw within the oracle's size guard, ``full`` equals ``brute_force_optimum``
    and ``vrptw`` equals ``brute_force_vrptw``; every ``d1``/``d2``/``d3`` plan is
    validated by ``run_method`` and costs no less than the optimum, and a run that fails
    raises a ``PipelineError`` naming a solve stage. Failing runs are allowed: ``d1`` and
    ``d3`` fail on most of these draws."""
    configs = [RunConfig(method="full"), RunConfig(method="vrptw")] + [
        RunConfig(method=method, t2_obj=obj) for method in ("d1", "d2", "d3")
        for obj in ("obj1", "obj2", "obj3") if (method, obj) != ("d3", "obj3")]
    checked = 0
    for instance in generate_micro_instances(40, n_lines=2):
        try:
            optimum = brute_force_optimum(instance)
        except OracleSizeError:  # orphan patching added a customer past the guard
            continue
        assert optimum.feasible
        direct = brute_force_vrptw(instance)
        checked += 1
        for config in configs:
            try:
                plan, _ = run_method(instance, config, backend)
            except PipelineError as exc:
                assert config.method in ("d1", "d2", "d3"), exc
                assert exc.stage in ("t1", "t2", "t3") or exc.stage.startswith("t3["), exc
                continue
            if config.method == "full":
                assert plan.costs.total == pytest.approx(optimum.cost, abs=1e-4)
            elif config.method == "vrptw":
                assert plan.total_cost == pytest.approx(direct.total_cost, abs=1e-4)
            else:
                assert plan.costs.total >= optimum.cost - 1e-4, config.label()
    assert checked >= 35
