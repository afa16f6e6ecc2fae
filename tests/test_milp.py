import warnings
from types import SimpleNamespace

import pytest

from transitfreight import backends, tiers
from transitfreight.backends import (
    HIGHS_SETTINGS,
    BackendError,
    ScipyHighsBackend,
    highs_core,
    solve,
    write_model,
)
from transitfreight.milp import (
    ModelBuilder,
    ModelError,
    SolveLimits,
)
from transitfreight.model_full import build_full
from transitfreight.pipeline import PipelineError, RunConfig, run_method

from conftest import MICRO1_TOTAL, generate_micro_instances, make_micro1


def tiny_model(lb=1.0):
    mb = ModelBuilder("tiny")
    x = mb.binary("x")
    mb.add([(x, 1.0)], ">=", lb, "floor")
    mb.set_objective([(x, 1.0)])
    return mb.build()


def test_solve_trivial_optimum(backend):
    result = solve(tiny_model(), backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(1.0)
    assert result.best_bound == pytest.approx(1.0, abs=1e-6)


def test_solve_infeasible(backend):
    mb = ModelBuilder("infeasible")
    x = mb.continuous("x")
    mb.add([(x, 1.0)], ">=", 1.0, "ge")
    mb.add([(x, 1.0)], "<=", 0.0, "le")
    mb.set_objective([(x, 1.0)])
    result = solve(mb.build(), backend)
    assert result.status == "infeasible"
    assert result.values == []


def test_objective_roundtrip_matches_reported(backend, micro1):
    model = build_full(micro1)
    result = solve(model, backend)
    assert result.status == "optimal"
    recomputed = sum(coeff * result.values[col] for col, coeff in model.objective)
    assert recomputed == pytest.approx(result.objective, abs=1e-6)


def test_monotone_under_added_constraint(backend):
    mb = ModelBuilder("mono")
    x = mb.integer("x", lb=0.0, ub=10.0)
    y = mb.integer("y", lb=0.0, ub=10.0)
    mb.add([(x, 1.0), (y, 1.0)], ">=", 3.0, "cover")
    mb.set_objective([(x, 1.0), (y, 2.0)])
    base = solve(mb.build(), backend)

    mb2 = ModelBuilder("mono2")
    x2 = mb2.integer("x", lb=0.0, ub=10.0)
    y2 = mb2.integer("y", lb=0.0, ub=10.0)
    mb2.add([(x2, 1.0), (y2, 1.0)], ">=", 3.0, "cover")
    mb2.add([(y2, 1.0)], ">=", 2.0, "extra")
    mb2.set_objective([(x2, 1.0), (y2, 2.0)])
    tightened = solve(mb2.build(), backend)
    assert tightened.objective >= base.objective - 1e-6


@pytest.mark.parametrize("kind", ["binary", "continuous", "integer"])
def test_repeated_family_index_is_a_duplicate_variable(kind):
    mb = ModelBuilder("dup")
    first = getattr(mb, kind)("x", "a", 1)
    assert (first, mb.integer("x", "a", 2), mb.binary("y", "a", 1)) == (0, 1, 2)
    with pytest.raises(ModelError, match=r"duplicate variable x\[a,1\]"):
        getattr(mb, kind)("x", "a", 1)
    assert mb.get("x", "a", 1) == 0 and mb.build().variables == ["x[a,1]", "x[a,2]", "y[a,1]"]


# ---- model files ------------------------------------------------------


def test_write_model_deterministic(micro1, tmp_path):
    model = build_full(micro1)
    first, second = tmp_path / "first.lp", tmp_path / "second.lp"
    write_model(model, first)
    write_model(model, second)
    assert first.read_bytes() == second.read_bytes()


def highs_reads(model, tmp_path, limits=SolveLimits()):
    """HiGHS's own reader on the file ``write_model`` writes, solved under the backend's
    settings: its column and row counts, its model status and its objective."""
    path = tmp_path / "model.lp"
    write_model(model, path)
    highs = highs_core._Highs()
    options = {"output_flag": False, "time_limit": limits.time_limit,
               "mip_rel_gap": limits.rel_gap, **HIGHS_SETTINGS}
    for name, value in options.items():
        assert highs.setOptionValue(name, value) == highs_core.HighsStatus.kOk, name
    assert highs.readModel(str(path)) == highs_core.HighsStatus.kOk
    lp = highs.getLp()
    highs.run()
    return SimpleNamespace(cols=lp.num_col_, rows=lp.num_row_,
                           status=highs.modelStatusToString(highs.getModelStatus()),
                           objective=highs.getInfo().objective_function_value)


def test_lp_reimport_trivial(tmp_path):
    read = highs_reads(tiny_model(), tmp_path)
    assert (read.cols, read.rows, read.status) == (1, 1, "Optimal")
    assert read.objective == pytest.approx(1.0)


def test_lp_reimport_full_micro1(tmp_path, micro1):
    model = build_full(micro1)
    read = highs_reads(model, tmp_path)
    assert (read.cols, read.rows) == (len(model.variables), len(model.constraints))
    assert read.status == "Optimal"
    assert read.objective == pytest.approx(MICRO1_TOTAL, abs=1e-4)


def test_name_mangling_stable(tmp_path):
    mb = ModelBuilder("mangling")
    a = mb.binary("w", "o", "o~", "d1")
    b = mb.binary("w", "A", "B", "d1")
    mb.add([(a, 1.0), (b, 1.0)], ">=", 1.0, "c")
    mb.set_objective([(a, 1.0), (b, 2.0)])
    first, second = tmp_path / "first.lp", tmp_path / "second.lp"
    write_model(mb.build(), first)
    write_model(mb.build(), second)
    assert first.read_bytes() == second.read_bytes()
    assert "w(o_o._d1)" in first.read_text()


def test_highs_backend_switches_off_feasibility_jump(monkeypatch):
    seen = []
    real_milp = backends.scipy_milp

    def recording_milp(**kwargs):
        seen.append(kwargs["options"])
        return real_milp(**kwargs)

    monkeypatch.setattr(backends, "scipy_milp", recording_milp)
    ScipyHighsBackend().solve(tiny_model(), SolveLimits(10.0, 1e-6))
    assert seen and seen[0]["mip_heuristic_run_feasibility_jump"] is False
    monkeypatch.undo()

    # the bundled HiGHS knows the name and the solve warns about nothing; a
    # name it does not know is a backend error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ScipyHighsBackend().solve(tiny_model(), SolveLimits(10.0, 1e-6))
    assert result.status == "optimal"
    monkeypatch.setitem(backends.HIGHS_SETTINGS, "no_such_highs_option", True)
    with pytest.raises(BackendError, match="no_such_highs_option"):
        ScipyHighsBackend().solve(tiny_model(), SolveLimits(10.0, 1e-6))


class _RecordingBackend:
    """Solves through the in-process backend and keeps every model, its limits and
    result, labelled by the run and the model's formulation."""

    def __init__(self):
        self.run = ""
        self.solves = []

    def solve(self, model, limits):
        result = ScipyHighsBackend().solve(model, limits)
        tag = model.metadata["formulation"]
        if tag == "t1-handoff" and "w" in model.registry:
            tag += "/rows"
        self.solves.append((f"{self.run} {tag}", model, limits, result))
        return result


@pytest.fixture(scope="module")
def recorded_solves():
    """Every stage model of d1, d2 and d3 (obj2; d2 also obj1 and obj3), full at
    mu 0 and 0.5 and vrptw on ten micro draws and micro1 with a late trip (the one
    d3 gets past its transit stage), and of d2-obj2 with the truck stage built from
    rows. d1 and d3 fail on most draws; the models they solved are kept."""
    recorder = _RecordingBackend()
    configs = [RunConfig(method="d2", t2_obj=obj) for obj in ("obj1", "obj2", "obj3")]
    configs += [RunConfig(method="full"), RunConfig(method="full", mu=0.5),
                RunConfig(method="vrptw"), RunConfig(method="d1", t2_obj="obj2"),
                RunConfig(method="d3", t2_obj="obj2")]
    instances = generate_micro_instances(10) + [make_micro1(extra_trip_time=550.0)]

    def sweep(configs, suffix=""):
        for n, instance in enumerate(instances):
            for config in configs:
                recorder.run = f"micro{n} {config.label()}{suffix}"
                try:
                    run_method(instance, config, recorder)
                except PipelineError:
                    pass

    sweep(configs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiers, "ROUTE_LABEL_LIMIT", 0)
        sweep([RunConfig(method="d2", t2_obj="obj2")], " rows")
    assert {label.split()[-1] for label, *_ in recorder.solves} == {
        "full", "vrptw", "d1-t1", "d1-t2", "d2-t2", "t1-handoff", "t1-handoff/rows",
        "t3-stopwise", "d3-t3", "d3-t2"}
    assert {label.split()[1] for label, *_ in recorder.solves
            if label.endswith(" full")} == {"full", "full-mu0.5"}
    return recorder.solves


def test_highs_settings_change_no_optimum(monkeypatch, recorded_solves):
    """Every recorded model keeps its status and optimum under HiGHS's default settings."""
    real_milp = backends.scipy_milp

    def highs_defaults(**kwargs):
        options = {k: v for k, v in kwargs.pop("options").items() if k not in HIGHS_SETTINGS}
        return real_milp(options=options, **kwargs)

    monkeypatch.setattr(backends, "scipy_milp", highs_defaults)
    for label, model, limits, result in recorded_solves:
        reference = ScipyHighsBackend().solve(model, limits)
        assert result.status == reference.status, label
        if reference.objective is not None:
            assert result.objective == pytest.approx(reference.objective, abs=1e-6), label


def test_one_backend_solves_every_model_as_a_fresh_one(recorded_solves):
    """One backend, reused for every recorded model in turn, gives each model the
    result a fresh backend gave it (every recorded solve ran on a fresh one)."""
    backend = ScipyHighsBackend()
    for label, model, limits, fresh in recorded_solves:
        result = backend.solve(model, limits)
        assert ((result.status, result.objective, result.best_bound, result.values,
                 result.nodes, result.message)
                == (fresh.status, fresh.objective, fresh.best_bound, fresh.values,
                    fresh.nodes, fresh.message)), label


def test_highs_reads_every_written_model(tmp_path, recorded_solves):
    """HiGHS's reader gets each recorded model back from the file ``write_model``
    writes: the same columns and rows, and the in-process solve's status and optimum."""
    for label, model, limits, result in recorded_solves:
        read = highs_reads(model, tmp_path, limits)
        assert (read.cols, read.rows) == (len(model.variables), len(model.constraints)), label
        assert read.status == result.message, label
        if result.objective is not None:
            assert read.objective == pytest.approx(result.objective, rel=1e-6), label
