import sys
import textwrap
import warnings

import pytest
from scipy.optimize import OptimizeWarning

from transitfreight import backends
from transitfreight.backends import (
    HIGHS_SETTINGS,
    ScipyHighsBackend,
    SubprocessBackend,
    get_backend,
    parse_solution_text,
    solve,
)
from transitfreight.compat import derive_compatibility
from transitfreight.instance import CostParams
from transitfreight.milp import (
    ModelBuilder,
    ModelError,
    SolveLimits,
    VarRef,
    big_M,
    parse_lp,
    write_lp,
)
from transitfreight.model_full import build_full
from transitfreight.pipeline import RunConfig, run_method

from conftest import MICRO1_TOTAL, generate_micro_instances


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
    assert result.values == {}


def test_objective_roundtrip_matches_reported(backend, micro1):
    model = build_full(micro1, derive_compatibility(micro1))
    result = solve(model, backend)
    assert result.status == "optimal"
    recomputed = model.objective_value(result.values)
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


def test_binary_bounds_enforced():
    with pytest.raises(ModelError):
        VarRef(index=0, name="x", kind="binary", lb=0.0, ub=2.0)


def test_big_m_rules():
    assert big_M(CostParams()) == 1000.0  # horizon 900 dominated
    wide = CostParams(period_length=30.0, period_count=67)  # horizon 2010
    with pytest.warns(UserWarning, match="insufficient"):
        lifted = big_M(wide)
    assert lifted == pytest.approx(2011.0)


# ---- LP text ------------------------------------------------------------


def test_write_lp_sections():
    text = write_lp(tiny_model())
    assert "Minimize" in text
    assert "Subject To" in text
    assert "Binary" in text
    assert text.endswith("End\n")


def test_write_lp_deterministic(micro1):
    model = build_full(micro1, derive_compatibility(micro1))
    assert write_lp(model) == write_lp(model)


def test_lp_reimport_trivial(backend):
    model = tiny_model()
    again = parse_lp(write_lp(model))
    result = solve(again, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(1.0)


def test_lp_reimport_full_micro1(backend, micro1):
    model = build_full(micro1, derive_compatibility(micro1))
    again = parse_lp(write_lp(model))
    assert len(again.variables) == len(model.variables)
    assert len(again.constraints) == len(model.constraints)
    result = solve(again, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(MICRO1_TOTAL, abs=1e-4)


def test_name_mangling_stable():
    mb = ModelBuilder("mangling")
    a = mb.binary("w", "o", "o~", "d1")
    b = mb.binary("w", "A", "B", "d1")
    mb.add([(a, 1.0), (b, 1.0)], ">=", 1.0, "c")
    mb.set_objective([(a, 1.0), (b, 2.0)])
    first = write_lp(mb.build())
    second = write_lp(mb.build())
    assert first == second
    assert "w(o_o._d1)" in first


# ---- solution report parsing ---------------------------------------------


def test_parse_cbc_style_report():
    model = tiny_model()
    report = textwrap.dedent("""\
        Optimal - objective value 1.00000000
              0 x                     1                      0
    """)
    status, values, objective = parse_solution_text(report, model)
    assert status == "optimal"
    assert values["x"] == pytest.approx(1.0)
    assert objective == pytest.approx(1.0)


def test_parse_highs_style_report():
    model = tiny_model()
    report = textwrap.dedent("""\
        Model status
        Optimal

        # Primal solution values
        Feasible
        Objective 1
        # Columns 1
        x 1
        # Rows 1
        floor#0 1
    """)
    status, values, objective = parse_solution_text(report, model)
    assert status == "optimal"
    assert values["x"] == pytest.approx(1.0)
    assert objective == pytest.approx(1.0)


def test_parse_bare_pairs_report():
    model = tiny_model()
    status, values, objective = parse_solution_text("x 1\n", model)
    assert status == "feasible"
    assert values["x"] == pytest.approx(1.0)
    assert objective is None


def test_parse_infeasible_report():
    model = tiny_model()
    status, values, _ = parse_solution_text("Infeasible - objective value 0\n", model)
    assert status == "infeasible"
    assert values == {}


def test_parse_cbc_time_limit_report():
    model = tiny_model()
    stopped = "Stopped on time - objective value 1.00000000\n"
    status, values, objective = parse_solution_text(
        stopped + "      0 x                     1                      0\n", model)
    assert status == "feasible"
    assert values["x"] == pytest.approx(1.0)
    assert objective == pytest.approx(1.0)
    status, values, _ = parse_solution_text(stopped, model)
    assert (status, values) == ("timeout", {})


def test_parse_highs_time_limit_report():
    model = tiny_model()
    header = "Model status\nTime limit reached\n\n# Primal solution values\n"
    status, values, objective = parse_solution_text(
        header + "Feasible\nObjective 1\n# Columns 1\nx 1\n", model)
    assert status == "feasible"
    assert values["x"] == pytest.approx(1.0)
    assert objective == pytest.approx(1.0)
    status, values, _ = parse_solution_text(header + "None\n", model)
    assert (status, values) == ("timeout", {})


def test_parse_unknown_status_is_an_error():
    model = tiny_model()
    # an unrecognised status line is not guessed at, even with values after it
    for report in ("Time limit hit, no proof of optimality\nx 1\n",
                   "Model status\nUnbounded\nx 1\n"):
        status, values, _ = parse_solution_text(report, model)
        assert (status, values) == ("error", {}), report


STUB_SOLVER = """\
import sys
from transitfreight.backends import ScipyHighsBackend
from transitfreight.milp import SolveLimits, parse_lp

model = parse_lp(open(sys.argv[1]).read())
result = ScipyHighsBackend().solve(model, SolveLimits(30.0, 1e-6))
with open(sys.argv[2], "w") as out:
    if result.status == "infeasible":
        out.write("Infeasible - objective value 0\\n")
    else:
        out.write(f"Optimal - objective value {result.objective}\\n")
        for i, var in enumerate(model.variables):
            out.write(f"{i} {var.name} {result.values[var.name]} 0\\n")
"""


def test_subprocess_backend_end_to_end(tmp_path, micro1):
    stub = tmp_path / "stub_solver.py"
    stub.write_text(STUB_SOLVER, encoding="utf-8")
    backend = SubprocessBackend(command=f"{sys.executable} {stub}")
    model = build_full(micro1, derive_compatibility(micro1))
    result = backend.solve(model, SolveLimits(60.0, 1e-6))
    assert result.status == "optimal"
    assert result.objective == pytest.approx(MICRO1_TOTAL, abs=1e-4)
    assert len(result.values) == len(model.variables)


def test_subprocess_backend_crash_is_error(tmp_path):
    bad = tmp_path / "crash.py"
    bad.write_text("import sys; sys.exit(3)\n", encoding="utf-8")
    backend = SubprocessBackend(command=f"{sys.executable} {bad}")
    result = backend.solve(tiny_model(), SolveLimits(10.0, 1e-6))
    assert result.status == "error"
    assert "no solution output" in result.message


def test_backend_resolution(monkeypatch, tmp_path):
    assert isinstance(get_backend(None), ScipyHighsBackend)
    assert isinstance(get_backend("highs"), ScipyHighsBackend)
    sub = get_backend("subprocess:/usr/bin/false")
    assert isinstance(sub, SubprocessBackend)
    monkeypatch.setenv("TRANSITFREIGHT_SOLVER", str(tmp_path / "solver"))
    assert isinstance(get_backend("subprocess"), SubprocessBackend)
    with pytest.raises(Exception):
        get_backend("nonsense")


def test_subprocess_highs_gets_the_gap_and_settings_in_an_options_file(tmp_path):
    backend = SubprocessBackend(command="highs --random_seed 0")
    lp_path, sol_path = str(tmp_path / "model.lp"), str(tmp_path / "model.sol")
    argv = backend._argv(lp_path, sol_path, SolveLimits(30.0, 1e-6))
    options_path = str(tmp_path / "highs.opt")
    assert argv == ["highs", "--random_seed", "0", lp_path, "--time_limit", "30.0",
                    "--options_file", options_path, "--solution_file", sol_path]
    assert (tmp_path / "highs.opt").read_text(encoding="utf-8") == (
        "mip_rel_gap = 1e-06\n"
        "mip_heuristic_run_feasibility_jump = false\n")


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

    # scipy's notice that it passes the key on verbatim is filtered, and the
    # bundled HiGHS knows the name: an unknown one raises OptimizeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ScipyHighsBackend().solve(tiny_model(), SolveLimits(10.0, 1e-6))
    assert result.status == "optimal"
    monkeypatch.setitem(backends.HIGHS_SETTINGS, "no_such_highs_option", True)
    with pytest.warns(OptimizeWarning):
        ScipyHighsBackend().solve(tiny_model(), SolveLimits(10.0, 1e-6))


class _RecordingBackend:
    """Solves through the in-process backend and keeps every model and result."""

    def __init__(self):
        self.solves = []

    def solve(self, model, limits):
        result = ScipyHighsBackend().solve(model, limits)
        self.solves.append((model, limits, result))
        return result


def test_highs_settings_change_no_optimum(monkeypatch):
    """d2-t2 under obj1-3, t1-handoff, t3-stopwise, full and vrptw models keep
    their status and optimum under HiGHS's default settings."""
    recorder = _RecordingBackend()
    configs = [RunConfig(method="d2", t2_obj=obj) for obj in ("obj1", "obj2", "obj3")]
    configs += [RunConfig(method="full"), RunConfig(method="vrptw")]
    labels = []
    for n, instance in enumerate(generate_micro_instances(10)):
        for config in configs:
            _plan, metrics = run_method(instance, config, recorder)
            labels += [f"micro{n} {config.label()} {s.stage}" for s in metrics.stages]
    assert len(labels) == len(recorder.solves)
    assert {label.split()[-1].split("[")[0] for label in labels} == {
        "t2", "t1", "t3", "full", "vrptw"}

    real_milp = backends.scipy_milp

    def highs_defaults(**kwargs):
        options = {k: v for k, v in kwargs.pop("options").items() if k not in HIGHS_SETTINGS}
        return real_milp(options=options, **kwargs)

    monkeypatch.setattr(backends, "scipy_milp", highs_defaults)
    for label, (model, limits, result) in zip(labels, recorder.solves):
        reference = ScipyHighsBackend().solve(model, limits)
        assert result.status == reference.status, label
        if reference.objective is not None:
            assert result.objective == pytest.approx(reference.objective, abs=1e-6), label
