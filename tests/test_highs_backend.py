"""The in-process backend against ``scipy.optimize.milp`` on the same HiGHS build.

``milp_reference`` solves a model the way the backend did through scipy's
public ``milp`` wrapper; it is kept here only as the reference the direct
bindings must match exactly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from transitfreight import backends, tiers
from transitfreight.backends import HIGHS_SETTINGS, BackendError, ScipyHighsBackend
from transitfreight.milp import (
    EQUAL,
    GREATER_EQUAL,
    INF,
    LESS_EQUAL,
    ModelBuilder,
    SolveLimits,
    SolveResult,
)
from transitfreight.pipeline import PipelineError, RunConfig, run_method

from conftest import generate_micro_instances, make_micro1


def milp_reference(model, limits: SolveLimits) -> SolveResult:
    n = len(model.variables)
    c = np.zeros(n)
    for col, coeff in model.objective:
        c[col] += coeff
    lb = np.array(model.lower)
    ub = np.array([min(u, 1e30) if u != INF else np.inf for u in model.upper])
    integrality = np.array([1 if k else 0 for k in model.integer])
    constraints = []
    if model.constraints:
        rows, cols, vals = [], [], []
        lo = np.empty(len(model.constraints))
        hi = np.empty(len(model.constraints))
        for i, con in enumerate(model.constraints):
            for col, coeff in con.terms:
                rows.append(i)
                cols.append(col)
                vals.append(coeff)
            lo[i], hi[i] = {LESS_EQUAL: (-np.inf, con.rhs), GREATER_EQUAL: (con.rhs, np.inf),
                            EQUAL: (con.rhs, con.rhs)}[con.sense]
        matrix = sparse.csc_array((vals, (rows, cols)), shape=(len(model.constraints), n))
        constraints = [LinearConstraint(matrix, lo, hi)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        res = milp(c=c, constraints=constraints, integrality=integrality,
                   bounds=Bounds(lb, ub),
                   options={"time_limit": limits.time_limit, "mip_rel_gap": limits.rel_gap,
                            "presolve": True, "disp": False, **HIGHS_SETTINGS})
    values = []
    if res.x is not None:
        values = [float(x) for x in res.x]
    best_bound = res.mip_dual_bound
    objective = float(res.fun) if res.fun is not None else None
    if res.status == 0:
        status = "optimal"
        if best_bound is None:
            best_bound = objective
    elif res.status == 1:
        status = "feasible" if values else "timeout"
    elif res.status == 2:
        status, values, objective = "infeasible", [], None
    else:
        status, values, objective = "error", [], None
    return SolveResult(status, values, objective, best_bound, 0.0, str(res.message),
                       res.mip_node_count)


class _RecordingBackend:
    def __init__(self):
        self.solves = []

    def solve(self, model, limits):
        result = ScipyHighsBackend().solve(model, limits)
        self.solves.append((model, limits, result))
        return result


def _same_outcome(result: SolveResult, reference: SolveResult) -> bool:
    return ((result.status, result.objective, result.best_bound, result.values, result.nodes)
            == (reference.status, reference.objective, reference.best_bound,
                reference.values, reference.nodes))


def _formulation(model) -> str:
    """The model's formulation tag; the truck stage built from rows is ``t1-handoff/rows``."""
    tag = model.metadata["formulation"]
    if tag == "t1-handoff" and "w" in model.registry:
        tag += "/rows"
    return tag


def test_direct_bindings_match_milp_on_every_stage_model(monkeypatch):
    """Every model of d1/d2/d3 under obj1-3, full, full mu=0.5 and vrptw on ten
    micro instances and micro1 with a late trip (the one d3 gets past its transit
    stage), and of d2 with the truck stage built from rows: the same status,
    objective, bound, values and node count."""
    configs = [RunConfig(method=m, t2_obj=obj) for m in ("d1", "d2", "d3")
               for obj in ("obj1", "obj2", "obj3") if (m, obj) != ("d3", "obj3")]
    configs += [RunConfig(method="full"), RunConfig(method="full", mu=0.5),
                RunConfig(method="vrptw")]
    instances = generate_micro_instances(10) + [make_micro1(extra_trip_time=550.0)]
    recorder = _RecordingBackend()

    def sweep(configs):
        for instance in instances:
            for config in configs:
                try:
                    run_method(instance, config, recorder)
                except PipelineError:
                    pass

    sweep(configs)
    monkeypatch.setattr(tiers, "ROUTE_LABEL_LIMIT", 0)
    sweep([config for config in configs if config.method == "d2"])
    formulations = {_formulation(model) for model, _, _ in recorder.solves}
    assert {"full", "vrptw", "d2-t2", "d1-t1", "d1-t2", "d3-t3", "d3-t2",
            "t1-handoff", "t1-handoff/rows", "t3-stopwise"} <= formulations
    for model, limits, result in recorder.solves:
        assert _same_outcome(result, milp_reference(model, limits)), _formulation(model)


def test_infeasible_model_matches_milp():
    mb = ModelBuilder("infeasible")
    x, y = mb.binary("x"), mb.binary("y")
    z = mb.integer("z", ub=3.0)
    mb.add([(x, 1.0), (y, 1.0)], ">=", 2.0, "both")
    mb.add([(x, 1.0), (z, 1.0)], "<=", 1.5, "cap")
    mb.add([(z, 1.0)], ">=", 0.6, "z_min")
    mb.set_objective([(x, 1.0), (y, 2.0), (z, 1.0)])
    model = mb.build()
    limits = SolveLimits(10.0, 1e-6)
    result = ScipyHighsBackend().solve(model, limits)
    assert result.status == "infeasible" and result.values == [] and result.objective is None
    assert _same_outcome(result, milp_reference(model, limits))


def test_all_continuous_lp_matches_milp():
    mb = ModelBuilder("lp")
    x = mb.continuous("x", ub=4.0)
    y = mb.continuous("y", lb=-2.0)
    mb.add([(x, 1.0), (y, 2.0)], ">=", 3.5, "cover")
    mb.add([(x, 1.0), (y, -1.0)], "=", 0.25, "tie")
    mb.set_objective([(x, 3.0), (y, 1.0)])
    model = mb.build()
    limits = SolveLimits(10.0, 1e-6)
    result = ScipyHighsBackend().solve(model, limits)
    assert result.status == "optimal"
    assert result.best_bound == result.objective and result.nodes is None
    assert result.values == pytest.approx([4 / 3, 13 / 12])
    assert _same_outcome(result, milp_reference(model, limits))


def test_a_setting_highs_rejects_raises(monkeypatch):
    mb = ModelBuilder("tiny")
    x = mb.binary("x")
    mb.add([(x, 1.0)], ">=", 1.0, "on")
    mb.set_objective([(x, 1.0)])
    model = mb.build()
    monkeypatch.setitem(backends.HIGHS_SETTINGS, "mip_rel_gap", "tight")
    with pytest.raises(BackendError, match="mip_rel_gap"):
        ScipyHighsBackend().solve(model, SolveLimits(10.0, 1e-6))


def _run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter on this checkout's ``src``."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_import_leaves_scipy_optimize_unloaded_and_shares_the_bindings():
    """Importing the package loads the HiGHS bindings without ``scipy.optimize``;
    importing that later reuses the same module, and both ``milp`` and the
    backend solve in that process."""
    _run_fresh("""
        import sys
        import transitfreight
        from transitfreight.backends import ScipyHighsBackend, highs_core
        assert "scipy.optimize" not in sys.modules

        import numpy as np
        import scipy.optimize
        from scipy.optimize._highspy import _core
        assert _core is highs_core
        assert sys.modules["scipy.optimize._highspy._core"] is highs_core
        res = scipy.optimize.milp(
            c=[-1.0, -2.0], integrality=[1, 1], bounds=scipy.optimize.Bounds(0, 2),
            constraints=[scipy.optimize.LinearConstraint([[1.0, 1.0]], -np.inf, 3.5)])
        assert res.status == 0 and list(res.x) == [1.0, 2.0] and res.fun == -5.0

        from transitfreight.milp import ModelBuilder, SolveLimits
        mb = ModelBuilder("micro")
        x, y = mb.binary("x"), mb.integer("y", ub=3.0)
        mb.add([(x, 1.0), (y, 1.0)], ">=", 2.5, "cover")
        mb.set_objective([(x, 2.0), (y, 1.0)])
        result = ScipyHighsBackend().solve(mb.build(), SolveLimits(10.0, 1e-6))
        assert result.status == "optimal" and result.objective == 3.0, result
        assert result.values == [0.0, 3.0], result
    """)


def test_bindings_imported_by_scipy_first_are_reused():
    _run_fresh("""
        import sys
        import scipy.optimize
        from scipy.optimize._highspy import _core
        from transitfreight import backends
        assert backends.highs_core is _core
        assert sys.modules["scipy.optimize._highspy._core"] is _core
    """)


def test_a_scipy_without_the_bindings_fails_naming_the_directory(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    monkeypatch.setattr(backends.scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match="scipy>=1.15") as raised:
        backends._load_highs_core()
    assert str(tmp_path / "optimize" / "_highspy") in str(raised.value)
    assert raised.value.name == "scipy.optimize._highspy._core"
