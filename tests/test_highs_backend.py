"""The in-process backend against ``scipy.optimize.milp`` on the same HiGHS build.

``milp_reference`` solves a model the way the backend did through scipy's
public ``milp`` wrapper; it is kept here only as the reference the direct
bindings must match exactly.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from transitfreight import backends
from transitfreight.backends import HIGHS_SETTINGS, BackendError, ScipyHighsBackend
from transitfreight.milp import (
    BINARY,
    EQUAL,
    GREATER_EQUAL,
    INF,
    INTEGER,
    LESS_EQUAL,
    ModelBuilder,
    SolveLimits,
    SolveResult,
)
from transitfreight.pipeline import PipelineError, RunConfig, run_method

from conftest import generate_micro_instances


def milp_reference(model, limits: SolveLimits) -> SolveResult:
    n = len(model.variables)
    c = np.zeros(n)
    for var, coeff in model.objective:
        c[var.index] += coeff
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([min(v.ub, 1e30) if v.ub != INF else np.inf for v in model.variables])
    integrality = np.array([1 if v.kind in (BINARY, INTEGER) else 0 for v in model.variables])
    constraints = []
    if model.constraints:
        rows, cols, vals = [], [], []
        lo = np.empty(len(model.constraints))
        hi = np.empty(len(model.constraints))
        for i, con in enumerate(model.constraints):
            for var, coeff in con.terms:
                rows.append(i)
                cols.append(var.index)
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
    values = {}
    if res.x is not None:
        values = {v.name: float(res.x[v.index]) for v in model.variables}
    best_bound = res.mip_dual_bound
    objective = float(res.fun) if res.fun is not None else None
    if res.status == 0:
        status = "optimal"
        if best_bound is None:
            best_bound = objective
    elif res.status == 1:
        status = "feasible" if values else "timeout"
    elif res.status == 2:
        status, values, objective = "infeasible", {}, None
    else:
        status, values, objective = "error", {}, None
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


def test_direct_bindings_match_milp_on_every_stage_model():
    """Every model of d1/d2/d3 under obj1-3, full, full mu=0.5 and vrptw on ten
    micro instances: the same status, objective, bound, values and node count."""
    configs = [RunConfig(method=m, t2_obj=obj) for m in ("d1", "d2", "d3")
               for obj in ("obj1", "obj2", "obj3") if (m, obj) != ("d3", "obj3")]
    configs += [RunConfig(method="full"), RunConfig(method="full", mu=0.5),
                RunConfig(method="vrptw")]
    recorder = _RecordingBackend()
    for instance in generate_micro_instances(10):
        for config in configs:
            try:
                run_method(instance, config, recorder)
            except PipelineError:
                pass
    formulations = {model.metadata["formulation"] for model, _, _ in recorder.solves}
    assert {"full", "vrptw", "d2-t2", "d1-t1", "d1-t2", "d3-t3",
            "t1-handoff", "t3-stopwise"} <= formulations
    for model, limits, result in recorder.solves:
        assert _same_outcome(result, milp_reference(model, limits)), \
            model.metadata["formulation"]


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
    assert result.status == "infeasible" and result.values == {} and result.objective is None
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
    assert result.values == pytest.approx({"x": 4 / 3, "y": 13 / 12})
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
