"""MILP solve backends.

Two adapters satisfy the same contract: an in-process one built on
scipy's HiGHS interface (the default), and a subprocess one that writes an
LP file, invokes an external solver binary, and parses its solution file.
The subprocess command comes from the TRANSITFREIGHT_SOLVER environment
variable or an explicit path; solution parsing reads CBC and HiGHS reports
and plain ``name value`` listings, and reports any other status as an error.

Both HiGHS paths solve under the same fixed settings (``HIGHS_SETTINGS``)
besides the stage's time limit and relative gap. The feasibility-jump
primal heuristic is off: on models of a few dozen variables its start-up
cost was most of each solve, and switching it off changed no optimum.
"""

from __future__ import annotations

import os
import re
import subprocess
import tempfile
import time
import warnings
from pathlib import Path
from typing import Protocol

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint
from scipy.optimize import milp as scipy_milp

from .milp import (
    BINARY,
    EQUAL,
    GREATER_EQUAL,
    INF,
    INTEGER,
    LESS_EQUAL,
    MilpModel,
    SolveLimits,
    SolveResult,
    _sanitize_names,
    write_lp,
)

SOLVER_ENV_VAR = "TRANSITFREIGHT_SOLVER"

HIGHS_SETTINGS = {"mip_heuristic_run_feasibility_jump": False}

# scipy's milp warns with a RuntimeWarning before it passes a key it does not
# list itself (any of HIGHS_SETTINGS) to HiGHS verbatim. Only that notice is
# silenced: HiGHS rejecting a name raises scipy's OptimizeWarning instead,
# which stays visible.
_VERBATIM_NOTICE = "Unrecognized options detected"


class BackendError(RuntimeError):
    pass


class Backend(Protocol):
    def solve(self, model: MilpModel, limits: SolveLimits) -> SolveResult: ...


class ScipyHighsBackend:
    """In-process solve via scipy.optimize.milp (HiGHS)."""

    name = "highs"

    def solve(self, model: MilpModel, limits: SolveLimits) -> SolveResult:
        n = len(model.variables)
        if n == 0:
            raise BackendError("empty model")
        c = np.zeros(n)
        for var, coeff in model.objective:
            c[var.index] += coeff
        lb = np.array([v.lb for v in model.variables])
        ub = np.array([min(v.ub, 1e30) if v.ub != INF else np.inf for v in model.variables])
        integrality = np.array(
            [1 if v.kind in (BINARY, INTEGER) else 0 for v in model.variables])

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
                if con.sense == LESS_EQUAL:
                    lo[i], hi[i] = -np.inf, con.rhs
                elif con.sense == GREATER_EQUAL:
                    lo[i], hi[i] = con.rhs, np.inf
                elif con.sense == EQUAL:
                    lo[i], hi[i] = con.rhs, con.rhs
            matrix = sparse.csc_array(
                (vals, (rows, cols)), shape=(len(model.constraints), n))
            constraints = [LinearConstraint(matrix, lo, hi)]

        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _VERBATIM_NOTICE, RuntimeWarning)
            res = scipy_milp(
                c=c,
                constraints=constraints,
                integrality=integrality,
                bounds=Bounds(lb, ub),
                options={
                    "time_limit": limits.time_limit,
                    "mip_rel_gap": limits.rel_gap,
                    "presolve": True,
                    "disp": False,
                    **HIGHS_SETTINGS,
                },
            )
        wall = time.perf_counter() - started

        values: dict[str, float] = {}
        if res.x is not None:
            values = {v.name: float(res.x[v.index]) for v in model.variables}
        best_bound = getattr(res, "mip_dual_bound", None)
        objective = float(res.fun) if res.fun is not None else None
        if res.status == 0:
            status = "optimal"
            if best_bound is None:
                best_bound = objective
        elif res.status == 1:
            status = "feasible" if values else "timeout"
        elif res.status == 2:
            status = "infeasible"
            values, objective = {}, None
        else:
            status = "error"
            values, objective = {}, None
        return SolveResult(
            status=status,
            values=values,
            objective=objective,
            best_bound=float(best_bound) if best_bound is not None else None,
            wall_time=wall,
            message=str(res.message),
        )


_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_OBJECTIVE_LINE = re.compile(r"objective(?:\s+value)?\s*[:=]?\s*([+-]?[0-9.eE+-]+)", re.IGNORECASE)
# CBC states the outcome at the start of the report's first line
_CBC_STATUS = (("Optimal -", "optimal"), ("Infeasible -", "infeasible"),
               ("Stopped on time", "limit"), ("Stopped on iterations", "limit"))
# HiGHS states it on the line after a "Model status" header
_HIGHS_STATUS = {"Optimal": "optimal", "Infeasible": "infeasible", "Time limit reached": "limit"}


def _report_status(lines: list[str]) -> str | None:
    """The status a report declares, from its first lines.

    One of optimal, infeasible, limit (the solve stopped early), None for a
    bare ``name value`` listing, or error for any other text.
    """
    first = lines[0]
    for prefix, status in _CBC_STATUS:
        if first.startswith(prefix):
            return status
    if first == "Model status":
        return _HIGHS_STATUS.get(lines[1] if len(lines) > 1 else "", "error")
    tokens = first.split()
    if len(tokens) == 2 and _NUMBER.match(tokens[1]):
        return None
    return "error"


def parse_solution_text(text: str, model: MilpModel) -> tuple[str, dict[str, float], float | None]:
    """Extract (status, values, objective) from a solver's solution report.

    Reads CBC and HiGHS solution reports, whose status is recognised exactly,
    and bare ``name value`` pair listings, which count as feasible; any other
    status is an error. Variable names are matched through the same
    sanitization used by write_lp. Missing variables default to zero.
    """
    sanitized = _sanitize_names(model.variables)
    back = {v: k for k, v in sanitized.items()}
    lines = [raw.strip() for raw in text.splitlines() if raw.strip()]
    if not lines:
        return "error", {}, None
    status = _report_status(lines)
    objective: float | None = None
    values: dict[str, float] = {}

    for line in lines:
        if objective is None:
            match = _OBJECTIVE_LINE.search(line)
            if match:
                try:
                    objective = float(match.group(1))
                except ValueError:
                    pass
        if line.startswith(("#", "//")):
            continue
        tokens = line.split()
        for i, tok in enumerate(tokens):
            if tok in back and i + 1 < len(tokens) and _NUMBER.match(tokens[i + 1]):
                values[back[tok]] = float(tokens[i + 1])
                break

    if status == "infeasible":
        return "infeasible", {}, None
    if status == "error" or not values:
        # an unknown status, or a known one without values, is a malformed
        # report; only a limit hit before any incumbent has no values
        return ("timeout" if status == "limit" else "error"), {}, objective
    full = {v.name: values.get(v.name, 0.0) for v in model.variables}
    return ("optimal" if status == "optimal" else "feasible"), full, objective


class SubprocessBackend:
    """Write LP, run an external solver executable, parse its solution file."""

    name = "subprocess"

    def __init__(self, command: str | None = None):
        command = command or os.environ.get(SOLVER_ENV_VAR)
        if not command:
            raise BackendError(
                f"no solver binary configured; set {SOLVER_ENV_VAR} or pass a path")
        self.command = command

    def _argv(self, lp_path: str, sol_path: str, limits: SolveLimits) -> list[str]:
        """The solver's command line; for HiGHS, also writes its options file
        next to the LP file."""
        stem = Path(self.command.split()[0]).name.lower()
        head = self.command.split()
        if "cbc" in stem:
            return head + [lp_path, "-seconds", str(limits.time_limit),
                           "-ratioGap", str(limits.rel_gap), "-solve",
                           "-solution", sol_path]
        if "highs" in stem:
            options_path = os.path.join(os.path.dirname(lp_path), "highs.opt")
            settings = {"mip_rel_gap": limits.rel_gap, **HIGHS_SETTINGS}
            Path(options_path).write_text(
                "".join(f"{name} = {str(value).lower()}\n" for name, value in settings.items()),
                encoding="utf-8")
            return head + [lp_path, "--time_limit", str(limits.time_limit),
                           "--options_file", options_path, "--solution_file", sol_path]
        return head + [lp_path, sol_path]

    def solve(self, model: MilpModel, limits: SolveLimits) -> SolveResult:
        started = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="tfsolve_") as tmp:
            lp_path = os.path.join(tmp, "model.lp")
            sol_path = os.path.join(tmp, "model.sol")
            Path(lp_path).write_text(write_lp(model), encoding="utf-8")
            argv = self._argv(lp_path, sol_path, limits)
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True,
                    timeout=limits.time_limit + 60)
            except (OSError, subprocess.TimeoutExpired) as exc:
                return SolveResult(
                    status="error", values={}, objective=None, best_bound=None,
                    wall_time=time.perf_counter() - started,
                    message=f"solver invocation failed: {exc}")
            report = ""
            if os.path.exists(sol_path):
                report = Path(sol_path).read_text(encoding="utf-8")
            if not report.strip():
                report = proc.stdout
            if not report.strip():
                return SolveResult(
                    status="error", values={}, objective=None, best_bound=None,
                    wall_time=time.perf_counter() - started,
                    message=f"solver produced no solution output "
                            f"(rc={proc.returncode}, stderr={proc.stderr[-500:]})")
            status, values, objective = parse_solution_text(report, model)
            if values and objective is None:
                objective = model.objective_value(values)
            return SolveResult(
                status=status,
                values=values,
                objective=objective,
                best_bound=objective if status == "optimal" else None,
                wall_time=time.perf_counter() - started,
                message=f"rc={proc.returncode}")


def get_backend(spec: str | None = None) -> Backend:
    """Resolve a backend from a CLI-style spec string."""
    if spec in (None, "", "highs", "scipy", "default"):
        return ScipyHighsBackend()
    if spec == "subprocess":
        return SubprocessBackend()
    if spec.startswith("subprocess:"):
        return SubprocessBackend(spec.split(":", 1)[1])
    raise BackendError(f"unknown backend {spec!r}")


def solve(model: MilpModel, backend: Backend | None = None,
          limits: SolveLimits | None = None) -> SolveResult:
    """Solve a model, never returning a silently-empty result."""
    backend = backend or ScipyHighsBackend()
    limits = limits or SolveLimits()
    result = backend.solve(model, limits)
    if result.status not in ("optimal", "feasible", "infeasible", "timeout", "error"):
        raise BackendError(f"backend returned unknown status {result.status!r}")
    return result
