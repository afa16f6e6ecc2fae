"""MILP solve backends.

Two adapters satisfy the same contract: an in-process one on the HiGHS build
that scipy bundles (the default), and a subprocess one that writes an LP
file, invokes an external solver binary, and parses its solution file. The
subprocess command comes from the TRANSITFREIGHT_SOLVER environment
variable or an explicit path; solution parsing reads CBC and HiGHS reports
and plain ``name value`` listings, and reports any other status as an error.

The in-process backend calls scipy's private HiGHS bindings,
``scipy.optimize._highspy._core``, the same ones ``scipy.optimize.milp``
calls, without ``milp`` in between. On the small models of the
decomposition stages ``milp``'s own per-call work (input validation, a
sparse-matrix round trip, an options manager built for every option it
checks, dual values and marginals read back) cost more than HiGHS itself:
per call, 0.9 against 2.0 ms for a ``d2-t2`` model of 26 variables, 0.3-0.4
against 1.3-1.7 ms for ``t1-handoff`` and ``t3-stopwise`` models (2-core
machine, scipy 1.17.1, the only version measured). The model handed to
HiGHS is the one ``milp`` built: the same columns, bounds, integrality and
column-wise matrix. The bindings are private, so a scipy release may move
them; importing this module then fails naming the missing module.

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
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import Protocol

try:
    from scipy.optimize._highspy import _core as highs_core
except ImportError as exc:  # scipy before 1.15 bundles HiGHS without these bindings
    raise ImportError(
        "transitfreight solves through scipy.optimize._highspy._core, the HiGHS "
        "bindings that scipy bundles since 1.15; install scipy>=1.15") from exc

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

_STATUS = highs_core.HighsModelStatus
_LIMITS = (_STATUS.kTimeLimit, _STATUS.kIterationLimit)
_INTEGER_KINDS = (BINARY, INTEGER)


class BackendError(RuntimeError):
    pass


class Backend(Protocol):
    def solve(self, model: MilpModel, limits: SolveLimits) -> SolveResult: ...


@dataclass(frozen=True)
class HighsOutcome:
    """What one HiGHS run reports. ``x`` (column values) and ``fun`` are set only
    with a solution: an optimum, or an incumbent of a MIP that hit a limit; the
    ``mip_*`` fields only for a MIP with a solution."""

    status: object           # HighsModelStatus
    message: str
    x: list[float] | None = None
    fun: float | None = None
    mip_node_count: int | None = None
    mip_dual_bound: float | None = None


def scipy_milp(*, lp, mip: bool, options: dict) -> HighsOutcome:
    """Solve ``lp`` (a ``HighsLp``) on a fresh instance of scipy's bundled HiGHS.

    ``options`` go to HiGHS by name, in order; one it rejects raises
    ``BackendError``. A model HiGHS will not load reports ``kModelError``.
    """
    highs = highs_core._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) == highs_core.HighsStatus.kError:
            raise BackendError(f"HiGHS rejects the setting {name} = {value!r}")
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        return HighsOutcome(_STATUS.kModelError, "model rejected by HiGHS")
    highs.run()
    status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    info = highs.getInfo()
    solved = status == _STATUS.kOptimal or (
        mip and status in _LIMITS and info.objective_function_value != highs_core.kHighsInf)
    if not solved:
        return HighsOutcome(status, message)
    x = highs.getSolution().col_value
    if not mip:
        return HighsOutcome(status, message, x, info.objective_function_value)
    return HighsOutcome(status, message, x, info.objective_function_value,
                        info.mip_node_count, info.mip_dual_bound)


def _highs_lp(model: MilpModel):
    """The model as a ``HighsLp``: columns in variable order, the constraint matrix
    column-wise with each column's rows ascending; and whether any column is integer."""
    variables, constraints = model.variables, model.constraints
    n = len(variables)
    cost = [0.0] * n
    for var, coeff in model.objective:
        cost[var.index] += coeff
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_vals: list[list[float]] = [[] for _ in range(n)]
    row_lower, row_upper = [], []
    for i, con in enumerate(constraints):
        for var, coeff in con.terms:
            col_rows[var.index].append(i)
            col_vals[var.index].append(coeff)
        if con.sense == LESS_EQUAL:
            row_lower.append(-INF)
            row_upper.append(con.rhs)
        elif con.sense == GREATER_EQUAL:
            row_lower.append(con.rhs)
            row_upper.append(INF)
        elif con.sense == EQUAL:
            row_lower.append(con.rhs)
            row_upper.append(con.rhs)
    kinds = [v.kind in _INTEGER_KINDS for v in variables]

    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(constraints)
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kColwise
    lp.col_cost_ = cost
    lp.col_lower_ = [v.lb for v in variables]
    lp.col_upper_ = [INF if v.ub == INF else min(v.ub, 1e30) for v in variables]
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = [0, *accumulate(map(len, col_rows))]
    lp.a_matrix_.index_ = list(chain.from_iterable(col_rows))
    lp.a_matrix_.value_ = list(chain.from_iterable(col_vals))
    integer, continuous = highs_core.HighsVarType.kInteger, highs_core.HighsVarType.kContinuous
    lp.integrality_ = [integer if k else continuous for k in kinds]
    return lp, any(kinds)


class ScipyHighsBackend:
    """In-process solve on scipy's bundled HiGHS bindings."""

    name = "highs"

    def solve(self, model: MilpModel, limits: SolveLimits) -> SolveResult:
        if not model.variables:
            raise BackendError("empty model")
        lp, mip = _highs_lp(model)
        options = {"log_to_console": False, "time_limit": float(limits.time_limit),
                   "mip_rel_gap": float(limits.rel_gap), "presolve": "on", **HIGHS_SETTINGS}
        started = time.perf_counter()
        res = scipy_milp(lp=lp, mip=mip, options=options)
        wall = time.perf_counter() - started

        values: dict[str, float] = {}
        if res.x is not None:
            values = dict(zip([v.name for v in model.variables], res.x))
        best_bound, objective = res.mip_dual_bound, res.fun
        if res.status == _STATUS.kOptimal:
            status = "optimal"
            if best_bound is None:
                best_bound = objective
        elif res.status in _LIMITS:
            status = "feasible" if values else "timeout"
        elif res.status in (_STATUS.kInfeasible, _STATUS.kModelError):
            status = "infeasible"
            values, objective = {}, None
        else:
            status = "error"
            values, objective = {}, None
        return SolveResult(
            status=status,
            values=values,
            objective=objective,
            best_bound=best_bound,
            wall_time=wall,
            message=res.message,
            nodes=res.mip_node_count,
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
