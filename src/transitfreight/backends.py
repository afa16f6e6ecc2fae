"""MILP solve backend and model export.

Every model is solved in process on the HiGHS build that scipy bundles.
Handing a model to an external solver goes through ``write_model`` (the
``export-lp`` verb), which writes it with HiGHS's own LP or MPS writer.
Both build the same ``HighsLp`` from the model's rows as built: HiGHS takes
the matrix row-wise, so nothing transposes it here. A column is the model's
column number throughout: HiGHS gets the model's per-column bounds and
integrality in that order, and a solve hands back HiGHS's column values as
they are (``SolveResult.values``), which decoders read by column.

The backend calls scipy's private HiGHS bindings,
``scipy.optimize._highspy._core``, the same ones ``scipy.optimize.milp``
calls, without ``milp`` in between. On the small models of the
decomposition stages ``milp``'s own per-call work (input validation, a
sparse-matrix round trip, an options manager built for every option it
checks, dual values and marginals read back) cost more than HiGHS itself:
per call, 0.9 against 2.0 ms for a ``d2-t2`` model of 26 variables, 0.3-0.4
against 1.3-1.7 ms for ``t1-handoff`` and ``t3-stopwise`` models (2-core
machine, scipy 1.17.1, the only version measured). HiGHS gets the columns,
bounds and integrality ``milp`` would build, and the same matrix, passed
row-wise. The bindings are private, so a scipy release may move
them; importing this module then fails naming the missing module.

The bindings are loaded straight from their extension file in scipy's
install, under their own module name, not through ``import scipy.optimize``:
that package's init imports scipy's sparse and linear-algebra stack, which
nothing here uses. It was 0.41-0.44 s of the 0.56-0.61 s that ``import numpy,
scipy, transitfreight`` took; loaded from the file, the import takes about
0.21-0.30 s (same machine and scipy). A later ``import scipy.optimize`` finds
the module in ``sys.modules`` and reuses it, and a copy scipy already imported
is used as is. The parent package ``scipy.optimize._highspy`` does not get a
``_core`` attribute that way; ``from scipy.optimize._highspy import _core``
still finds the module.

Every solve runs under the same fixed settings (``HIGHS_SETTINGS``)
besides the stage's time limit and relative gap. The feasibility-jump
primal heuristic is off: on models of a few dozen variables its start-up
cost was most of each solve, and switching it off changed no optimum.

A ``ScipyHighsBackend`` owns one ``_Highs`` instance and solves every MIP on
it: each solve clears the solver state, sets every option again and passes
its model. Building and freeing an instance took 47-73 µs per solve, and
``clearSolver`` under 2 µs (2-core machine, scipy 1.17.1, HiGHS 1.12); the
``decomposed`` benchmark makes over a thousand solves of 0.3-0.9 ms each. An LP still gets a fresh instance: HiGHS counts an LP's
``time_limit`` on the instance's cumulative run clock (``getRunTime``), which
no ``clear*`` call resets, so on a reused instance an LP would hit its limit
once earlier solves had used that much time. A MIP's limit counts from the
start of its own run. A backend holds solver state between calls, so one
backend must not be shared between threads.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import re
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Protocol

import scipy

from .milp import (
    GREATER_EQUAL,
    INF,
    LESS_EQUAL,
    MilpModel,
    SolveLimits,
    SolveResult,
)

_CORE = "scipy.optimize._highspy._core"


def _load_highs_core():
    """scipy's HiGHS bindings, loaded from their extension file under their own
    name (see the module docstring). A copy already imported is returned as is:
    the bindings' types can be registered only once per process."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:  # scipy before 1.15 bundles HiGHS without these bindings
        raise ImportError(
            f"transitfreight solves through {_CORE}, the HiGHS bindings that scipy "
            f"bundles since 1.15, and finds no _core extension in {folder}; "
            "install scipy>=1.15", name=_CORE)
    spec = importlib.util.spec_from_file_location(_CORE, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return module


highs_core = _load_highs_core()

HIGHS_SETTINGS = {"mip_heuristic_run_feasibility_jump": False}

_STATUS = highs_core.HighsModelStatus
_LIMITS = (_STATUS.kTimeLimit, _STATUS.kIterationLimit)
_VAR_TYPES = (highs_core.HighsVarType.kContinuous, highs_core.HighsVarType.kInteger)


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


def scipy_milp(*, highs, lp, mip: bool, options: dict) -> HighsOutcome:
    """Solve ``lp`` (a ``HighsLp``) on ``highs``, an instance of scipy's bundled HiGHS.

    The instance's solver state (solution, basis, info) is cleared first, so the
    solve starts from nothing an earlier one left. ``options`` go to HiGHS by
    name, in order; one it rejects raises ``BackendError``. A model HiGHS will
    not load reports ``kModelError``.
    """
    highs.clearSolver()
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
    """The model as a ``HighsLp``: the model's columns, the constraint matrix
    row-wise in the model's row and term order; and whether any column is integer."""
    n, constraints = len(model.variables), model.constraints
    if not n:
        raise BackendError("empty model")
    cost = [0.0] * n
    for col, coeff in model.objective:
        cost[col] += coeff
    index = [col for con in constraints for col, _ in con.terms]
    value = [coeff for con in constraints for _, coeff in con.terms]
    starts = [0, *accumulate(len(con.terms) for con in constraints)]
    row_lower = [-INF if con.sense == LESS_EQUAL else con.rhs for con in constraints]
    row_upper = [INF if con.sense == GREATER_EQUAL else con.rhs for con in constraints]

    lp = highs_core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(constraints)
    lp.a_matrix_.format_ = highs_core.MatrixFormat.kRowwise
    lp.col_cost_ = cost
    lp.col_lower_ = model.lower
    lp.col_upper_ = [INF if ub == INF else min(ub, 1e30) for ub in model.upper]
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = starts
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    lp.integrality_ = [_VAR_TYPES[k] for k in model.integer]
    return lp, any(model.integer)


class ScipyHighsBackend:
    """In-process solve on scipy's bundled HiGHS bindings.

    The backend owns one ``_Highs`` instance and solves every MIP on it (see the
    module docstring); an LP gets a fresh instance. Not safe to share between
    threads.
    """

    def __init__(self) -> None:
        self._highs = highs_core._Highs()

    def solve(self, model: MilpModel, limits: SolveLimits) -> SolveResult:
        lp, mip = _highs_lp(model)
        options = {"log_to_console": False, "time_limit": float(limits.time_limit),
                   "mip_rel_gap": float(limits.rel_gap), "presolve": "on", **HIGHS_SETTINGS}
        started = time.perf_counter()
        res = scipy_milp(highs=self._highs if mip else highs_core._Highs(),
                         lp=lp, mip=mip, options=options)
        wall = time.perf_counter() - started

        values = [] if res.x is None else res.x  # HiGHS's col_value, in column order
        best_bound, objective = res.mip_dual_bound, res.fun
        if res.status == _STATUS.kOptimal:
            status = "optimal"
            if best_bound is None:
                best_bound = objective
        elif res.status in _LIMITS:
            status = "feasible" if values else "timeout"
        elif res.status in (_STATUS.kInfeasible, _STATUS.kModelError):
            status = "infeasible"
            values, objective = [], None
        else:
            status = "error"
            values, objective = [], None
        return SolveResult(
            status=status,
            values=values,
            objective=objective,
            best_bound=best_bound,
            wall_time=wall,
            message=res.message,
            nodes=res.mip_node_count,
        )


def solve(model: MilpModel, backend: Backend | None = None,
          limits: SolveLimits | None = None) -> SolveResult:
    """Solve a model, never returning a silently-empty result."""
    backend = backend or ScipyHighsBackend()
    limits = limits or SolveLimits()
    result = backend.solve(model, limits)
    if result.status not in ("optimal", "feasible", "infeasible", "timeout", "error"):
        raise BackendError(f"backend returned unknown status {result.status!r}")
    return result


# ---- export ------------------------------------------------------------

_SAFE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_().#]*$")
_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9_().#]")


def _sanitize_names(variables: list[str]) -> list[str]:
    """Deterministic LP-legal column names, in column order. HiGHS writes the
    model's structured names too, but cannot read its own file back with them."""
    names: list[str] = []
    used: set[str] = set()
    for name in variables:
        name = (name.replace("[", "(").replace("]", ")")
                .replace(",", "_").replace(" ", "_").replace("~", "."))
        if not _SAFE_NAME.match(name):
            name = "v_" + _UNSAFE_CHARS.sub("_", name)
        base, k = name, 1
        while name in used:
            k += 1
            name = f"{base}#{k}"
        used.add(name)
        names.append(name)
    return names


def write_model(model: MilpModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` with HiGHS's own writer, which picks LP or MPS
    from the file's extension. The model is named by its formulation tag, columns
    carry ``_sanitize_names``' names and row ``i`` is named
    ``<sanitized constraint name>#i``.

    HiGHS writes into a fresh directory and the file is then copied to ``path``:
    HiGHS crashes the process when it cannot open its output file, and a file it
    refuses to write (an extension it does not know) leaves nothing at ``path``.
    """
    path = Path(path)
    lp, _ = _highs_lp(model)
    lp.model_name_ = model.metadata["formulation"]
    lp.col_names_ = _sanitize_names(model.variables)
    lp.row_names_ = [f"{_UNSAFE_CHARS.sub('_', con.name) or f'c{i}'}#{i}"
                     for i, con in enumerate(model.constraints)]
    highs = highs_core._Highs()
    highs.setOptionValue("output_flag", False)
    if highs.passModel(lp) == highs_core.HighsStatus.kError:
        raise BackendError(f"HiGHS rejects the model to be written to {path}")
    with tempfile.TemporaryDirectory() as scratch:
        written = Path(scratch) / f"model{path.suffix}"
        if highs.writeModel(str(written)) != highs_core.HighsStatus.kOk:
            raise BackendError(f"HiGHS wrote no model to {path}: it takes the format "
                               "from the extension, .lp or .mps")
        shutil.copyfile(written, path)
