"""Solver-agnostic MILP intermediate representation.

Models are built once, immutably, and handed to a backend. A column is a
number, its place in the model: constraints and the objective hold (column,
coefficient) pairs, a per-family registry maps index tuples to columns, and a
solution is a list of values in column order. Column names like
``y1[c3,s2,p7]`` are kept for messages and for the model files
``backends.write_model`` writes. Constraints are kept as rows, in the order
they were added; the backend hands them to HiGHS row-wise as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

INF = math.inf

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="

_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class ModelError(ValueError):
    """Raised for malformed models or model documents."""


@dataclass(frozen=True, slots=True)
class LinConstraint:
    terms: tuple[tuple[int, float], ...]  # (column, coefficient)
    sense: str
    rhs: float
    name: str

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ModelError(f"constraint {self.name}: bad sense {self.sense!r}")
        if not math.isfinite(self.rhs):
            raise ModelError(f"constraint {self.name}: non-finite rhs")


@dataclass
class MilpModel:
    """Immutable-by-convention minimization model. ``variables`` (the column names),
    ``lower``, ``upper`` and ``integer`` are per-column lists, in column order."""

    variables: list[str] = field(default_factory=list)
    lower: list[float] = field(default_factory=list)
    upper: list[float] = field(default_factory=list)
    integer: list[bool] = field(default_factory=list)
    constraints: list[LinConstraint] = field(default_factory=list)
    objective: list[tuple[int, float]] = field(default_factory=list)  # (column, coefficient)
    nnz: int = 0  # nonzeros over all rows
    metadata: dict = field(default_factory=dict)
    # family name -> index tuple -> column, for decoding solutions
    registry: dict[str, dict[tuple, int]] = field(default_factory=dict)

    def family(self, name: str) -> dict[tuple, int]:
        return self.registry.get(name, {})


class ModelBuilder:
    """Incrementally builds a MilpModel; each new variable is the next column."""

    def __init__(self, tag: str) -> None:
        self._model = MilpModel(metadata={"formulation": tag})

    def _new_var(self, family: str, idx: tuple, integer: bool, lb: float, ub: float) -> int:
        model = self._model
        name = f"{family}[{','.join(str(i) for i in idx)}]" if idx else family
        columns = model.registry.setdefault(family, {})
        if idx in columns:
            raise ModelError(f"duplicate variable {name}")
        col = columns[idx] = len(model.variables)
        model.variables.append(name)
        model.lower.append(lb)
        model.upper.append(ub)
        model.integer.append(integer)
        return col

    def binary(self, family: str, *idx) -> int:
        return self._new_var(family, idx, True, 0.0, 1.0)

    def continuous(self, family: str, *idx, lb: float = 0.0, ub: float = INF) -> int:
        return self._new_var(family, idx, False, lb, ub)

    def integer(self, family: str, *idx, lb: float = 0.0, ub: float = INF) -> int:
        return self._new_var(family, idx, True, lb, ub)

    def canonical_terms(self, terms: list[tuple[int, float]]) -> list[tuple[int, float]]:
        """Merge repeated columns; drop zero coefficients; keep first-seen order."""
        merged: dict[int, float] = {}
        for col, coeff in terms:
            if not math.isfinite(coeff):
                raise ModelError(f"non-finite coefficient on {self._model.variables[col]}")
            # a column's first coefficient is kept as is, not copied into a new float
            merged[col] = merged[col] + coeff if col in merged else coeff
        return [(col, c) for col, c in merged.items() if c != 0.0]

    def add(self, terms: list[tuple[int, float]], sense: str, rhs: float, name: str) -> None:
        canon = self.canonical_terms(terms)
        self._model.constraints.append(LinConstraint(tuple(canon), sense, float(rhs), name))
        self._model.nnz += len(canon)

    def set_objective(self, terms: list[tuple[int, float]]) -> None:
        self._model.objective = self.canonical_terms(terms)

    def get(self, family: str, *idx) -> int | None:
        """The column of ``family[idx]``, or None; column 0 is falsy, so test with ``is None``."""
        return self._model.family(family).get(idx)

    def family_items(self, family: str) -> list[tuple[tuple, int]]:
        return list(self._model.family(family).items())

    def build(self, **metadata) -> MilpModel:
        self._model.metadata.update(metadata)
        return self._model


@dataclass
class SolveResult:
    status: str                      # optimal | feasible | infeasible | timeout | error
    values: list[float]              # column values in column order; [] without an incumbent
    objective: float | None
    best_bound: float | None
    wall_time: float
    message: str = ""
    nodes: int | None = None         # branch-and-bound nodes of a MIP solve that has a solution

    def has_solution(self) -> bool:
        return self.status in ("optimal", "feasible")


@dataclass(frozen=True)
class SolveLimits:
    time_limit: float = 60.0  # seconds per model, desk scale
    rel_gap: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.time_limit > 0 and self.rel_gap >= 0):  # NaN fails both tests
            raise ModelError(f"solve limits need a positive time limit and a nonnegative "
                             f"gap, not {self.time_limit!r} and {self.rel_gap!r}")

