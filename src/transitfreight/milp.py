"""Solver-agnostic MILP intermediate representation.

Models are built once, immutably, and handed to a backend. Variables carry
structured names like ``y1[c3,s2,p7]`` so solutions can be traced back to
model families; a per-family registry on the model maps index tuples to
variables. ``write_lp`` emits deterministic CPLEX-LP text for external
solvers (the subprocess backend, ``export-lp``); only real solvers read it
back, the tests through HiGHS's own LP reader.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

INF = math.inf

BINARY = "binary"
CONTINUOUS = "continuous"
INTEGER = "integer"

LESS_EQUAL = "<="
EQUAL = "="
GREATER_EQUAL = ">="

_SENSES = (LESS_EQUAL, EQUAL, GREATER_EQUAL)


class ModelError(ValueError):
    """Raised for malformed models or model documents."""


@dataclass(frozen=True, slots=True)
class VarRef:
    index: int
    name: str
    kind: str            # binary | continuous | integer
    lb: float = 0.0
    ub: float = INF

    def __post_init__(self) -> None:
        if self.kind == BINARY and (self.lb, self.ub) != (0.0, 1.0):
            raise ModelError(f"binary variable {self.name} must have bounds [0, 1]")

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VarRef):
            return NotImplemented
        return self.index == other.index and self.name == other.name


Term = tuple[VarRef, float]


def canonical_terms(terms: list[Term]) -> list[Term]:
    """Merge duplicate variables; drop zero coefficients; keep first-seen order."""
    merged: dict[int, float] = {}
    refs: dict[int, VarRef] = {}
    for var, coeff in terms:
        if not math.isfinite(coeff):
            raise ModelError(f"non-finite coefficient on {var.name}")
        merged[var.index] = merged.get(var.index, 0.0) + coeff
        refs.setdefault(var.index, var)
    return [(refs[i], c) for i, c in merged.items() if c != 0.0]


@dataclass(frozen=True, slots=True)
class LinConstraint:
    terms: tuple[Term, ...]
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
    """Immutable-by-convention minimization model."""

    variables: list[VarRef]
    constraints: list[LinConstraint]
    objective: list[Term]
    metadata: dict = field(default_factory=dict)
    # family name -> index tuple -> variable, for decoding solutions
    registry: dict[str, dict[tuple, VarRef]] = field(default_factory=dict)
    nnz: int = -1  # nonzeros over all rows; counted here unless the builder passes it

    def __post_init__(self) -> None:
        if self.nnz < 0:
            self.nnz = sum(len(con.terms) for con in self.constraints)

    def family(self, name: str) -> dict[tuple, VarRef]:
        return self.registry.get(name, {})

    def objective_value(self, values: dict[str, float]) -> float:
        return sum(coeff * values[var.name] for var, coeff in self.objective)


class ModelBuilder:
    """Incrementally builds a MilpModel with structured variable names."""

    def __init__(self, tag: str) -> None:
        self._tag = tag
        self._variables: list[VarRef] = []
        self._names: set[str] = set()
        self._constraints: list[LinConstraint] = []
        self._objective: list[Term] = []
        self._registry: dict[str, dict[tuple, VarRef]] = {}
        self._nnz = 0

    def _new_var(self, family: str, idx: tuple, kind: str, lb: float, ub: float) -> VarRef:
        name = f"{family}[{','.join(str(i) for i in idx)}]" if idx else family
        if name in self._names:
            raise ModelError(f"duplicate variable {name}")
        var = VarRef(index=len(self._variables), name=name, kind=kind, lb=lb, ub=ub)
        self._variables.append(var)
        self._names.add(name)
        self._registry.setdefault(family, {})[idx] = var
        return var

    def binary(self, family: str, *idx) -> VarRef:
        return self._new_var(family, idx, BINARY, 0.0, 1.0)

    def continuous(self, family: str, *idx, lb: float = 0.0, ub: float = INF) -> VarRef:
        return self._new_var(family, idx, CONTINUOUS, lb, ub)

    def integer(self, family: str, *idx, lb: float = 0.0, ub: float = INF) -> VarRef:
        return self._new_var(family, idx, INTEGER, lb, ub)

    def add(self, terms: list[Term], sense: str, rhs: float, name: str) -> None:
        canon = canonical_terms(terms)
        self._constraints.append(LinConstraint(tuple(canon), sense, float(rhs), name))
        self._nnz += len(canon)

    def set_objective(self, terms: list[Term]) -> None:
        self._objective = canonical_terms(terms)

    def get(self, family: str, *idx) -> VarRef | None:
        return self._registry.get(family, {}).get(idx)

    def family_items(self, family: str) -> list[tuple[tuple, VarRef]]:
        return list(self._registry.get(family, {}).items())

    def build(self, **metadata) -> MilpModel:
        return MilpModel(
            variables=self._variables,
            constraints=self._constraints,
            objective=self._objective,
            metadata={"formulation": self._tag, **metadata},
            registry=self._registry,
            nnz=self._nnz,
        )


@dataclass
class SolveResult:
    status: str                      # optimal | feasible | infeasible | timeout | error
    values: dict[str, float]         # variable name -> value (empty unless an incumbent exists)
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
        if self.time_limit <= 0 or self.rel_gap < 0:
            raise ModelError("solve limits must be positive")


def big_M(params, extra_time: float = 0.0) -> float:
    """Linearization constant, validated to dominate the time horizon.

    Returns the configured value when it exceeds horizon + extra_time,
    otherwise warns and lifts it so conditional time constraints stay slack
    when toggled off.
    """
    horizon = params.horizon
    required = horizon + max(extra_time, 1.0)
    configured = params.big_M
    if configured < required:
        warnings.warn(
            f"big_M={configured:g} is insufficient for horizon {horizon:g}; "
            f"raising to {required:g}",
            stacklevel=2,
        )
        return required
    return configured


# ---- LP text ----------------------------------------------------------

_SAFE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_().#]*$")


def _sanitize_names(variables: list[VarRef]) -> dict[str, str]:
    """Deterministic mapping of model names to LP-legal names."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for var in variables:
        name = (var.name.replace("[", "(").replace("]", ")")
                .replace(",", "_").replace(" ", "_").replace("~", "."))
        if not _SAFE_NAME.match(name):
            name = "v_" + re.sub(r"[^A-Za-z0-9_().#]", "_", name)
        base, k = name, 1
        while name in used:
            k += 1
            name = f"{base}#{k}"
        used.add(name)
        mapping[var.name] = name
    return mapping


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _expr_text(terms: tuple[Term, ...] | list[Term], names: dict[str, str]) -> str:
    if not terms:
        return "0 " + next(iter(names.values()))
    parts: list[str] = []
    for i, (var, coeff) in enumerate(terms):
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        lead = f"{sign} " if (i > 0 or sign == "-") else ""
        coeff_txt = "" if mag == 1.0 else f"{_fmt(mag)} "
        parts.append(f"{lead}{coeff_txt}{names[var.name]}")
    return " ".join(parts)


def write_lp(model: MilpModel) -> str:
    """Emit the model as CPLEX-LP text with deterministic ordering."""
    if not model.variables:
        raise ModelError("cannot write an empty model")
    names = _sanitize_names(model.variables)
    out: list[str] = ["\\ " + str(model.metadata.get("formulation", "model")), "Minimize"]
    out.append(" obj: " + _expr_text(model.objective, names))
    out.append("Subject To")
    for i, con in enumerate(model.constraints):
        cname = re.sub(r"[^A-Za-z0-9_().#]", "_", con.name) or f"c{i}"
        sense = {"<=": "<=", "=": "=", ">=": ">="}[con.sense]
        out.append(f" {cname}#{i}: {_expr_text(con.terms, names)} {sense} {_fmt(con.rhs)}")
    out.append("Bounds")
    for var in model.variables:
        if var.kind == BINARY:
            continue
        lo = "-inf" if var.lb == -INF else _fmt(var.lb)
        if var.ub == INF:
            if var.lb == -INF:
                out.append(f" {names[var.name]} free")
            else:
                out.append(f" {names[var.name]} >= {lo}")
        else:
            out.append(f" {lo} <= {names[var.name]} <= {_fmt(var.ub)}")
    binaries = [names[v.name] for v in model.variables if v.kind == BINARY]
    if binaries:
        out.append("Binary")
        out.extend(f" {n}" for n in binaries)
    generals = [names[v.name] for v in model.variables if v.kind == INTEGER]
    if generals:
        out.append("General")
        out.extend(f" {n}" for n in generals)
    out.append("End")
    return "\n".join(out) + "\n"
