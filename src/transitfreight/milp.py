"""Solver-agnostic MILP intermediate representation.

Models are built once, immutably, and handed to a backend. Variables carry
structured names like ``y1[c3,s2,p7]`` so solutions can be traced back to
model families; a per-family registry on the model maps index tuples to
variables. ``write_lp`` emits deterministic CPLEX-LP text and ``parse_lp``
reads that dialect back (used to exercise the file interface end to end).
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        )


@dataclass
class SolveResult:
    status: str                      # optimal | feasible | infeasible | timeout | error
    values: dict[str, float]         # variable name -> value (empty unless an incumbent exists)
    objective: float | None
    best_bound: float | None
    wall_time: float
    message: str = ""

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


_TOKEN = re.compile(r"(<=|>=|=|\+|-|:|[0-9.][0-9.eE+-]*|[A-Za-z_][A-Za-z0-9_().#]*)")


def _parse_expr(tokens: list[str], get_var) -> tuple[list[tuple[str, float]], int]:
    """Parse coefficient/variable pairs until a sense token; returns (terms, pos)."""
    terms: list[tuple[str, float]] = []
    sign = 1.0
    coeff: float | None = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok in ("<=", ">=", "="):
            break
        if tok == "+":
            pass
        elif tok == "-":
            sign = -sign
        elif re.match(r"^[0-9.]", tok):
            coeff = float(tok)
        else:
            terms.append((tok, sign * (coeff if coeff is not None else 1.0)))
            sign, coeff = 1.0, None
            get_var(tok)
        i += 1
    return terms, i


def parse_lp(text: str) -> MilpModel:
    """Read back the LP dialect produced by write_lp."""
    lines = [ln.split("\\")[0].rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    section = None
    obj_tokens: list[str] = []
    constraint_rows: list[list[str]] = []
    bound_rows: list[list[str]] = []
    binary_names: set[str] = set()
    general_names: set[str] = set()
    order: list[str] = []
    seen: set[str] = set()

    def note(name: str) -> None:
        if name not in seen:
            seen.add(name)
            order.append(name)

    current_row: list[str] | None = None
    for ln in lines:
        stripped = ln.strip()
        lowered = stripped.lower()
        if lowered in ("minimize", "minimise", "min"):
            section = "obj"
            continue
        if lowered in ("subject to", "st", "s.t.", "such that"):
            section = "cons"
            current_row = None
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered in ("binary", "binaries", "bin"):
            section = "binary"
            continue
        if lowered in ("general", "generals", "gen", "integer", "integers"):
            section = "general"
            continue
        if lowered == "end":
            break
        tokens = _TOKEN.findall(stripped)
        if section == "obj":
            obj_tokens.extend(tokens)
        elif section == "cons":
            if ":" in tokens:  # a named row starts here
                current_row = tokens[tokens.index(":") + 1:]
                constraint_rows.append(current_row)
            elif current_row is not None:
                current_row.extend(tokens)
            else:
                current_row = tokens
                constraint_rows.append(current_row)
        elif section == "bounds":
            bound_rows.append(tokens)
        elif section == "binary":
            binary_names.update(tokens)
        elif section == "general":
            general_names.update(tokens)

    if ":" in obj_tokens:
        obj_tokens = obj_tokens[obj_tokens.index(":") + 1:]

    obj_terms, _ = _parse_expr(obj_tokens, note)

    parsed_cons: list[tuple[list[tuple[str, float]], str, float]] = []
    for row in constraint_rows:
        terms, pos = _parse_expr(row, note)
        if pos >= len(row):
            raise ModelError(f"constraint row missing sense: {' '.join(row)}")
        sense = row[pos]
        rhs_tokens = row[pos + 1:]
        rhs_sign = 1.0
        rhs_val: float | None = None
        for tok in rhs_tokens:
            if tok == "-":
                rhs_sign = -rhs_sign
            elif tok == "+":
                continue
            else:
                rhs_val = rhs_sign * float(tok)
                break
        if rhs_val is None:
            raise ModelError(f"constraint row missing rhs: {' '.join(row)}")
        parsed_cons.append((terms, sense, rhs_val))

    bounds: dict[str, tuple[float, float]] = {}

    def as_num(tok: str) -> float:
        if tok in ("-inf", "-infinity"):
            return -INF
        if tok in ("inf", "infinity", "+inf"):
            return INF
        return float(tok)

    for row in bound_rows:
        row = [t for t in row if t != "+"]
        if not row:
            continue
        if len(row) >= 2 and row[-1].lower() == "free":
            bounds[row[0]] = (-INF, INF)
            note(row[0])
        elif ">=" in row and row[0] not in ("<=", ">="):
            # name >= lb   (possibly negative lb split into '-' token)
            name = row[0]
            note(name)
            idx = row.index(">=")
            tail = row[idx + 1:]
            val = -as_num(tail[1]) if tail[0] == "-" else as_num(tail[0])
            bounds[name] = (val, INF)
        else:
            # lb <= name <= ub, tolerating sign tokens
            vals: list[float] = []
            name = None
            sign = 1.0
            for tok in row:
                if tok == "-":
                    sign = -1.0
                elif tok in ("<=", ">="):
                    continue
                elif re.match(r"^[0-9.]", tok) or tok in ("inf", "-inf", "infinity"):
                    vals.append(sign * as_num(tok))
                    sign = 1.0
                else:
                    name = tok
            if name is None or len(vals) != 2:
                raise ModelError(f"unparsable bound row: {' '.join(row)}")
            note(name)
            bounds[name] = (vals[0], vals[1])

    for name in binary_names | general_names:
        note(name)

    variables: list[VarRef] = []
    by_name: dict[str, VarRef] = {}
    for i, name in enumerate(order):
        if name in binary_names:
            kind, lb, ub = BINARY, 0.0, 1.0
        elif name in general_names:
            kind = INTEGER
            lb, ub = bounds.get(name, (0.0, INF))
        else:
            kind = CONTINUOUS
            lb, ub = bounds.get(name, (0.0, INF))
        var = VarRef(index=i, name=name, kind=kind, lb=lb, ub=ub)
        variables.append(var)
        by_name[name] = var

    constraints = [
        LinConstraint(tuple((by_name[n], c) for n, c in terms), sense, rhs, f"row{i}")
        for i, (terms, sense, rhs) in enumerate(parsed_cons)
    ]
    objective = [(by_name[n], c) for n, c in obj_terms]
    return MilpModel(
        variables=variables,
        constraints=constraints,
        objective=objective,
        metadata={"formulation": "lp-import"},
    )
