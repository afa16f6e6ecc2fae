"""Domain types for three-tier transit delivery instances.

An instance bundles the distribution center (CDC), the transit network
(stops, lines, scheduled trips), the delivery fleets (trucks for the first
leg, freighters for the last leg), the customers, and the cost/time
parameters. All times are minutes from the start of the planning horizon;
coordinates are dimensionless and distances Euclidean.

Stops are *drop-in* (trucks deposit packages there for pickup by transit
vehicles), *drop-out* (transit vehicles deposit packages there for
freighters), or both.

Documents are written and read by one codec, `to_doc` and `from_doc`, driven by
the dataclasses: each record lists its fields in declaration order, strings take
only JSON strings and numbers only JSON numbers, and a reader's error names the
path of the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache, cached_property
from operator import attrgetter
from typing import Any, get_args, get_origin, get_type_hints

INSTANCE_SCHEMA = "3tdppt-instance/1"


class InstanceError(ValueError):
    """Raised for malformed instance documents or violated invariants."""


# A number field declares its range in its metadata; `Instance.validate` requires the
# number (each value, of a dict) to be finite and within that range.
_IN_RANGE = {"finite": lambda v: True, "finite and nonnegative": lambda v: v >= 0,
             "finite and positive": lambda v: v > 0}
FINITE, NONNEGATIVE, POSITIVE = ({"range": rule} for rule in _IN_RANGE)


@cache
def _ranged_fields(cls: type) -> tuple[tuple[str, str], ...]:
    """(path, range) of each number of a dataclass that declares a range, a number of a
    record it holds (such as a ``location``) by its dotted path."""
    ranged: list[tuple[str, str]] = []
    for f, (name, kind) in zip(fields(cls), _field_types(cls)):
        if is_dataclass(kind):
            ranged += [(f"{name}.{path}", rule) for path, rule in _ranged_fields(kind)]
        elif "range" in f.metadata:
            ranged.append((name, f.metadata["range"]))
    return tuple(ranged)


@dataclass(frozen=True)
class Point:
    x: float = field(metadata=FINITE)
    y: float = field(metadata=FINITE)


def euclidean_distance(a: Point, b: Point) -> float:
    """Straight-line distance between two locations."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Stop:
    id: str
    location: Point
    is_drop_in: bool
    is_drop_out: bool
    service_time: float = field(metadata=NONNEGATIVE)  # minutes to hand packages over here
    max_dwell: float = field(metadata=NONNEGATIVE)  # longest time a package may sit at this stop


@dataclass(frozen=True)
class Line:
    id: str
    ordered_stops: tuple[str, ...]  # stop ids in traversal order


@dataclass(frozen=True)
class Trip:
    """One scheduled run of a line (one public vehicle)."""

    id: str
    line: str
    stop_times: dict[str, float] = field(metadata=FINITE)  # stop id -> scheduled minute
    capacity: float = field(metadata=POSITIVE)


@dataclass(frozen=True)
class Truck:
    id: str
    capacity: float = field(metadata=POSITIVE)


@dataclass(frozen=True)
class Freighter:
    id: str
    home_stop: str  # the single drop-out stop this freighter serves
    capacity: float = field(metadata=POSITIVE)


@dataclass(frozen=True)
class Customer:
    id: str
    location: Point
    demand: float = field(metadata=POSITIVE)
    window_lo: float = field(metadata=FINITE)
    window_hi: float = field(metadata=FINITE)
    service_time: float = field(metadata=NONNEGATIVE)  # handover time at the door
    dropout_candidates: frozenset[str]  # drop-out stops allowed to serve this customer


@dataclass(frozen=True)
class CostParams:
    truck_cost_per_distance: float = field(default=1.0, metadata=NONNEGATIVE)
    freighter_cost_scale: float = field(default=0.5, metadata=NONNEGATIVE)  # arc cost/distance
    time_per_distance: float = field(default=0.2, metadata=NONNEGATIVE)  # minutes per distance
    t_mid_day: float = field(default=400.0, metadata=NONNEGATIVE)
    period_length: float = field(default=30.0, metadata=POSITIVE)
    period_count: int = field(default=30, metadata=POSITIVE)

    @property
    def horizon(self) -> float:
        return self.period_length * self.period_count


def travel_time(distance: float, params: CostParams) -> float:
    """Convert a distance into travel minutes at the uniform system speed."""
    return params.time_per_distance * distance


@dataclass(frozen=True)
class Instance:
    """Full problem datum. Immutable after construction; safe to share.

    The object memoizes in its own ``__dict__``, never in a field, so ``==``, ``replace``
    and the codec ignore it: the id maps behind the lookups, built on first use;
    ``_valid``, once ``validate`` has passed; and ``_reference``, the proven service-cost
    reference of ``pipeline.reference_routing_costs``. Each dies with the object.
    """

    cdc: Point  # single origin; the route sink is an implicit copy at the same location
    stops: tuple[Stop, ...]
    lines: tuple[Line, ...]
    trips: tuple[Trip, ...]
    trucks: tuple[Truck, ...]
    freighters: tuple[Freighter, ...]
    customers: tuple[Customer, ...]
    cost_params: CostParams = field(default_factory=CostParams)

    # ---- lookups -----------------------------------------------------

    def stop(self, stop_id: str) -> Stop:
        return self._stops_by_id[stop_id]

    def line(self, line_id: str) -> Line:
        return self._lines_by_id[line_id]

    def trip(self, trip_id: str) -> Trip:
        return self._trips_by_id[trip_id]

    def truck(self, truck_id: str) -> Truck:
        return self._trucks_by_id[truck_id]

    def freighter(self, freighter_id: str) -> Freighter:
        return self._freighters_by_id[freighter_id]

    def customer(self, customer_id: str) -> Customer:
        return self._customers_by_id[customer_id]

    def drop_in_stops(self) -> list[Stop]:
        return [s for s in self.stops if s.is_drop_in]

    def drop_out_stops(self) -> list[Stop]:
        return [s for s in self.stops if s.is_drop_out]

    def freighters_of_stop(self, stop_id: str) -> list[Freighter]:
        return [k for k in self.freighters if k.home_stop == stop_id]

    def travel_minutes(self, a: Point, b: Point) -> float:
        return travel_time(euclidean_distance(a, b), self.cost_params)

    # id maps, built on first use; cached_property stores each in the instance's
    # __dict__ directly, which the frozen dataclass allows
    @cached_property
    def _stops_by_id(self) -> dict[str, Stop]:
        return {s.id: s for s in self.stops}

    @cached_property
    def _lines_by_id(self) -> dict[str, Line]:
        return {l.id: l for l in self.lines}

    @cached_property
    def _trips_by_id(self) -> dict[str, Trip]:
        return {p.id: p for p in self.trips}

    @cached_property
    def _trucks_by_id(self) -> dict[str, Truck]:
        return {d.id: d for d in self.trucks}

    @cached_property
    def _freighters_by_id(self) -> dict[str, Freighter]:
        return {k.id: k for k in self.freighters}

    @cached_property
    def _customers_by_id(self) -> dict[str, Customer]:
        return {c.id: c for c in self.customers}

    # ---- invariants ---------------------------------------------------

    def validate(self) -> None:
        """Raise InstanceError naming the first violated invariant: a duplicate id, a
        number outside the range its field declares (``FINITE``, ``NONNEGATIVE`` or
        ``POSITIVE``), named with its record and value, then a broken link or order
        below. The instance is frozen, so once it has passed it is not checked again."""
        if "_valid" in self.__dict__:
            return
        records = (("stop", self.stops), ("customer", self.customers), ("line", self.lines),
                   ("trip", self.trips), ("truck", self.trucks), ("freighter", self.freighters))
        for kind, items in records:
            seen: set[str] = set()
            for item in items:
                if item.id in seen:
                    raise InstanceError(f"duplicate {kind} id {item.id}")
                seen.add(item.id)
        named = [(f"{kind} {item.id}", item) for kind, items in records for item in items]
        for name, item in [("cdc", self.cdc), *named, ("cost_params", self.cost_params)]:
            for key, rule in _ranged_fields(type(item)):
                value = attrgetter(key)(item)
                for label, v in value.items() if isinstance(value, dict) else [(None, value)]:
                    if not (math.isfinite(v) and _IN_RANGE[rule](v)):
                        where = key if label is None else f"{key}.{label}"
                        raise InstanceError(f"{name}: {where} {v!r} is not {rule}")
        for s in self.stops:
            if s.id in ("o", "o~"):
                raise InstanceError(f"stop id {s.id!r} is reserved for the CDC nodes")
            if not (s.is_drop_in or s.is_drop_out):
                raise InstanceError(f"stop {s.id} is neither drop-in nor drop-out")
        stop_ids = {s.id for s in self.stops}

        for ln in self.lines:
            if len(ln.ordered_stops) < 2:
                raise InstanceError(f"line {ln.id} has fewer than 2 stops")
            if len(set(ln.ordered_stops)) != len(ln.ordered_stops):
                raise InstanceError(f"line {ln.id} repeats a stop")
            for sid in ln.ordered_stops:
                if sid not in stop_ids:
                    raise InstanceError(f"line {ln.id} references unknown stop {sid}")
        lines_by_id = {ln.id: ln for ln in self.lines}

        for p in self.trips:
            if p.line not in lines_by_id:
                raise InstanceError(f"trip {p.id} references unknown line {p.line}")
            order = lines_by_id[p.line].ordered_stops
            if set(p.stop_times) != set(order):
                raise InstanceError(f"trip {p.id}: stop_times do not cover line {p.line}")
            times = [p.stop_times[s] for s in order]
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise InstanceError(f"trip {p.id}: stop_times not increasing")

        dropout_ids = {s.id for s in self.stops if s.is_drop_out}
        served: set[str] = set()
        for k in self.freighters:
            if k.home_stop not in dropout_ids:
                raise InstanceError(f"freighter {k.id}: home_stop {k.home_stop} is not a drop-out stop")
            served.add(k.home_stop)
        for sid in sorted(dropout_ids - served):
            raise InstanceError(f"drop-out stop {sid} has no freighter")

        for c in self.customers:
            if c.id in stop_ids or c.id in ("o", "o~"):
                raise InstanceError(f"customer id {c.id!r} names a stop or a CDC node")
            if not c.window_lo < c.window_hi:
                raise InstanceError(f"customer {c.id}: window_lo not below window_hi")
            if not c.dropout_candidates:
                raise InstanceError(f"customer {c.id}: dropout_candidates empty")
            bad = c.dropout_candidates - dropout_ids
            if bad:
                raise InstanceError(
                    f"customer {c.id}: candidate {sorted(bad)[0]} is not a drop-out stop")
        self.__dict__["_valid"] = True


# ---- serialization ----------------------------------------------------


_KINDS = {dict: "an object", list: "a list", str: "a string", float: "a number",
          int: "a whole number", bool: "a boolean"}


def require_field(doc: Any, key: str, path: str, kind: type | None = None,
                  error: type[ValueError] = InstanceError) -> Any:
    """``doc[key]``, as a float when ``kind`` is ``float``. Raises ``error`` (the
    reader's own class) naming the path when ``doc`` is not an object, the field is
    missing, or its value is not a ``kind``."""
    if not isinstance(doc, dict):
        raise error(f"{path or 'top level'}: expected an object")
    if key not in doc:
        raise error(f"{path + ': ' if path else ''}missing field {key}")
    return require_kind(doc[key], f"{path}.{key}" if path else key, kind, error)


def require_kind(value: Any, path: str, kind: type | None,
                 error: type[ValueError] = InstanceError) -> Any:
    """``value`` checked to be a ``kind``: ``dict``, ``list``, ``str`` (a JSON string
    only), ``bool`` (JSON ``true``/``false`` only), or ``float`` or ``int``, which
    take only a JSON number within the float range (not a string or a boolean) and
    convert it, ``int`` only a whole one; ``error`` names the path otherwise."""
    if kind in (float, int):
        number = None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # a whole number beyond the float range
                pass
        if number is not None:
            if kind is float:
                return number
            if number.is_integer():
                return int(number)
    elif kind is None or isinstance(value, kind):
        return value
    raise error(f"{path}: expected {_KINDS[kind]}, got {value!r}")


@cache
def _field_types(cls: type) -> tuple[tuple[str, Any], ...]:
    """(name, resolved type) of each field of a dataclass, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def to_doc(value: Any) -> Any:
    """``value`` as JSON data: a dataclass becomes an object of its fields in
    declaration order, a tuple a list, a frozenset a sorted list; a dict keeps its
    order."""
    if isinstance(value, (str, float, int)):
        return value
    if is_dataclass(value):
        return {f.name: to_doc(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_doc(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {k: to_doc(v) for k, v in value.items()}
    return value


def from_doc(cls: Any, doc: Any, path: str, error: type[ValueError] = InstanceError,
             optional: tuple[str, ...] = ()) -> Any:
    """Inverse of ``to_doc``: ``doc`` read as a ``cls``, which is a dataclass,
    ``tuple[T, ...]``, ``frozenset[T]``, ``dict[str, T]`` or a scalar taken by
    ``require_kind``. A dataclass field named in ``optional`` may be absent and
    then keeps its default; ``error`` names the path of any other missing or
    wrong-typed value."""
    if cls in _KINDS:
        return require_kind(doc, path, cls, error)
    if is_dataclass(cls):
        require_kind(doc, path or "top level", dict, error)
        return cls(**{
            name: from_doc(kind, require_field(doc, name, path, error=error),
                           f"{path}.{name}" if path else name, error, optional)
            for name, kind in _field_types(cls) if name in doc or name not in optional})
    origin, args = get_origin(cls), get_args(cls)
    if origin in (tuple, frozenset):
        return origin(from_doc(args[0], v, f"{path}[{j}]", error, optional)
                      for j, v in enumerate(require_kind(doc, path, list, error)))
    return {k: from_doc(args[1], v, f"{path}.{k}", error, optional)
            for k, v in require_kind(doc, path, dict, error).items()}


def serialize_instance(instance: Instance) -> str:
    """Render an instance as its canonical JSON document."""
    return json.dumps({"schema": INSTANCE_SCHEMA, **to_doc(instance)}, indent=2) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document; inverse of serialize_instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    schema = require_field(doc, "schema", "")
    if schema != INSTANCE_SCHEMA:
        raise InstanceError(f"unsupported schema {schema!r}, expected {INSTANCE_SCHEMA!r}")
    instance = from_doc(Instance, doc, "")
    instance.validate()
    return instance


def with_beta(instance: Instance, beta: float) -> Instance:
    """The instance with freighter cost scale ``beta``: itself when it has that scale
    already, so whatever it memoizes is kept, else a copy."""
    if instance.cost_params.freighter_cost_scale == beta:
        return instance
    return replace(instance, cost_params=replace(instance.cost_params, freighter_cost_scale=beta))
