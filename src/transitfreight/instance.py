"""Domain types for three-tier transit delivery instances.

An instance bundles the distribution center (CDC), the transit network
(stops, lines, scheduled trips), the delivery fleets (trucks for the first
leg, freighters for the last leg), the customers, and the cost/time
parameters. All times are minutes from the start of the planning horizon;
coordinates are dimensionless and distances Euclidean.

Stops are *drop-in* (trucks deposit packages there for pickup by transit
vehicles), *drop-out* (transit vehicles deposit packages there for
freighters), or both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

INSTANCE_SCHEMA = "3tdppt-instance/1"


class InstanceError(ValueError):
    """Raised for malformed instance documents or violated invariants."""


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InstanceError("point coordinates must be finite")


def euclidean_distance(a: Point, b: Point) -> float:
    """Straight-line distance between two locations."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class Stop:
    id: str
    location: Point
    is_drop_in: bool
    is_drop_out: bool
    service_time: float  # minutes of handling when packages change hands here
    max_dwell: float     # longest time a package may sit at this stop


@dataclass(frozen=True)
class Line:
    id: str
    ordered_stops: tuple[str, ...]  # stop ids in traversal order


@dataclass(frozen=True)
class Trip:
    """One scheduled run of a line (one public vehicle)."""

    id: str
    line: str
    stop_times: dict[str, float]  # stop id -> scheduled minute
    capacity: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trip):
            return NotImplemented
        return (self.id, self.line, self.stop_times, self.capacity) == (
            other.id, other.line, other.stop_times, other.capacity)

    def __hash__(self) -> int:
        return hash((self.id, self.line, tuple(sorted(self.stop_times.items())), self.capacity))


@dataclass(frozen=True)
class Truck:
    id: str
    capacity: float


@dataclass(frozen=True)
class Freighter:
    id: str
    home_stop: str  # the single drop-out stop this freighter serves
    capacity: float


@dataclass(frozen=True)
class Customer:
    id: str
    location: Point
    demand: float
    window_lo: float
    window_hi: float
    service_time: float  # handover time at the door
    dropout_candidates: frozenset[str]  # drop-out stops allowed to serve this customer


@dataclass(frozen=True)
class CostParams:
    truck_cost_per_distance: float = 1.0
    freighter_cost_scale: float = 0.5   # freighter arc cost = scale * distance
    time_per_distance: float = 0.2      # minutes per distance unit, all vehicle classes
    big_M: float = 1000.0
    service_cost_mu: float = 0.0        # scale for per-visit service costs (0 = plain routing objective)
    t_mid_day: float = 400.0
    period_length: float = 30.0
    period_count: int = 30

    @property
    def horizon(self) -> float:
        return self.period_length * self.period_count


def travel_time(distance: float, params: CostParams) -> float:
    """Convert a distance into travel minutes at the uniform system speed."""
    return params.time_per_distance * distance


@dataclass(frozen=True)
class Instance:
    """Full problem datum. Immutable after construction; safe to share."""

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

    def __hash__(self) -> int:
        """The hash of every field, computed once: the pipeline's service-cost
        reference cache looks an instance up on every `full` run. Like any hash
        of strings it holds in this process only."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash((
                self.cdc, self.stops, self.lines, self.trips, self.trucks, self.freighters,
                self.customers, self.cost_params))
        return cached

    # ---- invariants ---------------------------------------------------

    def validate(self) -> None:
        """Raise InstanceError naming the first violated invariant. The instance is
        frozen, so once it has passed it is not checked again."""
        if "_valid" in self.__dict__:
            return
        for kind, items in (("stop", self.stops), ("customer", self.customers),
                            ("line", self.lines), ("trip", self.trips),
                            ("truck", self.trucks), ("freighter", self.freighters)):
            seen: set[str] = set()
            for item in items:
                if item.id in seen:
                    raise InstanceError(f"duplicate {kind} id {item.id}")
                seen.add(item.id)
        for s in self.stops:
            if s.id in ("o", "o~"):
                raise InstanceError(f"stop id {s.id!r} is reserved for the CDC nodes")
            if not (s.is_drop_in or s.is_drop_out):
                raise InstanceError(f"stop {s.id} is neither drop-in nor drop-out")
            if s.service_time < 0:
                raise InstanceError(f"stop {s.id}: service_time negative")
            if s.max_dwell < 0:
                raise InstanceError(f"stop {s.id}: max_dwell negative")
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
            if p.capacity <= 0:
                raise InstanceError(f"trip {p.id}: capacity not positive")
            order = lines_by_id[p.line].ordered_stops
            if set(p.stop_times) != set(order):
                raise InstanceError(f"trip {p.id}: stop_times do not cover line {p.line}")
            times = [p.stop_times[s] for s in order]
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise InstanceError(f"trip {p.id}: stop_times not increasing")

        for d in self.trucks:
            if d.capacity <= 0:
                raise InstanceError(f"truck {d.id}: capacity not positive")

        dropout_ids = {s.id for s in self.stops if s.is_drop_out}
        served: set[str] = set()
        for k in self.freighters:
            if k.home_stop not in dropout_ids:
                raise InstanceError(f"freighter {k.id}: home_stop {k.home_stop} is not a drop-out stop")
            if k.capacity <= 0:
                raise InstanceError(f"freighter {k.id}: capacity not positive")
            served.add(k.home_stop)
        for sid in sorted(dropout_ids - served):
            raise InstanceError(f"drop-out stop {sid} has no freighter")

        for c in self.customers:
            if c.id in stop_ids or c.id in ("o", "o~"):
                raise InstanceError(f"customer id {c.id!r} names a stop or a CDC node")
            if c.demand <= 0:
                raise InstanceError(f"customer {c.id}: demand not positive")
            if not c.window_lo < c.window_hi:
                raise InstanceError(f"customer {c.id}: window_lo not below window_hi")
            if c.service_time < 0:
                raise InstanceError(f"customer {c.id}: service_time negative")
            if not c.dropout_candidates:
                raise InstanceError(f"customer {c.id}: dropout_candidates empty")
            bad = c.dropout_candidates - dropout_ids
            if bad:
                raise InstanceError(
                    f"customer {c.id}: candidate {sorted(bad)[0]} is not a drop-out stop")
        self.__dict__["_valid"] = True


# ---- serialization ----------------------------------------------------


_KINDS = {dict: "an object", list: "a list", float: "a number"}


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
    """``value`` checked to be a ``kind`` (``dict``, ``list``, or ``float``, which
    also converts it); ``error`` names the path otherwise."""
    if kind is float:
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    elif kind is None or isinstance(value, kind):
        return value
    raise error(f"{path}: expected {_KINDS[kind]}, got {value!r}")


def _point_to_doc(p: Point) -> dict[str, float]:
    return {"x": p.x, "y": p.y}


def _point_from_doc(doc: Any, path: str) -> Point:
    return Point(require_field(doc, "x", path, float), require_field(doc, "y", path, float))


def serialize_instance(instance: Instance) -> str:
    """Render an instance as its canonical JSON document."""
    doc = {
        "schema": INSTANCE_SCHEMA,
        "cdc": _point_to_doc(instance.cdc),
        "stops": [
            {
                "id": s.id,
                "location": _point_to_doc(s.location),
                "is_drop_in": s.is_drop_in,
                "is_drop_out": s.is_drop_out,
                "service_time": s.service_time,
                "max_dwell": s.max_dwell,
            }
            for s in instance.stops
        ],
        "lines": [{"id": ln.id, "ordered_stops": list(ln.ordered_stops)} for ln in instance.lines],
        "trips": [
            {
                "id": p.id,
                "line": p.line,
                "stop_times": {s: p.stop_times[s] for s in instance.line(p.line).ordered_stops},
                "capacity": p.capacity,
            }
            for p in instance.trips
        ],
        "trucks": [{"id": d.id, "capacity": d.capacity} for d in instance.trucks],
        "freighters": [
            {"id": k.id, "home_stop": k.home_stop, "capacity": k.capacity}
            for k in instance.freighters
        ],
        "customers": [
            {
                "id": c.id,
                "location": _point_to_doc(c.location),
                "demand": c.demand,
                "window_lo": c.window_lo,
                "window_hi": c.window_hi,
                "service_time": c.service_time,
                "dropout_candidates": sorted(c.dropout_candidates),
            }
            for c in instance.customers
        ],
        "cost_params": {
            "truck_cost_per_distance": instance.cost_params.truck_cost_per_distance,
            "freighter_cost_scale": instance.cost_params.freighter_cost_scale,
            "time_per_distance": instance.cost_params.time_per_distance,
            "big_M": instance.cost_params.big_M,
            "service_cost_mu": instance.cost_params.service_cost_mu,
            "t_mid_day": instance.cost_params.t_mid_day,
            "period_length": instance.cost_params.period_length,
            "period_count": instance.cost_params.period_count,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document; inverse of serialize_instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"not valid JSON: {exc}") from exc
    schema = require_field(doc, "schema", "")
    if schema != INSTANCE_SCHEMA:
        raise InstanceError(f"unsupported schema {schema!r}, expected {INSTANCE_SCHEMA!r}")

    cdc = _point_from_doc(require_field(doc, "cdc", ""), "cdc")

    stops = []
    for idx, s in enumerate(require_field(doc, "stops", "", list)):
        path = f"stops[{idx}]"
        stops.append(Stop(
            id=str(require_field(s, "id", path)),
            location=_point_from_doc(require_field(s, "location", path), f"{path}.location"),
            is_drop_in=bool(require_field(s, "is_drop_in", path)),
            is_drop_out=bool(require_field(s, "is_drop_out", path)),
            service_time=require_field(s, "service_time", path, float),
            max_dwell=require_field(s, "max_dwell", path, float),
        ))

    lines = []
    for idx, ln in enumerate(require_field(doc, "lines", "", list)):
        path = f"lines[{idx}]"
        lines.append(Line(
            id=str(require_field(ln, "id", path)),
            ordered_stops=tuple(str(s) for s in require_field(ln, "ordered_stops", path, list)),
        ))

    trips = []
    for idx, p in enumerate(require_field(doc, "trips", "", list)):
        path = f"trips[{idx}]"
        stop_times = require_field(p, "stop_times", path, dict)
        trips.append(Trip(
            id=str(require_field(p, "id", path)),
            line=str(require_field(p, "line", path)),
            stop_times={str(k): require_kind(v, f"{path}.stop_times.{k}", float)
                        for k, v in stop_times.items()},
            capacity=require_field(p, "capacity", path, float),
        ))

    trucks = []
    for idx, d in enumerate(require_field(doc, "trucks", "", list)):
        path = f"trucks[{idx}]"
        trucks.append(Truck(id=str(require_field(d, "id", path)),
                            capacity=require_field(d, "capacity", path, float)))

    freighters = []
    for idx, k in enumerate(require_field(doc, "freighters", "", list)):
        path = f"freighters[{idx}]"
        freighters.append(Freighter(
            id=str(require_field(k, "id", path)),
            home_stop=str(require_field(k, "home_stop", path)),
            capacity=require_field(k, "capacity", path, float),
        ))

    customers = []
    for idx, c in enumerate(require_field(doc, "customers", "", list)):
        path = f"customers[{idx}]"
        customers.append(Customer(
            id=str(require_field(c, "id", path)),
            location=_point_from_doc(require_field(c, "location", path), f"{path}.location"),
            demand=require_field(c, "demand", path, float),
            window_lo=require_field(c, "window_lo", path, float),
            window_hi=require_field(c, "window_hi", path, float),
            service_time=require_field(c, "service_time", path, float),
            dropout_candidates=frozenset(
                str(s) for s in require_field(c, "dropout_candidates", path, list)),
        ))

    cp = require_field(doc, "cost_params", "", dict)
    cost_params = CostParams(**{
        name: require_field(cp, name, "cost_params", float)
        for name in ("truck_cost_per_distance", "freighter_cost_scale", "time_per_distance",
                     "big_M", "service_cost_mu", "t_mid_day", "period_length")},
        period_count=int(require_field(cp, "period_count", "cost_params", float)),
    )

    instance = Instance(
        cdc=cdc,
        stops=tuple(stops),
        lines=tuple(lines),
        trips=tuple(trips),
        trucks=tuple(trucks),
        freighters=tuple(freighters),
        customers=tuple(customers),
        cost_params=cost_params,
    )
    instance.validate()
    return instance


def with_beta(instance: Instance, beta: float) -> Instance:
    """Copy of the instance with a different freighter cost scale."""
    return replace(instance, cost_params=replace(instance.cost_params, freighter_cost_scale=beta))


def with_freighter_capacity(instance: Instance, capacity: float) -> Instance:
    """Copy of the instance with every freighter's capacity replaced."""
    freighters = tuple(replace(k, capacity=float(capacity)) for k in instance.freighters)
    return replace(instance, freighters=freighters)
