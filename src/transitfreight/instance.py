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
        return self._stops_by_id()[stop_id]

    def line(self, line_id: str) -> Line:
        return self._lines_by_id()[line_id]

    def trip(self, trip_id: str) -> Trip:
        return self._trips_by_id()[trip_id]

    def truck(self, truck_id: str) -> Truck:
        return self._trucks_by_id()[truck_id]

    def freighter(self, freighter_id: str) -> Freighter:
        return self._freighters_by_id()[freighter_id]

    def customer(self, customer_id: str) -> Customer:
        return self._customers_by_id()[customer_id]

    def drop_in_stops(self) -> list[Stop]:
        return [s for s in self.stops if s.is_drop_in]

    def drop_out_stops(self) -> list[Stop]:
        return [s for s in self.stops if s.is_drop_out]

    def freighters_of_stop(self, stop_id: str) -> list[Freighter]:
        return [k for k in self.freighters if k.home_stop == stop_id]

    def travel_minutes(self, a: Point, b: Point) -> float:
        return travel_time(euclidean_distance(a, b), self.cost_params)

    # cached id maps; object is frozen so caches are built lazily once
    def _stops_by_id(self) -> dict[str, Stop]:
        return self._cache("stops_by_id", lambda: {s.id: s for s in self.stops})

    def _lines_by_id(self) -> dict[str, Line]:
        return self._cache("lines_by_id", lambda: {l.id: l for l in self.lines})

    def _trips_by_id(self) -> dict[str, Trip]:
        return self._cache("trips_by_id", lambda: {p.id: p for p in self.trips})

    def _trucks_by_id(self) -> dict[str, Truck]:
        return self._cache("trucks_by_id", lambda: {d.id: d for d in self.trucks})

    def _freighters_by_id(self) -> dict[str, Freighter]:
        return self._cache("freighters_by_id", lambda: {k.id: k for k in self.freighters})

    def _customers_by_id(self) -> dict[str, Customer]:
        return self._cache("customers_by_id", lambda: {c.id: c for c in self.customers})

    def _cache(self, key: str, build):
        caches = self.__dict__.setdefault("_lookup_cache", {})
        if key not in caches:
            caches[key] = build()
        return caches[key]

    # ---- invariants ---------------------------------------------------

    def validate(self) -> None:
        """Raise InstanceError naming the first violated invariant."""
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


# ---- serialization ----------------------------------------------------


def _require(doc: dict[str, Any], key: str, path: str) -> Any:
    if key not in doc:
        where = f"{path}: " if path else ""
        raise InstanceError(f"{where}missing field {key}")
    return doc[key]


def _point_to_doc(p: Point) -> dict[str, float]:
    return {"x": p.x, "y": p.y}


def _point_from_doc(doc: Any, path: str) -> Point:
    if not isinstance(doc, dict):
        raise InstanceError(f"{path}: expected object with x, y")
    return Point(float(_require(doc, "x", path)), float(_require(doc, "y", path)))


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
    if not isinstance(doc, dict):
        raise InstanceError("top level must be an object")
    schema = _require(doc, "schema", "")
    if schema != INSTANCE_SCHEMA:
        raise InstanceError(f"unsupported schema {schema!r}, expected {INSTANCE_SCHEMA!r}")

    cdc = _point_from_doc(_require(doc, "cdc", ""), "cdc")

    stops = []
    for idx, s in enumerate(_require(doc, "stops", "")):
        path = f"stops[{idx}]"
        stops.append(Stop(
            id=str(_require(s, "id", path)),
            location=_point_from_doc(_require(s, "location", path), f"{path}.location"),
            is_drop_in=bool(_require(s, "is_drop_in", path)),
            is_drop_out=bool(_require(s, "is_drop_out", path)),
            service_time=float(_require(s, "service_time", path)),
            max_dwell=float(_require(s, "max_dwell", path)),
        ))

    lines = []
    for idx, ln in enumerate(_require(doc, "lines", "")):
        path = f"lines[{idx}]"
        lines.append(Line(
            id=str(_require(ln, "id", path)),
            ordered_stops=tuple(str(s) for s in _require(ln, "ordered_stops", path)),
        ))

    trips = []
    for idx, p in enumerate(_require(doc, "trips", "")):
        path = f"trips[{idx}]"
        trips.append(Trip(
            id=str(_require(p, "id", path)),
            line=str(_require(p, "line", path)),
            stop_times={str(k): float(v) for k, v in _require(p, "stop_times", path).items()},
            capacity=float(_require(p, "capacity", path)),
        ))

    trucks = []
    for idx, d in enumerate(_require(doc, "trucks", "")):
        path = f"trucks[{idx}]"
        trucks.append(Truck(id=str(_require(d, "id", path)), capacity=float(_require(d, "capacity", path))))

    freighters = []
    for idx, k in enumerate(_require(doc, "freighters", "")):
        path = f"freighters[{idx}]"
        freighters.append(Freighter(
            id=str(_require(k, "id", path)),
            home_stop=str(_require(k, "home_stop", path)),
            capacity=float(_require(k, "capacity", path)),
        ))

    customers = []
    for idx, c in enumerate(_require(doc, "customers", "")):
        path = f"customers[{idx}]"
        customers.append(Customer(
            id=str(_require(c, "id", path)),
            location=_point_from_doc(_require(c, "location", path), f"{path}.location"),
            demand=float(_require(c, "demand", path)),
            window_lo=float(_require(c, "window_lo", path)),
            window_hi=float(_require(c, "window_hi", path)),
            service_time=float(_require(c, "service_time", path)),
            dropout_candidates=frozenset(str(s) for s in _require(c, "dropout_candidates", path)),
        ))

    cp = _require(doc, "cost_params", "")
    cost_params = CostParams(
        truck_cost_per_distance=float(_require(cp, "truck_cost_per_distance", "cost_params")),
        freighter_cost_scale=float(_require(cp, "freighter_cost_scale", "cost_params")),
        time_per_distance=float(_require(cp, "time_per_distance", "cost_params")),
        big_M=float(_require(cp, "big_M", "cost_params")),
        service_cost_mu=float(_require(cp, "service_cost_mu", "cost_params")),
        t_mid_day=float(_require(cp, "t_mid_day", "cost_params")),
        period_length=float(_require(cp, "period_length", "cost_params")),
        period_count=int(_require(cp, "period_count", "cost_params")),
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
