"""Synthetic instance generator.

Networks are random polylines oriented to start near the CDC; lines are kept
only when their farthest drop-in stop lies closer to the CDC than their
nearest drop-out stop, so feeding them from the CDC can pay off. Customers
get candidate drop-out stops by a radius rule with a nearest-stop fallback,
orphaned drop-out stops are patched with an injected nearby customer, time
windows span at least three hours inside a 15-hour horizon, and fleets are
sized from customer counts and per-stop service loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .compat import derive_compatibility
from .instance import (
    CostParams,
    Customer,
    Freighter,
    Instance,
    InstanceError,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
    euclidean_distance,
    travel_time,
)

STOP_SERVICE_MINUTES = 10.0
STOP_MAX_DWELL = 300.0
FIRST_TRIP_TIME = 150.0
HEADWAY = 30.0                   # minutes between consecutive trips of a line
TRUCK_CAPACITY = 160.0
FREIGHTER_CAPACITY = 20.0
TRIP_CAPACITY_RANGE = (60, 80)   # one draw per line, shared by its trips
WINDOW_MIN_LENGTH = 180.0
EARLIEST_WINDOW_OPEN = 60.0   # start of the third half-hour period
LATEST_WINDOW_OPEN = 450.0    # end of the fifteenth half-hour period
LABEL_SHUFFLE_PROB = 0.3      # chance to perturb a line's role split
NETWORK_ATTEMPTS = 60


class GenerationError(InstanceError):
    pass


class NoProfitableLinesError(GenerationError):
    pass


@dataclass(frozen=True)
class GenParams:
    n_customers: int
    n_lines: int
    stops_per_line: tuple[int, int] = (4, 6)
    box: tuple[float, float] = (100.0, 100.0)
    seed: int = 0
    trips_per_line: int | None = None  # resolved from the customer count when unset
    demand_range: tuple[int, int] = (5, 20)

    def __post_init__(self) -> None:
        if self.n_customers <= 0 or self.n_lines <= 0:
            raise GenerationError("counts must be positive")
        if self.trips_per_line is not None and self.trips_per_line < 1:
            raise GenerationError("trips_per_line must be positive")
        if self.stops_per_line[0] < 2 or self.stops_per_line[0] > self.stops_per_line[1]:
            raise GenerationError("stops_per_line range invalid")
        if self.demand_range[0] <= 0 or self.demand_range[0] > self.demand_range[1]:
            raise GenerationError("demand_range invalid")
        if not all(0 < side < math.inf for side in self.box):
            raise GenerationError(f"box {self.box!r} needs two positive finite sides")

    def resolved_trips_per_line(self) -> int:
        if self.trips_per_line is not None:
            return self.trips_per_line
        return 15 if self.n_customers <= 50 else 18


def generate_network(params: GenParams, rng: np.random.Generator
                     ) -> tuple[Point, list[Stop], list[Line]]:
    """Random polyline network with role-labeled stops, CDC on the west edge."""
    width, height = params.box
    cdc = Point(0.0, height / 2.0)
    stops: list[Stop] = []
    lines: list[Line] = []
    for li in range(params.n_lines):
        n_stops = int(rng.integers(params.stops_per_line[0], params.stops_per_line[1] + 1))
        anchor = np.array([rng.uniform(0.1 * width, 0.9 * width),
                           rng.uniform(0.05 * height, 0.95 * height)])
        heading = rng.uniform(0.0, 2.0 * math.pi)
        step = rng.uniform(0.10, 0.20) * max(width, height)
        points = [anchor]
        for _ in range(n_stops - 1):
            heading += rng.uniform(-0.5, 0.5)
            nxt = points[-1] + step * np.array([math.cos(heading), math.sin(heading)])
            nxt = np.clip(nxt, [0.0, 0.0], [width, height])
            points.append(nxt)
        # traverse starting from the end nearer the CDC
        if (euclidean_distance(cdc, Point(*points[-1]))
                < euclidean_distance(cdc, Point(*points[0]))):
            points = points[::-1]

        split = int(rng.integers(1, n_stops))  # at least one stop on each side
        roles = ["in"] * split + ["out"] * (n_stops - split)
        if rng.random() < LABEL_SHUFFLE_PROB and n_stops >= 3:
            a, b = rng.choice(n_stops, size=2, replace=False)
            roles[a], roles[b] = roles[b], roles[a]
        # the first stop stays a pickup point so every later drop stop is reachable
        roles[0] = "in"
        if "out" not in roles:
            roles[-1] = "out"

        stop_ids = []
        for si, (pt, role) in enumerate(zip(points, roles)):
            sid = f"L{li}S{si}"
            stops.append(Stop(
                id=sid, location=Point(float(pt[0]), float(pt[1])),
                is_drop_in=(role == "in"), is_drop_out=(role == "out"),
                service_time=STOP_SERVICE_MINUTES, max_dwell=STOP_MAX_DWELL))
            stop_ids.append(sid)
        lines.append(Line(id=f"L{li}", ordered_stops=tuple(stop_ids)))
    return cdc, stops, lines


def filter_lines(network: tuple[list[Stop], list[Line]], cdc: Point
                 ) -> tuple[list[Stop], list[Line]]:
    """Keep lines whose farthest drop-in is nearer the CDC than their nearest drop-out."""
    stops, lines = network
    by_id = {s.id: s for s in stops}
    kept_lines: list[Line] = []
    for line in lines:
        dropins = [by_id[s] for s in line.ordered_stops if by_id[s].is_drop_in]
        dropouts = [by_id[s] for s in line.ordered_stops if by_id[s].is_drop_out]
        if not dropins or not dropouts:
            continue
        far_in = max(euclidean_distance(cdc, s.location) for s in dropins)
        near_out = min(euclidean_distance(cdc, s.location) for s in dropouts)
        if far_in < near_out:
            kept_lines.append(line)
    if not kept_lines:
        raise NoProfitableLinesError("no profitable lines: every line was filtered out")
    kept_stop_ids = {sid for line in kept_lines for sid in line.ordered_stops}
    kept_stops = [s for s in stops if s.id in kept_stop_ids]
    return kept_stops, kept_lines


def candidate_radius(stops: list[Stop]) -> float:
    """Three times the mean pairwise stop distance."""
    if len(stops) < 2:
        return math.inf
    total, pairs = 0.0, 0
    for i, a in enumerate(stops):
        for b in stops[i + 1:]:
            total += euclidean_distance(a.location, b.location)
            pairs += 1
    return 3.0 * total / pairs


def assign_dropouts(customers: list[Customer], stops: list[Stop]) -> list[Customer]:
    """Candidate drop-out stops within the radius, else the three nearest."""
    dropouts = [s for s in stops if s.is_drop_out]
    if not dropouts:
        raise GenerationError("no drop-out stops to assign")
    radius = candidate_radius(stops)
    out = []
    for cust in customers:
        near = [s.id for s in dropouts
                if euclidean_distance(cust.location, s.location) <= radius]
        if not near:
            ranked = sorted(dropouts,
                            key=lambda s: euclidean_distance(cust.location, s.location))
            near = [s.id for s in ranked[:3]]
        out.append(replace(cust, dropout_candidates=frozenset(near)))
    return out


def generate_time_windows(n: int, rng: np.random.Generator) -> list[tuple[float, float]]:
    """Windows opening between the third and fifteenth period, at least 3 h long."""
    horizon = CostParams().horizon
    windows = []
    for _ in range(n):
        lo = float(rng.integers(int(EARLIEST_WINDOW_OPEN), int(LATEST_WINDOW_OPEN) + 1))
        hi = float(rng.integers(int(lo + WINDOW_MIN_LENGTH), int(horizon) + 1))
        windows.append((lo, hi))
    return windows


def patch_orphan_dropouts(instance: Instance, rng: np.random.Generator) -> Instance:
    """Inject a nearby customer for every drop-out stop nobody can use."""
    served: set[str] = set()
    for cust in instance.customers:
        served |= cust.dropout_candidates
    orphans = [s for s in instance.drop_out_stops() if s.id not in served]
    if not orphans:
        return instance
    dropouts = instance.drop_out_stops()
    box_scale = max(max(abs(s.location.x) for s in instance.stops),
                    max(abs(s.location.y) for s in instance.stops), 1.0)
    customers = list(instance.customers)
    demand_lo, demand_hi = 5, 20
    if customers:
        demand_lo = int(min(c.demand for c in customers))
        demand_hi = int(max(c.demand for c in customers))
    next_idx = len(customers) + 1
    for stop in orphans:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(0.0, 0.05 * box_scale)
        loc = Point(stop.location.x + dist * math.cos(angle),
                    stop.location.y + dist * math.sin(angle))
        [(lo, hi)] = generate_time_windows(1, rng)
        others = sorted((s for s in dropouts if s.id != stop.id),
                        key=lambda s: euclidean_distance(loc, s.location))
        candidates = frozenset([stop.id] + [s.id for s in others[:2]])
        customers.append(Customer(
            id=f"c{next_idx}", location=loc,
            demand=float(rng.integers(demand_lo, demand_hi + 1)),
            window_lo=lo, window_hi=hi, service_time=0.0,
            dropout_candidates=candidates))
        next_idx += 1
    return replace(instance, customers=tuple(customers))


def truck_band(n_customers: int) -> int:
    """Fleet size tiers by customer count."""
    if n_customers <= 20:
        return 5
    if n_customers <= 40:
        return 8
    if n_customers <= 50:
        return 10
    return 14


def size_fleets(instance: Instance) -> tuple[int, int]:
    """(truck count, freighters at every drop-out stop): a stop gets as many freighters
    as the most customers that name any one stop a candidate."""
    per_stop = max((sum(s.id in c.dropout_candidates for c in instance.customers)
                    for s in instance.drop_out_stops()), default=1)
    per_stop = max(per_stop, 1)
    total_demand = sum(c.demand for c in instance.customers)
    cap = instance.trucks[0].capacity if instance.trucks else TRUCK_CAPACITY
    n_trucks = max(truck_band(len(instance.customers)),
                   math.ceil(total_demand / cap))
    return n_trucks, per_stop


def generate_instance(params: GenParams) -> Instance:
    """Deterministic end-to-end generation from a seed."""
    rng = np.random.default_rng(params.seed)
    network = None
    for _ in range(NETWORK_ATTEMPTS):
        cdc, stops, lines = generate_network(params, rng)
        try:
            stops, lines = filter_lines((stops, lines), cdc)
        except NoProfitableLinesError:
            continue
        network = (cdc, stops, lines)
        break
    if network is None:
        raise NoProfitableLinesError(
            f"no profitable network after {NETWORK_ATTEMPTS} attempts (seed {params.seed})")
    cdc, stops, lines = network

    cost_params = CostParams()
    trips: list[Trip] = []
    n_trips = params.resolved_trips_per_line()
    stops_by_id = {s.id: s for s in stops}
    for line in lines:
        capacity = float(rng.integers(TRIP_CAPACITY_RANGE[0], TRIP_CAPACITY_RANGE[1] + 1))
        offsets = [0.0]
        for prev, here in zip(line.ordered_stops, line.ordered_stops[1:]):
            hop = travel_time(euclidean_distance(
                stops_by_id[prev].location, stops_by_id[here].location), cost_params)
            offsets.append(offsets[-1] + max(hop, 0.1))
        for j in range(n_trips):
            start = FIRST_TRIP_TIME + j * HEADWAY
            trips.append(Trip(
                id=f"{line.id}T{j}", line=line.id,
                stop_times={sid: start + off for sid, off in zip(line.ordered_stops, offsets)},
                capacity=capacity))

    width, height = params.box
    windows = generate_time_windows(params.n_customers, rng)
    customers = []
    for i in range(params.n_customers):
        loc = Point(float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height)))
        customers.append(Customer(
            id=f"c{i + 1}", location=loc,
            demand=float(rng.integers(params.demand_range[0], params.demand_range[1] + 1)),
            window_lo=windows[i][0], window_hi=windows[i][1],
            service_time=0.0, dropout_candidates=frozenset()))
    customers = assign_dropouts(customers, stops)

    draft = Instance(
        cdc=cdc, stops=tuple(stops), lines=tuple(lines), trips=tuple(trips),
        trucks=(Truck(id="d1", capacity=TRUCK_CAPACITY),),
        freighters=tuple(
            Freighter(id=f"k_{s.id}_0", home_stop=s.id, capacity=FREIGHTER_CAPACITY)
            for s in stops if s.is_drop_out),
        customers=tuple(customers),
        cost_params=cost_params,
    )
    draft = patch_orphan_dropouts(draft, rng)
    derive_compatibility(draft)  # raises unless transit reaches every customer

    n_trucks, per_stop = size_fleets(draft)
    trucks = tuple(Truck(id=f"d{j + 1}", capacity=TRUCK_CAPACITY)
                   for j in range(n_trucks))
    freighters = []
    for s in draft.drop_out_stops():
        for j in range(per_stop):
            freighters.append(Freighter(
                id=f"k_{s.id}_{j}", home_stop=s.id, capacity=FREIGHTER_CAPACITY))
    instance = replace(draft, trucks=trucks, freighters=tuple(freighters))
    instance.validate()
    return instance
