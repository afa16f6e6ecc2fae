"""Shared fixtures: the hand-checkable two-stop instance and small generators."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from transitfreight.backends import ScipyHighsBackend
from transitfreight.generate import GenParams, GenerationError, generate_instance
from transitfreight.instance import (
    Customer,
    Freighter,
    Instance,
    Line,
    Point,
    Stop,
    Trip,
    Truck,
)

# Two-stop fixture exercising all three tiers with hand-checkable numbers:
# truck leg 2x10 = 20, freighter round trip 2*sqrt(8)*0.5 = 2.8284...,
# optimum 22.8284; direct trucking costs 2*sqrt(2708) = 104.0769.
MICRO1_TOTAL = 22.82842712474619
MICRO1_T1 = 20.0
MICRO1_T3 = 2.8284271247461903
MICRO1_VRPTW = 2 * math.sqrt(2708)


def make_micro1(window=(200.0, 800.0), extra_trip_time=None, freighters=1,
                freighter_capacity=20.0) -> Instance:
    trips = [
        Trip("p1", "L1", {"A": 150.0, "B": 158.0}, 60.0),
        Trip("p2", "L1", {"A": 180.0, "B": 188.0}, 60.0),
    ]
    if extra_trip_time is not None:
        trips.append(Trip("p3", "L1", {"A": extra_trip_time - 8.0,
                                       "B": extra_trip_time}, 60.0))
    fleet = tuple(Freighter(f"f{j + 1}", "B", freighter_capacity)
                  for j in range(freighters))
    instance = Instance(
        cdc=Point(0.0, 0.0),
        stops=(
            Stop("A", Point(10.0, 0.0), True, False, 10.0, 300.0),
            Stop("B", Point(50.0, 0.0), False, True, 10.0, 300.0),
        ),
        lines=(Line("L1", ("A", "B")),),
        trips=tuple(trips),
        trucks=(Truck("d1", 160.0),),
        freighters=fleet,
        customers=(
            Customer("c1", Point(52.0, 2.0), 10.0, window[0], window[1], 0.0,
                     frozenset({"B"})),
        ),
    )
    instance.validate()
    return instance


@pytest.fixture(scope="session")
def micro1() -> Instance:
    return make_micro1()


@pytest.fixture(scope="session")
def backend():
    return ScipyHighsBackend()


def micro_gen_params(seed: int, n_customers: int = 3, n_lines: int = 1) -> GenParams:
    """Parameters whose output fits the enumeration guard after fleet trimming."""
    return GenParams(
        n_customers=n_customers, n_lines=n_lines, stops_per_line=(3, 4), seed=seed,
        trips_per_line=2, demand_range=(5, 10))


def fit_enumeration_guard(instance: Instance) -> Instance:
    """Trim fleets to the oracle's guard; capacity headroom stays sufficient."""
    trucks = instance.trucks[:2]
    keep = []
    count: dict[str, int] = {}
    for k in instance.freighters:
        if count.get(k.home_stop, 0) < 2:
            keep.append(k)
            count[k.home_stop] = count.get(k.home_stop, 0) + 1
    trimmed = replace(instance, trucks=trucks, freighters=tuple(keep))
    trimmed.validate()
    return trimmed


def generate_micro_instance(seed: int, n_customers: int = 3, n_lines: int = 1) -> Instance:
    return fit_enumeration_guard(
        generate_instance(micro_gen_params(seed, n_customers, n_lines)))


def generate_micro_instances(count: int, start_seed: int = 0,
                             n_customers=(2, 3, 4), n_lines: int = 1) -> list[Instance]:
    out = []
    seed = start_seed
    while len(out) < count and seed < start_seed + 400:
        try:
            inst = generate_micro_instance(seed, n_customers[seed % len(n_customers)], n_lines)
        except GenerationError:
            seed += 1
            continue
        out.append(inst)
        seed += 1
    if len(out) < count:
        raise RuntimeError(f"could not generate {count} micro instances")
    return out
