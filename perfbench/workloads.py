"""Workload definitions: which instances a run draws and which configs it runs.

Every workload draws guarded micro instances, the shape the test suite uses
for the brute-force oracle: 2-4 customers on one line of 3-4 stops with two
trips, fleets trimmed to the oracle's guard. One instance of a larger class
takes from a fraction of a second to minutes, or stops at a stage time
limit, so a run of tens of seconds would not repeat across seeds (see
README.md).

Instance ``i`` of a run comes from generator seed
``base_seed + seed % SEED_WINDOW + i``, moving on to the next generator seed
when a draw is rejected. Consecutive workload seeds therefore shift the
instance window by one, and any two runs share all but a few instances, so
their sweeps stay comparable while each seed still gives its own inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

SEED_WINDOW = 8
WARMUP_GEN_SEED = 1001  # the throwaway warm-up solve, the same for every workload


@dataclass(frozen=True)
class Workload:
    name: str
    base_seed: int
    # instances per second of requested run length, measured on a 2-core
    # machine; fixes the instance count so every run does the same work
    per_second: float
    configs: tuple[dict, ...]
    # check the first config's optimum against brute_force_optimum, which
    # runs after each instance's configs, inside the timed sweep
    oracle: bool = False
    # configs run once, after the sweep of a traced run, on the first
    # PROBE_INSTANCES instances; they end in a PipelineError on most of them
    probes: tuple[dict, ...] = ()

    def __post_init__(self) -> None:
        if self.oracle and self.configs[0] != {"method": "full"}:
            raise ValueError(f"{self.name}: the oracle checks a plain full run, listed first")

    def instance_count(self, seconds: float) -> int:
        return max(1, math.ceil(seconds * self.per_second))


PROBE_INSTANCES = 16

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="monolithic", base_seed=2000, per_second=1.5,
            configs=({"method": "full"}, {"method": "full", "mu": 0.5},
                     {"method": "vrptw"}),
            oracle=True),
        Workload(
            name="decomposed", base_seed=3000, per_second=4.0,
            configs=tuple({"method": "d2", "t2_obj": o} for o in ("obj1", "obj2", "obj3")),
            probes=tuple({"method": "d1", "t2_obj": o} for o in ("obj1", "obj2", "obj3"))
            + tuple({"method": "d3", "t2_obj": o} for o in ("obj1", "obj2"))),
    )
}


# transitfreight is imported inside the functions below: run.py reads
# WORKLOADS without the planner's sources on its path.

def micro_params(gen_seed: int):
    from transitfreight.generate import GenParams
    return GenParams(
        n_customers=2 + gen_seed % 3, n_lines=1, stops_per_line=(3, 4), seed=gen_seed,
        trips_per_line=2, demand_range=(5, 10))


def fit_enumeration_guard(instance):
    """Keep at most two trucks and two freighters per stop, as the oracle requires.

    The same trim as the test suite's ``fit_enumeration_guard``; the benchmark
    does not import test code.
    """
    per_stop: dict[str, int] = {}
    keep = []
    for k in instance.freighters:
        if per_stop.get(k.home_stop, 0) < 2:
            keep.append(k)
            per_stop[k.home_stop] = per_stop.get(k.home_stop, 0) + 1
    trimmed = replace(instance, trucks=instance.trucks[:2], freighters=tuple(keep))
    trimmed.validate()
    return trimmed


def draw_micro(gen_seed: int):
    """One micro instance; generation goes through the module attribute so a tracer sees it."""
    from transitfreight import generate
    return fit_enumeration_guard(generate.generate_instance(micro_params(gen_seed)))


def draw_instances(workload: Workload, seed: int, count: int):
    """``count`` accepted (gen_seed, instance) pairs and the number of rejected draws."""
    from transitfreight.instance import InstanceError

    gen_seed = workload.base_seed + seed % SEED_WINDOW
    drawn, rejects = [], 0
    while len(drawn) < count:
        try:
            drawn.append((gen_seed, draw_micro(gen_seed)))
        except InstanceError:
            rejects += 1
            if rejects > 10 * count:
                raise RuntimeError(f"{workload.name}: generator rejects nearly every draw")
        gen_seed += 1
    return drawn, rejects
