"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Fixture seeds were curated so every pipeline stage reaches proven
optimality inside the desk-scale stage limits; the properties they certify
are asserted here, not assumed.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import pytest

from transitfreight.backends import solve
from transitfreight.bruteforce import brute_force_optimum
from transitfreight.compat import derive_compatibility
from transitfreight.generate import (
    GenParams,
    GenerationError,
    filter_lines,
    generate_instance,
)
from transitfreight.instance import Instance, parse_instance, serialize_instance
from transitfreight.milp import ModelError
from transitfreight.model_full import FullOptions, build_full, decode_full, forward_times
from transitfreight.pipeline import PipelineError, RunConfig, run_method
from transitfreight.tiers import (
    ModelBuildError,
    T2Objective,
    build_d1_t1,
    build_d2_t2,
    build_d3_t3,
    decode_d3_t3,
)
from transitfreight.validate import validate_plan, validate_vrptw_plan

from conftest import (
    MICRO1_T1,
    MICRO1_T3,
    MICRO1_TOTAL,
    MICRO1_VRPTW,
    generate_micro_instances,
    make_micro1,
)
from mutations import FAMILIES, mutate, tight_fixture

# Curated generator seeds (see the scan notes in the repository history):
# every one of full/d1/d2/d3 reaches a proven solution within the stage caps.
DOMINANCE_SEEDS = (1, 2, 3, 8, 10, 14, 16, 17, 18, 20, 21)
# 8-12 customer instances for the dedicated-vehicle comparison
BASELINE_SEEDS = (200, 202, 205, 206, 208, 210, 212, 213, 215, 217)
# 10-customer instances for the service-cost sweep
SERVICE_COST_SEEDS = (300, 301)


def _dominance_params(seed: int) -> GenParams:
    return GenParams(n_customers=4 + seed % 5, n_lines=1 + seed % 2,
                     stops_per_line=(4, 5), seed=seed)


def _baseline_params(seed: int) -> GenParams:
    return GenParams(n_customers=8 + seed % 5, n_lines=1 + seed % 2,
                     stops_per_line=(4, 6), seed=seed)


def _service_cost_params(seed: int) -> GenParams:
    return GenParams(n_customers=10, n_lines=1, stops_per_line=(4, 4),
                     seed=seed, trips_per_line=10)


def with_freighter_capacity(instance: Instance, capacity: float) -> Instance:
    """Copy of the instance with every freighter's capacity replaced."""
    freighters = tuple(replace(k, capacity=float(capacity)) for k in instance.freighters)
    return replace(instance, freighters=freighters)


def test_criterion_1_oracle_equivalence(backend):
    """FULL's optimum equals the brute-force optimum on guarded micros."""
    started = time.perf_counter()
    instances = generate_micro_instances(20, start_seed=1000)
    checked = 0
    for instance in instances:
        outcome = brute_force_optimum(instance)
        model = build_full(instance)
        result = solve(model, backend)
        if outcome.feasible:
            assert result.status == "optimal", f"solver says {result.status}"
            plan = decode_full(instance, model, result)
            assert plan.costs.total == pytest.approx(outcome.cost, abs=1e-4)
        else:
            assert result.status == "infeasible"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20
    assert elapsed < 300.0
    print(f"ACCEPTANCE 1: PASS - {checked} micro instances, solver optimum = "
          f"enumeration optimum within 1e-4 ({elapsed:.1f}s)")


def test_criterion_2_worked_micro_values(backend, micro1):
    model = build_full(micro1)
    result = solve(model, backend)
    plan = decode_full(micro1, model, result)
    assert plan.costs.total == pytest.approx(22.83, abs=0.01)
    assert plan.costs.t1_cost == pytest.approx(20.0, abs=0.01)
    assert plan.costs.t3_cost == pytest.approx(2.83, abs=0.01)
    assert plan.costs.total == pytest.approx(MICRO1_TOTAL, abs=1e-6)

    _vplan, vmetrics = run_method(micro1, RunConfig(method="vrptw"), backend)
    assert vmetrics.total == pytest.approx(104.08, abs=0.01)
    assert vmetrics.total == pytest.approx(MICRO1_VRPTW, abs=1e-4)
    print(f"ACCEPTANCE 2: PASS - two-stop fixture: full={plan.costs.total:.4f} "
          f"(t1={plan.costs.t1_cost:.2f}, t3={plan.costs.t3_cost:.4f}), "
          f"direct trucking={vmetrics.total:.4f}")


@pytest.fixture(scope="module")
def dominance_runs(backend):
    """(seed, instance, method, plan, metrics) of every criterion-3 run, shared with
    criterion 4 so that either runs them once, alone or together."""
    runs = []
    for seed in DOMINANCE_SEEDS:
        instance = generate_instance(_dominance_params(seed))
        for method, obj in (("full", None), ("d1", "obj2"), ("d2", "obj2"),
                            ("d3", "obj2")):
            plan, metrics = run_method(
                instance, RunConfig(method=method, t2_obj=obj), backend)
            runs.append((seed, instance, method, plan, metrics))
    return runs


def test_criterion_3_dominance(dominance_runs):
    """FULL (proven optimal) never loses to a decomposition pipeline."""
    results = []
    for seed in DOMINANCE_SEEDS:
        totals = {}
        for _seed, instance, method, _plan, metrics in (
                run for run in dominance_runs if run[0] == seed):
            if method == "full":
                assert metrics.stages[-1].status == "optimal", \
                    f"seed {seed}: full not proven optimal"
            totals[method] = metrics.total
        for method, total in totals.items():
            assert totals["full"] <= total + 1e-6, \
                f"seed {seed}: full {totals['full']} > {method} {total}"
        deviations = {m: (t - totals["full"]) / totals["full"] * 100.0
                      for m, t in totals.items()}
        assert all(d >= -1e-9 for d in deviations.values())
        results.append((seed, len(instance.customers), deviations))
    assert len(results) >= 10
    worst = max(max(dev.values()) for _s, _n, dev in results)
    print(f"ACCEPTANCE 3: PASS - {len(results)} instances (4-10 customers) "
          f"solved by all four methods; deviations in [0%, {worst:.1f}%], "
          f"monolithic model never beaten")


def test_criterion_4_validator_completeness(dominance_runs):
    # every plan produced along the way is violation-free
    for _seed, instance, _method, plan, _metrics in dominance_runs:
        assert validate_plan(instance, plan) == []
    # and single-edit corruptions per constraint family are all caught
    per_family = {family: 0 for family in FAMILIES}
    for variant in range(10):
        instance, plan = tight_fixture(variant)
        assert validate_plan(instance, plan) == []
        for family in FAMILIES:
            mutated = mutate(family, instance, plan)
            codes = {v.code for v in validate_plan(instance, mutated)}
            assert codes, f"variant {variant}: {family} mutation undetected"
            assert family in codes, \
                f"variant {variant}: {family} mutation flagged as {codes}"
            per_family[family] += 1
    assert all(n >= 10 for n in per_family.values())
    print(f"ACCEPTANCE 4: PASS - {len(dominance_runs)} method plans clean; "
          f"{sum(per_family.values())} corruptions "
          f"({min(per_family.values())}+ per family) all detected")


def test_criterion_5_symmetry_breaking_neutrality(backend):
    instances = generate_micro_instances(10, start_seed=2000)
    checked = 0
    for instance in instances:
        with_sb = solve(build_full(instance,
                                   FullOptions(symmetry_breaking=True)), backend)
        without = solve(build_full(instance,
                                   FullOptions(symmetry_breaking=False)), backend)
        assert with_sb.status == without.status
        if with_sb.status == "optimal":
            a = decode_full(instance, build_full(
                instance, FullOptions(symmetry_breaking=True)), with_sb)
            b = decode_full(instance, build_full(
                instance, FullOptions(symmetry_breaking=False)), without)
            assert a.costs.total == pytest.approx(b.costs.total, abs=1e-6)
        checked += 1
    assert checked >= 10
    print(f"ACCEPTANCE 5: PASS - optimum invariant to the symmetry-breaking "
          f"toggle on {checked} micro instances (within 1e-6)")


def _random_micro(seed: int):
    for offset in range(40):
        try:
            return generate_instance(GenParams(
                n_customers=3 + seed % 3, n_lines=1, stops_per_line=(3, 4),
                seed=3000 + seed + offset * 1000, trips_per_line=2,
                demand_range=(5, 12)))
        except GenerationError:
            continue
    raise RuntimeError("no instance")


def test_criterion_6_pipeline_structural_properties(backend):
    cases = 100

    # used-stop flags agree with actual usage at every optimum
    for seed in range(cases):
        instance = _random_micro(seed)
        try:
            model = build_d2_t2(instance, T2Objective("obj1"))
        except ModelError:
            continue
        result = solve(model, backend)
        if result.status != "optimal":
            continue
        for side, flags in (("y1", "phi1"), ("y2", "phi2")):
            usage: dict[str, float] = {}
            for (i, s, p), var in model.family(side).items():
                usage[s] = usage.get(s, 0.0) + result.values[var]
            for (s,), flag in model.family(flags).items():
                lit = round(result.values[flag])
                assert lit == (1 if usage.get(s, 0.0) > 0.5 else 0)

    # freighter-count estimates are exactly the volume ceilings at optimum
    qf_checked = 0
    for seed in range(cases):
        instance = _random_micro(seed + 500)
        try:
            model = build_d2_t2(instance, T2Objective("obj3"))
        except ModelError:
            continue
        result = solve(model, backend)
        if result.status != "optimal":
            continue
        qf = (sum(k.capacity for k in instance.freighters)
              / len(instance.freighters))
        length = instance.cost_params.period_length
        volume: dict[tuple, float] = {}
        for (i, s, p), var in model.family("y2").items():
            t = instance.trip(p).stop_times[s]
            period = min(int(t // length), instance.cost_params.period_count - 1)
            volume[(s, period)] = (volume.get((s, period), 0.0)
                                   + instance.customer(i).demand * result.values[var])
        for (s, period), h_var in model.family("h").items():
            expected = math.ceil(round(volume.get((s, period), 0.0), 6) / qf)
            assert round(result.values[h_var]) == expected
        qf_checked += 1

    # d1-t1's truck window at every (customer, drop-in stop) pair it keeps lies in one
    # half of the day: open to the start and closed by midday, or opened at midday
    halves_checked = 0
    for seed in range(cases):
        instance = _random_micro(seed + 250)
        drop_ins = derive_compatibility(instance)
        try:
            windows = build_d1_t1(instance, drop_ins).metadata["windows"]
        except ModelBuildError:
            continue
        mid = instance.cost_params.t_mid_day
        assert list(windows) == [c.id for c in instance.customers]
        for cid, at in windows.items():
            assert at and set(at) <= drop_ins[cid]
            for lo, hi in at.values():
                assert (lo == -math.inf and hi <= mid) or (lo == mid and hi >= mid)
        halves_checked += 1
    assert halves_checked >= cases // 2

    # d3-t3 hands on one latest departure per route, and a freighter leaving then and
    # driving the route in its order without waiting meets every closing
    routes_checked = 0
    for seed in range(cases):
        instance = _random_micro(seed + 750)
        try:
            model = build_d3_t3(instance)
        except ModelBuildError:
            continue
        result = solve(model, backend)
        assert result.status == "optimal"
        routes = decode_d3_t3(instance, model, result)
        served = sorted(cid for _, order, _ in routes for cid in order)
        assert served == sorted(c.id for c in instance.customers)  # each exactly once
        for freighter, order, latest in routes:
            home = instance.stop(instance.freighter(freighter).home_stop)
            custs = [instance.customer(cid) for cid in order]
            assert all(home.id in c.dropout_candidates for c in custs)
            arrivals = forward_times(instance, home.location, latest,
                                     [(c, -math.inf) for c in custs])
            for cust, t in zip(custs, arrivals):
                assert t <= cust.window_hi + 1e-9
            routes_checked += 1
    assert routes_checked >= cases

    print(f"ACCEPTANCE 6: PASS - used-stop flags, freighter-count ceilings "
          f"({qf_checked} solved cases), half-day windows ({halves_checked} built "
          f"cases), and the latest departures "
          f"of {routes_checked} d3-t3 routes verified over {cases} randomized cases each")


def test_criterion_7_dedicated_vehicle_reduction(backend):
    """Mean first-leg cost of the three-tier system beats direct trucking.

    The best method per instance has first-leg cost at most the transit-first
    pipeline's, so certifying the inequality with that pipeline certifies it
    for the best method as well.
    """
    t1_costs, vrptw_costs = [], []
    for seed in BASELINE_SEEDS:
        instance = generate_instance(_baseline_params(seed))
        assert 8 <= len(instance.customers) <= 12
        plan, m2 = run_method(instance, RunConfig(method="d2", t2_obj="obj2"), backend)
        vplan, mv = run_method(instance, RunConfig(method="vrptw"), backend)
        assert validate_plan(instance, plan) == []
        assert validate_vrptw_plan(instance, vplan) == []
        t1_costs.append(m2.t1_cost)
        vrptw_costs.append(mv.total)
        assert m2.t1_cost < mv.total
    assert len(t1_costs) >= 10
    reduction = 100.0 * (1.0 - sum(t1_costs) / sum(vrptw_costs))
    assert sum(t1_costs) / len(t1_costs) < sum(vrptw_costs) / len(vrptw_costs)
    print(f"ACCEPTANCE 7: PASS - over {len(t1_costs)} instances (8-12 "
          f"customers), mean dedicated-truck cost {sum(t1_costs)/len(t1_costs):.1f} "
          f"< direct-trucking {sum(vrptw_costs)/len(vrptw_costs):.1f} "
          f"({reduction:.1f}% reduction in dedicated-vehicle distance)")


def test_criterion_8_generator_conformance():
    checked = 0
    windows_ok = fleets_ok = 0
    seed = -1
    while checked < 1000 and seed < 2000:
        seed += 1
        params = GenParams(
            n_customers=3 + seed % 4, n_lines=1 + seed % 2,
            stops_per_line=(3, 5), seed=seed, trips_per_line=2 + seed % 3)
        try:
            instance = generate_instance(params)
        except GenerationError:
            continue
        instance.validate()
        derive_compatibility(instance)  # reachability
        assert parse_instance(serialize_instance(instance)) == instance
        # filtering is a fixpoint on generator output
        stops, lines = filter_lines(
            (list(instance.stops), list(instance.lines)), instance.cdc)
        assert {s.id for s in stops} == {s.id for s in instance.stops}
        assert [l.id for l in lines] == [l.id for l in instance.lines]
        if all(c.window_hi - c.window_lo >= 180.0 and c.window_lo >= 60.0
               and c.window_hi <= instance.cost_params.horizon
               for c in instance.customers):
            windows_ok += 1
        per_stop: dict[str, int] = {}
        for k in instance.freighters:
            per_stop[k.home_stop] = per_stop.get(k.home_stop, 0) + 1
        worst = max(sum(s.id in c.dropout_candidates for c in instance.customers)
                    for s in instance.drop_out_stops())
        demand = sum(c.demand for c in instance.customers)
        capacity = sum(d.capacity for d in instance.trucks)
        if demand <= capacity and all(n >= worst for n in per_stop.values()):
            fleets_ok += 1
        checked += 1
    assert checked == windows_ok == fleets_ok
    assert checked >= 1000

    # determinism: byte-identical documents for repeated generation
    for seed in range(0, 100, 4):
        params = GenParams(n_customers=4, n_lines=1, stops_per_line=(3, 5),
                           seed=seed, trips_per_line=2)
        try:
            a = serialize_instance(generate_instance(params))
        except GenerationError:
            continue
        b = serialize_instance(generate_instance(params))
        assert a == b
        assert parse_instance(a) == parse_instance(b)
    print(f"ACCEPTANCE 8: PASS - {checked} generated instances satisfy all "
          f"invariants (filter fixpoint, window bounds, reachability, fleet "
          f"coverage); generation is deterministic per seed")


@pytest.mark.slow
def test_criterion_9_service_cost_trend(backend):
    mus = (0.0, 0.1, 0.25, 0.5, 2.0)
    lines = []
    for seed in SERVICE_COST_SEEDS:
        instance = generate_instance(_service_cost_params(seed))
        assert len(instance.customers) == 10
        for qf in (30.0, 50.0):
            variant = with_freighter_capacity(instance, qf)
            series = []
            for mu in mus:
                _plan, metrics = run_method(
                    variant, RunConfig(method="full", mu=mu), backend)
                assert metrics.stages[-1].status == "optimal"
                series.append(metrics.stops_in_used)
            assert all(b <= a for a, b in zip(series, series[1:])), \
                f"seed {seed} capacity {qf}: drop-in stop usage not monotone {series}"
            lines.append(f"seed {seed}, capacity {qf:g}: drop-in stops by mu "
                         f"{dict(zip(mus, series))}")
    print("ACCEPTANCE 9: PASS - used drop-in stops non-increasing in the "
          "service-cost scale on every 10-customer instance")
    for line in lines:
        print("  " + line)
