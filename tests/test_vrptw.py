import math

import pytest

from transitfreight.backends import solve
from transitfreight.bruteforce import brute_force_vrptw
from transitfreight.instance import Customer, Point, Truck
from transitfreight.validate import recompute_vrptw_cost, validate_vrptw_plan
from transitfreight.vrptw import build_vrptw, decode_vrptw

from conftest import MICRO1_VRPTW, generate_micro_instances, make_micro1


def test_vrptw_micro1(backend, micro1):
    model = build_vrptw(micro1)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(MICRO1_VRPTW, abs=1e-4)
    plan = decode_vrptw(micro1, model, result)
    assert validate_vrptw_plan(micro1, plan) == []
    # the decoded plan recomputes the objective exactly from rounded routes
    assert plan.total_cost == pytest.approx(2 * math.sqrt(52**2 + 2**2), abs=1e-9)
    assert recompute_vrptw_cost(micro1, plan) == pytest.approx(plan.total_cost, abs=1e-9)
    assert len(plan.routes) == 1
    assert plan.routes[0].customers == ("c1",)
    assert 200.0 - 1e-6 <= plan.routes[0].times[0] <= 800.0 + 1e-6


def test_vrptw_no_customers_costs_nothing(backend):
    from dataclasses import replace
    empty = replace(make_micro1(), customers=())
    model = build_vrptw(empty)
    result = solve(model, backend)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.0, abs=1e-9)
    plan = decode_vrptw(empty, model, result)
    assert plan.routes == ()


def test_vrptw_window_packing(backend):
    """Two far-apart customers: one sweep when windows allow, two when not."""
    from dataclasses import replace

    def variant(win_u, win_v):
        base = make_micro1()
        return replace(base, customers=(
            Customer("u", Point(100, 0), 10.0, win_u[0], win_u[1], 0.0, frozenset({"B"})),
            Customer("v", Point(200, 0), 10.0, win_v[0], win_v[1], 0.0, frozenset({"B"})),
        ), trucks=(Truck("d1", 160.0), Truck("d2", 160.0)))

    relaxed = variant((60.0, 900.0), (60.0, 900.0))
    result = solve(build_vrptw(relaxed), backend)
    assert result.status == "optimal"
    # one truck out-and-back through both: 200 + 200
    assert result.objective == pytest.approx(400.0, abs=1e-4)

    # both windows so tight that neither visiting order can chain them
    clashing = variant((80.0, 90.0), (85.0, 95.0))
    result = solve(build_vrptw(clashing), backend)
    assert result.status == "optimal"
    # two dedicated round trips: 2*100 + 2*200
    assert result.objective == pytest.approx(600.0, abs=1e-4)


def test_vrptw_baseline_exceeds_three_tier_on_micro1(backend, micro1):
    from transitfreight.model_full import build_full
    three_tier = solve(build_full(micro1), backend)
    direct = solve(build_vrptw(micro1), backend)
    assert direct.objective > three_tier.objective  # 104.08 vs 22.83


def _solve_and_check(instance, backend):
    """Solve the baseline; the decoded plan is valid and costs what the solver says."""
    model = build_vrptw(instance)
    result = solve(model, backend)
    if result.status != "optimal":
        return model, result, None
    plan = decode_vrptw(instance, model, result)
    assert validate_vrptw_plan(instance, plan) == []
    assert recompute_vrptw_cost(instance, plan) == pytest.approx(plan.total_cost, abs=1e-9)
    assert plan.total_cost == pytest.approx(result.objective, abs=1e-4)
    return model, result, plan


def _oracle_variants(instance):
    """The instance as generated, and variants that make routes split or fail."""
    from dataclasses import replace
    top = max(c.demand for c in instance.customers)
    total = sum(c.demand for c in instance.customers)
    yield instance
    # a small and a big truck: two classes, and more than one route
    yield replace(instance, trucks=(Truck("d1", top), Truck("d2", total - top / 2)))
    # twenty-minute windows
    yield replace(instance, customers=tuple(
        replace(c, window_hi=c.window_lo + 20.0) for c in instance.customers))
    # one truck too small for the whole load: infeasible
    yield replace(instance, trucks=(Truck("d1", total - 1.0),))


def test_vrptw_matches_brute_force_oracle(backend):
    outcomes = []
    for generated in generate_micro_instances(20, start_seed=1000):
        for instance in _oracle_variants(generated):
            oracle = brute_force_vrptw(instance)
            _model, result, _plan = _solve_and_check(instance, backend)
            outcomes.append(0 if oracle is None else len(oracle.routes))
            if oracle is None:
                assert result.status == "infeasible"
                continue
            assert validate_vrptw_plan(instance, oracle) == []
            assert result.status == "optimal"
            assert result.objective == pytest.approx(oracle.total_cost, abs=1e-4)
    # the variants reach infeasible, one-route and multi-route optima
    assert {0, 1, 2} <= set(outcomes)


def test_vrptw_mixed_capacity_trucks_form_separate_classes(backend):
    """A small and a big truck are two classes; the big one alone carries u."""
    from dataclasses import replace
    instance = replace(make_micro1(), customers=(
        Customer("u", Point(100, 0), 20.0, 60.0, 900.0, 0.0, frozenset({"B"})),
        Customer("v", Point(0, 100), 15.0, 60.0, 900.0, 0.0, frozenset({"B"})),
    ), trucks=(Truck("small", 15.0), Truck("big", 30.0)))
    model, result, plan = _solve_and_check(instance, backend)
    # u's demand exceeds the small class's capacity, so it has no z there
    assert set(model.family("z")) == {("u", "big"), ("v", "small"), ("v", "big")}
    # together u and v overload the big truck: two routes, one per class
    assert {(r.truck, r.customers) for r in plan.routes} == {("big", ("u",)), ("small", ("v",))}
    assert result.objective == pytest.approx(brute_force_vrptw(instance).total_cost, abs=1e-4)
    assert result.objective == pytest.approx(400.0, abs=1e-4)
