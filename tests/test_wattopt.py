"""Tests for the watt-aware aggregation subsystem (repro.wattopt).

Three pillars:

* the :class:`WattCostModel` maps fleets to marginal online draws, with
  the homogeneous default collapsing to a uniform model;
* the watt-greedy solver is feasible, near-optimal (within one device's
  marginal draw of the exact watt optimum on randomized small mixed
  instances) and *exactly* the count solver on uniform models;
* end to end, ``optimal-watts`` is bit-identical to ``Optimal`` on the
  homogeneous fleet and strictly cheaper in gateway energy on a mixed
  fleet (the acceptance criterion of the subsystem).
"""

import numpy as np
import pytest

from repro.access.gateway_array import STATE_ACTIVE
from repro.core.bh2 import BH2Terminal
from repro.core.optimal import (
    AggregationProblem,
    ExactAggregationSolver,
    GreedyAggregationSolver,
    verify_solution,
)
from repro.core.schemes import (
    bh2_kswitch,
    bh2_watts,
    optimal,
    optimal_watts,
    watt_schemes,
)
from repro.fleet.profile import FLEETS, HOMOGENEOUS
from repro.simulation.runner import run_scheme
from repro.topology.scenario import build_default_scenario
from repro.wattopt import (
    ExactWattAggregationSolver,
    WattCostModel,
    WattGreedyAggregationSolver,
)

# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
def test_homogeneous_model_is_uniform_and_counts_watts():
    model = WattCostModel.homogeneous(4)
    assert model.is_uniform
    assert model.num_gateways == 4
    # 9 W active - 0 W standby + 1 W ISP modem per powered line.
    assert model.marginal_w(0) == 10.0
    assert model.watt_objective([0, 2]) == 20.0
    assert model.bias() == [1.0] * 4


def test_from_fleet_mixed_marginals_follow_generations():
    fleet = FLEETS["legacy-efficient"]
    model = WattCostModel.from_fleet(fleet, 10)
    assert not model.is_uniform
    marginals = sorted(set(model.marginals()))
    # efficient-5w: 5 - 0.3 + 1; legacy-9w: 9 - 0 + 1.
    assert marginals == [5.7, 10.0]
    assert model.max_marginal_w() == 10.0
    bias = model.bias()
    assert min(bias) > 0 and max(bias) == 1.0
    # The cheapest generation carries bias 1.0, the legacy one less.
    cheap = min(range(10), key=model.marginal_w)
    assert bias[cheap] == 1.0


def test_from_fleet_none_and_uniform_default_collapse_to_homogeneous():
    assert WattCostModel.from_fleet(None, 3) == WattCostModel.homogeneous(3)
    assert WattCostModel.from_fleet(HOMOGENEOUS, 3) == WattCostModel.homogeneous(3)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        WattCostModel(online_w=(), standby_w=())
    with pytest.raises(ValueError):
        WattCostModel(online_w=(9.0,), standby_w=(0.0, 0.0))
    with pytest.raises(ValueError):
        WattCostModel(online_w=(9.0,), standby_w=(-1.0,))
    with pytest.raises(ValueError):  # zero marginal draw
        WattCostModel(online_w=(1.0,), standby_w=(1.0,), modem_w=0.0)


# ----------------------------------------------------------------------
# Solvers
# ----------------------------------------------------------------------
def _reach_all(demands, num_gateways, capacity=6e6):
    wireless = {(u, g): 12e6 for u in demands for g in range(num_gateways)}
    return AggregationProblem(
        demands_bps=demands,
        capacities_bps={g: capacity for g in range(num_gateways)},
        wireless_bps=wireless,
        backup=0,
    )


def test_watt_greedy_prefers_the_efficient_gateway():
    model = WattCostModel(online_w=(9.0, 5.0, 9.0), standby_w=(0.0, 0.3, 0.0), modem_w=1.0)
    problem = _reach_all({u: 0.2e6 for u in range(6)}, 3)
    solution = WattGreedyAggregationSolver(model).solve(problem)
    assert sorted(solution.online_gateways) == [1]
    assert verify_solution(problem, solution)


def test_watt_greedy_downgrade_swaps_expensive_for_cheap():
    # Gateway 0 (legacy) covers both users; the efficient gateway 1 only
    # reaches user 0 and the efficient gateway 2 only reaches user 1 — the
    # greedy may open the well-covering legacy box, but two efficient ones
    # are cheaper (2 * 5.7 < 10.0 is false... 11.4 > 10, so legacy *is*
    # optimal here).  Flip the draws so the swap is genuinely better.
    model = WattCostModel(online_w=(9.0, 4.0, 9.0), standby_w=(0.0, 0.3, 0.0), modem_w=0.0)
    problem = AggregationProblem(
        demands_bps={0: 1e6, 1: 1e6},
        capacities_bps={0: 6e6, 1: 6e6, 2: 6e6},
        wireless_bps={
            (0, 0): 12e6, (1, 0): 12e6,
            (0, 1): 12e6, (1, 1): 12e6,
        },
        backup=0,
    )
    solution = WattGreedyAggregationSolver(model).solve(problem)
    assert verify_solution(problem, solution)
    # Both users fit on the 3.7 W-marginal gateway 1; the 9 W box stays off.
    assert sorted(solution.online_gateways) == [1]


def test_uniform_model_delegates_to_the_count_solver_exactly():
    model = WattCostModel.homogeneous(3)
    problem = _reach_all({u: 0.4e6 for u in range(5)}, 3)
    watt = WattGreedyAggregationSolver(model).solve(problem)
    count = GreedyAggregationSolver().solve(problem)
    assert watt.online_gateways == count.online_gateways
    assert watt.assignment == count.assignment


def test_exact_watt_solver_caps_instance_size():
    model = WattCostModel.homogeneous(20)
    problem = _reach_all({0: 1e6}, 20)
    with pytest.raises(ValueError, match="exact watt solver"):
        ExactWattAggregationSolver(model).solve(problem)


def test_exact_watt_matches_exact_count_on_uniform_models():
    model = WattCostModel.homogeneous(3)
    problem = _reach_all({0: 4e6, 1: 4e6, 2: 1e6}, 3)
    watt = ExactWattAggregationSolver(model).solve(problem)
    count = ExactAggregationSolver().solve(problem)
    assert watt.objective == count.objective
    assert verify_solution(problem, watt)


# ----------------------------------------------------------------------
# Property: watt-greedy vs. exact watt optimum on random mixed instances
# ----------------------------------------------------------------------
_GENERATION_DRAWS = ((9.0, 0.0), (5.0, 0.3), (7.0, 0.1))


def _random_instance(rng):
    num_gateways = int(rng.integers(2, 6))
    num_users = int(rng.integers(1, 8))
    picks = rng.integers(0, len(_GENERATION_DRAWS), num_gateways)
    model = WattCostModel(
        online_w=tuple(_GENERATION_DRAWS[p][0] for p in picks),
        standby_w=tuple(_GENERATION_DRAWS[p][1] for p in picks),
        modem_w=1.0,
    )
    # Demands bounded so even the worst draw (7 users needing coverage 2
    # on 2 gateways) fits the 6 Mbps budgets: instances stay feasible by
    # construction, which is the regime the simulator's solves live in
    # (greedy set-multicover guarantees nothing under capacity pressure).
    demands = {u: float(rng.uniform(0.05e6, 0.75e6)) for u in range(num_users)}
    wireless = {}
    for user in demands:
        reachable = [g for g in range(num_gateways) if rng.random() < 0.7]
        if not reachable:
            reachable = [int(rng.integers(num_gateways))]
        for gateway in reachable:
            wireless[(user, gateway)] = 12e6
    problem = AggregationProblem(
        demands_bps=demands,
        capacities_bps={g: 6e6 for g in range(num_gateways)},
        wireless_bps=wireless,
        backup=int(rng.integers(0, 2)),
    )
    return problem, model


def test_watt_greedy_within_one_device_of_exact_on_random_instances():
    rng = np.random.default_rng(20110817)
    checked = 0
    for _ in range(200):
        problem, model = _random_instance(rng)
        exact_solution = ExactWattAggregationSolver(model).solve(problem)
        if not verify_solution(problem, exact_solution):
            continue  # capacity-infeasible draw: nothing to compare against
        checked += 1
        greedy_solution = WattGreedyAggregationSolver(model).solve(problem)
        assert verify_solution(problem, greedy_solution)
        exact_watts = model.watt_objective(exact_solution.online_gateways)
        greedy_watts = model.watt_objective(greedy_solution.online_gateways)
        # Exact is a true lower bound; greedy lands within one device's
        # marginal draw of it on every generated instance.
        assert exact_watts <= greedy_watts + 1e-9
        assert greedy_watts <= exact_watts + model.max_marginal_w() + 1e-9
    assert checked == 200  # the generator produces feasible instances only


# ----------------------------------------------------------------------
# BH2 watt bias
# ----------------------------------------------------------------------
def test_bh2_watt_bias_validation_and_neutrality():
    with pytest.raises(ValueError):
        BH2Terminal(0, 0, frozenset({0, 1}), watt_bias=[1.0, 0.0])
    # An all-ones bias draws identically to no bias at all.
    plain = BH2Terminal(0, 0, frozenset({0, 1, 2}), rng=np.random.default_rng(7))
    biased = BH2Terminal(
        0, 0, frozenset({0, 1, 2}), rng=np.random.default_rng(7),
        watt_bias=[1.0, 1.0, 1.0],
    )
    state = [STATE_ACTIVE] * 3
    loads = [0.0, 0.2, 0.3]

    def utilization(gateway_id, _now):
        return loads[gateway_id]

    assert plain.decide_fast(1000.0, state, utilization) == biased.decide_fast(
        1000.0, state, utilization
    )


def test_bh2_watt_bias_tilts_the_draw_toward_efficient_gateways():
    counts = {1: 0, 2: 0}
    state = [STATE_ACTIVE] * 3
    loads = [0.0, 0.25, 0.25]  # equal loads: only the bias separates them
    bias = [1.0, 1.0, 0.2]

    def utilization(gateway_id, _now):
        return loads[gateway_id]

    for seed in range(400):
        terminal = BH2Terminal(
            0, 0, frozenset({0, 1, 2}),
            rng=np.random.default_rng(seed), watt_bias=bias,
        )
        selected, _wake = terminal.decide_fast(1000.0, state, utilization)
        if selected in counts:
            counts[selected] += 1
    assert counts[1] > 3 * counts[2]


# ----------------------------------------------------------------------
# End to end: homogeneous bit-identity and the mixed-fleet watt win
# ----------------------------------------------------------------------
FLAT_PROFILE = tuple([1.0] * 24)

SCENARIO_ARGS = dict(
    seed=13,
    num_clients=40,
    num_gateways=10,
    duration=3 * 3600.0,
    diurnal_profile=FLAT_PROFILE,
    peak_online_probability=0.4,
)


@pytest.fixture(scope="module")
def homogeneous_scenario():
    return build_default_scenario(**SCENARIO_ARGS)


@pytest.fixture(scope="module")
def mixed_scenario():
    # Larger than the homogeneous fixture: the watt objective only bites
    # when the solver has real routing freedom (several gateways able to
    # cover each user), which a 10-gateway deployment barely offers.
    return build_default_scenario(
        seed=13,
        num_clients=60,
        num_gateways=12,
        duration=4 * 3600.0,
        diurnal_profile=FLAT_PROFILE,
        peak_online_probability=0.4,
        fleet=FLEETS["legacy-efficient"],
    )


def _assert_bit_identical(a, b):
    assert a.mean_savings() == b.mean_savings()
    assert a.mean_online_gateways() == b.mean_online_gateways()
    assert a.energy.total_j == b.energy.total_j
    assert np.array_equal(a.sample_times, b.sample_times)
    assert np.array_equal(a.online_gateways, b.online_gateways)
    assert np.array_equal(a.waking_gateways, b.waking_gateways)
    assert np.array_equal(a.energy_series_total_j, b.energy_series_total_j)


def test_optimal_watts_is_bit_identical_to_optimal_on_homogeneous_fleet(
    homogeneous_scenario,
):
    count = run_scheme(homogeneous_scenario, optimal(), seed=3, step_s=2.0)
    watts = run_scheme(homogeneous_scenario, optimal_watts(), seed=3, step_s=2.0)
    _assert_bit_identical(count, watts)


def test_bh2_watts_is_bit_identical_to_bh2_on_homogeneous_fleet(homogeneous_scenario):
    count = run_scheme(homogeneous_scenario, bh2_kswitch(), seed=3, step_s=2.0)
    watts = run_scheme(homogeneous_scenario, bh2_watts(), seed=3, step_s=2.0)
    _assert_bit_identical(count, watts)


def test_optimal_watts_spends_strictly_fewer_gateway_kwh_on_a_mixed_fleet(
    mixed_scenario,
):
    count = run_scheme(mixed_scenario, optimal(), seed=3, step_s=2.0)
    watts = run_scheme(mixed_scenario, optimal_watts(), seed=3, step_s=2.0)
    count_j = sum(count.generation_energy_j.values())
    watts_j = sum(watts.generation_energy_j.values())
    assert watts_j < count_j
    # The saving comes from shifting online time off the legacy generation.
    assert watts.generation_energy_j["legacy-9w"] < count.generation_energy_j["legacy-9w"]


def test_watt_schemes_pairs_twins_in_order():
    names = [s.name for s in watt_schemes()]
    assert names == ["no-sleep", "Optimal", "optimal-watts", "BH2+k-switch", "bh2-watts"]


# ----------------------------------------------------------------------
# Sweep integration: digests, family defaults, the gap report
# ----------------------------------------------------------------------
def test_watt_aware_false_is_omitted_from_scheme_digests():
    # Pre-wattopt stores must keep their cache hits: a scheme that is not
    # watt-aware digests exactly as it did before the field existed.
    assert "watt_aware" not in optimal().canonical()
    assert optimal_watts().canonical()["watt_aware"] is True
    from repro.sweep.store import run_digest
    from repro.sweep.catalog import ScenarioSpec

    spec = ScenarioSpec(num_clients=6, num_gateways=3, duration_s=600.0, seed=3)
    assert run_digest(spec, optimal(), 1, 2.0, 60.0) != run_digest(
        spec, optimal_watts(), 1, 2.0, 60.0
    )


def test_watt_aware_family_declares_its_scheme_pairing():
    from repro.sweep.catalog import family
    from repro.sweep.engine import SweepConfig, expand_tasks

    watt_family = family("watt-aware")
    assert watt_family.scheme_names == (
        "no-sleep", "Optimal", "optimal-watts", "BH2+k-switch", "bh2-watts"
    )
    assert [s.name for s in watt_family.default_schemes()] == list(watt_family.scheme_names)
    # schemes=None lets the family pick its own comparison set...
    tasks = expand_tasks([watt_family], None, SweepConfig())
    assert sorted({t.scheme.name for t in tasks}) == sorted(watt_family.scheme_names)
    assert len(tasks) == 3 * 5  # three fleet mixes x five schemes
    # ...while an explicit list still overrides it.
    tasks = expand_tasks([watt_family], [optimal()], SweepConfig())
    assert {t.scheme.name for t in tasks} == {"Optimal"}


def test_family_rejects_unknown_scheme_names():
    from repro.sweep.catalog import ScenarioFamily, ScenarioSpec

    with pytest.raises(ValueError, match="unknown scheme"):
        ScenarioFamily(
            name="bad", description="", base=ScenarioSpec(), scheme_names=("nope",)
        )


def test_watt_gap_rows_pair_twins_from_a_sweep(tmp_path):
    from repro.sweep import ResultStore, SweepConfig, run_sweep, watt_gap_rows

    result = run_sweep(
        family_names=["smoke"],
        schemes=watt_schemes(),
        config=SweepConfig(step_s=5.0),
        store=ResultStore(tmp_path / "store"),
    )
    rows = watt_gap_rows(result)
    assert {row["watt_scheme"] for row in rows} == {"optimal-watts", "bh2-watts"}
    for row in rows:
        assert row["count_scheme"] in {"Optimal", "BH2+k-switch"}
        assert row["watts_saved_vs_count_kwh"] == pytest.approx(
            row["count_gateway_kwh"] - row["watt_gateway_kwh"]
        )
    # Resuming from the store reproduces the same rows bit for bit.
    resumed = run_sweep(
        family_names=["smoke"],
        schemes=watt_schemes(),
        config=SweepConfig(step_s=5.0),
        store=ResultStore(tmp_path / "store"),
    )
    assert resumed.cache_hits == resumed.total_runs
    assert watt_gap_rows(resumed) == rows
