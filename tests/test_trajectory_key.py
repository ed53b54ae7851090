"""Schemes with one trajectory key share one kernel pass, bit for bit.

``SchemeConfig.trajectory_key`` is what lets the sweep engine and the
experiment runner run one kernel pass for every switch model of a
trajectory.  This law checks it on generated scenarios, in two parts:
schemes of ``all_schemes()`` with equal keys follow identical gateway and
flow trajectories when run apart, and one shared pass equals separate
``run_scheme`` runs in every ``SimulationResult`` array and in every
``run_metrics`` value, whichever switch model leads the pass.  A fixed
``paper-default`` case checks it at the sweep benchmark's scale and step.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.schemes import all_schemes, soi, soi_kswitch
from repro.fleet.churn import CHURN_PATTERNS
from repro.fleet.profile import FLEETS
from repro.power.energy import EnergyAccumulator
from repro.simulation.runner import run_scheme, scheme_run_seed
from repro.sweep.catalog import DIURNAL_PROFILES, ScenarioSpec, resolve_families
from repro.sweep.engine import run_metrics

SCHEMES = list(all_schemes().values())
GROUPS = {}
for _scheme in SCHEMES:
    if _scheme.trajectory_key is not None:
        GROUPS.setdefault(_scheme.trajectory_key, []).append(_scheme)
SHARED = [group for group in GROUPS.values() if len(group) > 1]

#: What the gateway/flow pass decides; switch models may differ only in
#: line cards and energy.
TRAJECTORY = (
    "sample_times", "online_gateways", "waking_gateways", "online_modems",
    "served_flows", "served_bytes", "dropped_flows", "suppressed_arrivals",
    "steps_taken", "gateway_online_seconds", "solver_invocations",
    "bh2_rounds", "bh2_decisions", "rate_recomputes", "rate_cache_hits",
)

specs = st.builds(
    ScenarioSpec,
    label=st.just("generated"),
    num_clients=st.integers(min_value=4, max_value=16),
    num_gateways=st.integers(min_value=2, max_value=8),
    duration_s=st.integers(min_value=900, max_value=3600).map(float),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    density=st.one_of(st.none(), st.floats(min_value=1.5, max_value=3.0)),
    profile=st.sampled_from(sorted(DIURNAL_PROFILES)),
    fleet=st.sampled_from(sorted(FLEETS)),
    churn=st.sampled_from(sorted(CHURN_PATTERNS)),
    trace_overrides=st.one_of(
        st.just(()),
        st.floats(min_value=0.9, max_value=1.0).map(
            lambda p: (("peak_online_probability", p),)
        ),
    ),
)


def _assert_identical(shared, alone, cell):
    """Every field of two results equal, arrays bit for bit."""
    for spec in fields(alone):
        a, b = getattr(shared, spec.name), getattr(alone, spec.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), (cell, spec.name)
        elif spec.name == "flow_records":
            assert list(a) == list(b), cell
        else:
            assert a == b, (cell, spec.name)


def _check_group(scenario, group, spec_seed, duration_s, step_s, sample_interval_s):
    alone = {
        scheme.name: run_scheme(
            scenario, scheme, seed=scheme_run_seed(spec_seed, 0, scheme.name),
            step_s=step_s, sample_interval_s=sample_interval_s,
        )
        for scheme in group
    }
    first = alone[group[0].name]
    for scheme in group[1:]:
        for name in TRAJECTORY:
            a, b = getattr(alone[scheme.name], name), getattr(first, name)
            same = np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b
            assert same, (scheme.name, name)
        assert alone[scheme.name].flow_durations() == first.flow_durations(), scheme.name
    lead, *variants = group
    shared = run_scheme(
        scenario, lead, seed=scheme_run_seed(spec_seed, 1, lead.name),
        step_s=step_s, sample_interval_s=sample_interval_s, variants=variants,
    )
    assert [result.scheme_name for result in shared] == [s.name for s in group]
    for scheme, result in zip(group, shared):
        _assert_identical(result, alone[scheme.name], scheme.name)
        assert run_metrics(result, duration_s) == run_metrics(
            alone[scheme.name], duration_s
        ), scheme.name
    return shared


def test_only_switch_models_share_a_key():
    names = ("SoI", "SoI+k-switch", "SoI+full-switch")
    assert SHARED == [[all_schemes()[name] for name in names]]
    assert all(
        (scheme.trajectory_key is None) == scheme.uses_run_seed for scheme in SCHEMES
    )


@given(
    spec=specs,
    order=st.permutations(range(3)),
    step_s=st.sampled_from([1.0, 2.0, 5.0]),
    sample_interval_s=st.sampled_from([30.0, 60.0]),
)
@settings(max_examples=200, deadline=None)
def test_one_pass_equals_separate_runs_of_each_switch_model(
    spec, order, step_s, sample_interval_s
):
    scenario = spec.build()
    for group in SHARED:
        _check_group(
            scenario, [group[index] for index in order], spec.seed,
            spec.duration_s, step_s, sample_interval_s,
        )


def test_one_pass_equals_separate_runs_on_paper_default(monkeypatch):
    charges = {}
    real_charge_at = EnergyAccumulator.charge_at

    def charge_at(self, *args):
        # Holding the accumulator keeps its id from being reused.
        charges.setdefault(id(self), [self, 0])[1] += 1
        return real_charge_at(self, *args)

    monkeypatch.setattr(EnergyAccumulator, "charge_at", charge_at)
    spec = resolve_families(["paper-default"])[0].expand()[0]
    shared = _check_group(
        spec.build(), [soi(), soi_kswitch()], spec.seed, spec.duration_s, 2.0, 60.0
    )
    # The pass kept the two line sides apart: the k-switch powers fewer cards.
    assert shared[1].online_line_cards.sum() < shared[0].online_line_cards.sum()
    assert shared[1].energy.total_j < shared[0].energy.total_j
    # Each switch model charged as many segments as its separate run did
    # (the separate runs' accumulators come first), no zero-length one.
    counts = [count for _accumulator, count in charges.values()]
    assert len(counts) == 4 and counts[:2] == counts[2:]
