"""Ablation benches for two design choices: the k-switch size and BH2's
candidate filter (the reason for the filter is in the docstrings of
``BH2Config.strict_paper_variant`` and ``BH2Terminal._candidate_gateways``)."""

from repro.access.kswitch import expected_sleeping_cards
from repro.core.bh2 import BH2Config
from repro.core.schemes import bh2_kswitch
from repro.simulation.runner import run_scheme


def test_bench_ablation_kswitch_size(benchmark):
    """Expected sleeping cards per batch as the switch size k grows (m=24)."""

    def sweep():
        return {k: expected_sleeping_cards(k, m=24, p=0.5) / k for k in (1, 2, 4, 8)}

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n=== Ablation: fraction of cards sleeping per batch (p=0.5, m=24) ===")
    for k, fraction in data.items():
        print(f"k={k}: {100 * fraction:5.1f}% of the batch can sleep")
    # Bigger switches help, with diminishing returns (the paper's argument for k=4/8).
    assert data[2] > data[1]
    assert data[4] > data[2]
    assert data[8] >= data[4] * 0.95


def test_bench_ablation_bh2_candidate_filter(benchmark, scenario, evaluation_scale):
    """Literal (strict) candidate filter of Sec. 3.1 vs. the bootstrap-friendly default."""

    def run_both():
        relaxed = run_scheme(scenario, bh2_kswitch(), seed=evaluation_scale.seed,
                             step_s=evaluation_scale.step_s)
        strict_scheme = bh2_kswitch().with_name("BH2 strict candidates")
        object.__setattr__(strict_scheme, "bh2", BH2Config().strict_paper_variant())
        strict = run_scheme(scenario, strict_scheme, seed=evaluation_scale.seed,
                            step_s=evaluation_scale.step_s)
        return {"default": relaxed.mean_savings(), "strict": strict.mean_savings()}

    data = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print("\n=== Ablation: BH2 candidate filter ===")
    print(f"default (candidates carry some traffic) : {100 * data['default']:.1f}% savings")
    print(f"strict  (candidates above low threshold): {100 * data['strict']:.1f}% savings")
    # The strict literal reading cannot bootstrap aggregation at these loads,
    # which is exactly why the default interpretation is used (see
    # BH2Terminal._candidate_gateways).
    assert data["default"] >= data["strict"] - 0.02
