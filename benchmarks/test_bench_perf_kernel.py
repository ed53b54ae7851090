"""Perf benchmark: vectorized kernel vs. the preserved seed kernel.

Times every scheme of the evaluation over the default benchmark scenario
(136 clients / 20 gateways / 24 h, the paper-protocol 1 s step) with both
the seed kernel (:mod:`repro.simulation.reference_kernel`) and the
event-aware kernel (:mod:`repro.simulation.simulator`), verifies that the
scheme-comparison metrics agree within 1e-6, and writes the measurements to
``BENCH_perf.json`` in the repository root so the perf trajectory is
tracked across PRs.

Read the output as: ``speedup`` = seed wall-clock / new wall-clock per
scheme, ``aggregate.speedup`` over the whole 8-scheme comparison, and
``sim_hours_per_second`` = simulated hours per wall-clock second with the
new kernel.
"""

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import figures
from repro.core.schemes import all_schemes
from repro.simulation.reference_kernel import run_scheme_reference
from repro.simulation.runner import run_scheme

#: The default benchmark scenario: half the paper's population over the
#: full day at the paper protocol's 1 s step (`EvaluationScale` defaults).
BENCH_CLIENTS = 136
BENCH_GATEWAYS = 20
BENCH_DURATION_S = 24 * 3600.0
BENCH_STEP_S = 1.0
BENCH_SEED = 2011
RUN_SEED = 1

OUTPUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"


def _git_sha():
    """The benchmarked commit's short sha; None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0, check=False,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


@pytest.fixture(scope="module")
def bench_scenario(request):
    scale = figures.EvaluationScale(
        num_clients=BENCH_CLIENTS,
        num_gateways=BENCH_GATEWAYS,
        duration_s=BENCH_DURATION_S,
        runs_per_scheme=1,
        step_s=BENCH_STEP_S,
        seed=BENCH_SEED,
    )
    return figures.build_scenario(scale)


def _timed(runner, scenario, scheme):
    start = time.perf_counter()
    result = runner(scenario, scheme, seed=RUN_SEED, step_s=BENCH_STEP_S)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_bench_perf_kernel(bench_scenario):
    per_scheme = {}
    total_reference = 0.0
    total_new = 0.0
    sim_hours = BENCH_DURATION_S / 3600.0

    for name, scheme in all_schemes().items():
        reference, reference_s = _timed(run_scheme_reference, bench_scenario, scheme)
        result, new_s = _timed(run_scheme, bench_scenario, scheme)
        total_reference += reference_s
        total_new += new_s

        savings_delta = abs(reference.mean_savings() - result.mean_savings())
        online_delta = abs(
            reference.mean_online_gateways() - result.mean_online_gateways()
        )
        # Acceptance: scheme-comparison metrics unchanged within 1e-6.
        assert savings_delta < 1e-6, f"{name}: mean_savings moved by {savings_delta}"
        assert online_delta < 1e-6, f"{name}: mean_online_gateways moved by {online_delta}"
        # The kernel is designed to be trajectory-exact, which is stronger:
        assert np.array_equal(reference.online_gateways, result.online_gateways)

        per_scheme[name] = {
            "seed_kernel_s": round(reference_s, 4),
            "kernel_s": round(new_s, 4),
            "speedup": round(reference_s / new_s, 2),
            "sim_hours_per_second": round(sim_hours / new_s, 2),
            "steps_seed": reference.steps_taken,
            "steps_kernel": result.steps_taken,
            "flows_served": len(result.flow_records),
            "mean_savings": result.mean_savings(),
            "mean_online_gateways": result.mean_online_gateways(),
            "savings_delta_vs_seed": savings_delta,
            "online_gateways_delta_vs_seed": online_delta,
        }

    aggregate_speedup = total_reference / total_new
    payload = {
        # Consumed by the perf regression baseline (repro.regress): bump
        # when the payload layout changes so stale baselines fail loudly.
        "schema_version": 1,
        "benchmark": {
            "num_clients": BENCH_CLIENTS,
            "num_gateways": BENCH_GATEWAYS,
            "duration_s": BENCH_DURATION_S,
            "step_s": BENCH_STEP_S,
            "scenario_seed": BENCH_SEED,
            "run_seed": RUN_SEED,
            "schemes": len(per_scheme),
        },
        # Provenance: strings are ignored by the perf baseline loader
        # (it keeps only numeric cells), so adding fields here cannot
        # break an already-committed baselines/perf.json.
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "git_sha": _git_sha(),
        },
        "aggregate": {
            "seed_kernel_s": round(total_reference, 3),
            "kernel_s": round(total_new, 3),
            "speedup": round(aggregate_speedup, 2),
            "sim_hours_per_second": round(len(per_scheme) * sim_hours / total_new, 2),
        },
        "per_scheme": per_scheme,
    }
    # sort_keys pins both block order and key order, so re-running the
    # benchmark produces a stable file and perf commits diff only where a
    # number actually moved.
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # Regression floor: the kernel must stay well ahead of the seed.  The
    # headline measurement on the reference machine is recorded in the JSON
    # (≥5x); the assertion is looser so CI noise cannot flake the build.
    assert aggregate_speedup >= 2.0, (
        f"kernel speedup regressed to {aggregate_speedup:.2f}x "
        f"(see {OUTPUT_PATH.name})"
    )


def test_bench_perf_smoke_metrics():
    """Quick cross-kernel smoke check on a small scenario (CI-friendly)."""
    scale = figures.EvaluationScale(
        num_clients=40, num_gateways=8, duration_s=3600.0, step_s=2.0, seed=11
    )
    scenario = figures.build_scenario(scale)
    for name, scheme in all_schemes().items():
        reference = run_scheme_reference(scenario, scheme, seed=2, step_s=2.0)
        result = run_scheme(scenario, scheme, seed=2, step_s=2.0)
        assert abs(reference.mean_savings() - result.mean_savings()) < 1e-6, name
