"""Shared fixtures for the benchmark harness.

Every benchmark regenerates the data behind one of the paper's tables or
figures and prints the same rows/series the paper reports.  The simulation
benchmarks share a single scheme comparison run over a scaled-down scenario
(half the clients and gateways, one run per scheme) so the whole suite
finishes in a few minutes; pass ``--paper-scale`` to run the full
272-client / 40-gateway / 10-repetition setup of the paper.  The half scale
is not structurally the same as the paper's: both keep the DSLAM of
4 line cards x 12 ports with k = 4, so its 20 lines fill 20 of the 48 ports
where the paper's 40 fill 40, and its line-card and ISP-share numbers do
not carry over to paper scale.
"""

import pytest

from repro.analysis import figures
from repro.core.schemes import (
    bh2_full_switch,
    bh2_kswitch,
    bh2_no_backup_kswitch,
    no_sleep,
    optimal,
    soi,
    soi_full_switch,
    soi_kswitch,
)


def pytest_addoption(parser):
    parser.addoption(
        "--paper-scale",
        action="store_true",
        default=False,
        help="run the simulation benchmarks at the paper's full scale "
        "(272 clients, 40 gateways, 24 h, 10 runs per scheme)",
    )


@pytest.fixture(scope="session")
def evaluation_scale(request):
    """The scenario scale used by the simulation benchmarks."""
    if request.config.getoption("--paper-scale"):
        return figures.full_scale()
    # Scaled-down default: half the gateways and clients, full 24 h day.
    return figures.EvaluationScale(
        num_clients=136, num_gateways=20, duration_s=24 * 3600.0,
        runs_per_scheme=1, step_s=2.0, seed=2011,
    )


@pytest.fixture(scope="session")
def scenario(evaluation_scale):
    """The evaluation scenario shared by the Sec. 5 benchmarks."""
    return figures.build_scenario(evaluation_scale)


@pytest.fixture(scope="session")
def comparison(evaluation_scale, scenario):
    """The scheme comparison behind Figs. 6-9 and the line-card table."""
    schemes = [
        no_sleep(), soi(), soi_kswitch(), soi_full_switch(),
        bh2_kswitch(), bh2_no_backup_kswitch(), bh2_full_switch(), optimal(),
    ]
    return figures.run_evaluation(scale=evaluation_scale, schemes=schemes, scenario=scenario)


def print_series(title, series, x_key, y_key, stride=60):
    """Print a figure's series in a compact, paper-style form."""
    print(f"\n=== {title} ===")
    for name, data in series.items():
        xs = data[x_key]
        ys = data[y_key]
        points = ", ".join(
            f"{x:.0f}h:{y:.1f}" for x, y in list(zip(xs, ys))[::stride]
        )
        print(f"{name:28s} {points}")
