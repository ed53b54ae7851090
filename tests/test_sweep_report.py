"""Tests for the cross-scenario sweep report rendering."""

import json

from repro.core.schemes import no_sleep, soi
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec
from repro.sweep.engine import SweepConfig, run_sweep
from repro.sweep.report import (
    family_tables,
    generation_table,
    overview_table,
    render_sweep,
    sweep_to_json,
)
from repro.sweep.store import ResultStore

FAMILY = ScenarioFamily(
    name="tiny-report",
    description="test family",
    base=ScenarioSpec(label="tiny-report", num_clients=6, num_gateways=3,
                      duration_s=600.0, seed=5),
    grid=(("backhaul_scale", (1.0, 2.0)),),
)


def _result():
    return run_sweep(
        families=[FAMILY],
        schemes=[no_sleep(), soi()],
        config=SweepConfig(runs_per_scheme=1, step_s=5.0),
    )


def test_family_tables_have_one_row_per_scenario_scheme():
    tables = family_tables(_result())
    assert set(tables) == {"tiny-report"}
    body = tables["tiny-report"]
    assert body.count("backhaul_scale=1") == 2  # two schemes for that scenario
    assert "savings %" in body and "online gw" in body


def test_overview_and_render():
    result = _result()
    overview = overview_table(result)
    assert "tiny-report" in overview and "SoI" in overview
    text = render_sweep(result)
    assert "== tiny-report ==" in text
    assert "cross-family overview" in text
    assert "cache_hit_percent" in text


def test_sweep_to_json_roundtrips():
    result = _result()
    payload = json.loads(sweep_to_json(result))
    assert payload["accounting"]["grid_runs"] == 4
    assert len(payload["runs"]) == 4
    schemes = {run["scheme"] for run in payload["runs"]}
    assert schemes == {"no-sleep", "SoI"}
    digests = {run["digest"] for run in payload["runs"]}
    assert len(digests) == 4


def test_generation_table_is_the_same_fresh_and_resumed(tmp_path):
    # A fresh run's metrics list the generations in fleet order and a
    # stored record in key order: the table must not depend on which it read.
    def sweep():
        return run_sweep(
            family_names=["smoke-watt"],
            schemes=[no_sleep(), soi()],
            config=SweepConfig(runs_per_scheme=1, step_s=10.0),
            store=ResultStore(tmp_path / "store"),
        )

    fresh, resumed = sweep(), sweep()
    assert fresh.cache_hits == 0 and resumed.cache_hits == resumed.total_runs
    table = generation_table(fresh)
    assert "legacy-9w kWh" in table
    assert generation_table(resumed) == table
