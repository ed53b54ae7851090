"""The regression gate: baselines, classification, Pareto fronts, CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.regress.baseline import (
    Baseline,
    MetricEntry,
    metric_direction,
)
from repro.regress.compare import classify, compare_cells, compare_config
from repro.regress.pareto import (
    WATT_FRONT,
    FrontSpec,
    compare_fronts,
    front_points,
    pareto_front,
)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def test_exact_entry_identical_and_regressed():
    entry = MetricEntry(value=10.0, direction="higher")
    assert classify(entry, 10.0) == "identical"
    assert classify(entry, 9.0) == "regressed"
    assert classify(entry, 11.0) == "improved"


def test_exact_entry_lower_is_better():
    entry = MetricEntry(value=5.0, direction="lower")
    assert classify(entry, 4.0) == "improved"
    assert classify(entry, 6.0) == "regressed"


def test_exact_entry_no_direction_any_change_regresses():
    entry = MetricEntry(value=5.0, direction="none")
    assert classify(entry, 5.0) == "identical"
    assert classify(entry, 4.0) == "regressed"
    assert classify(entry, 6.0) == "regressed"


def test_metric_entry_validation():
    with pytest.raises(ValueError):
        MetricEntry(value=1.0, direction="sideways")
    # Every committed entry is an exact claim; any other kind is refused
    # on load rather than silently compared as exact.
    for payload in (
        {"value": 1.0, "kind": "fuzzy"},
        {"value": 1.0, "kind": "tolerance", "rel_tol": 0.1},
    ):
        with pytest.raises(ValueError):
            MetricEntry.from_payload(payload)


def test_metric_direction_policy():
    assert metric_direction("mean_savings_percent") == "higher"
    assert metric_direction("gateway_kwh") == "lower"
    assert metric_direction("gen:legacy-9w_kwh") == "lower"
    assert metric_direction("served_demand_gb") == "higher"
    assert metric_direction("steps_kernel") == "none"


# ----------------------------------------------------------------------
# Cell comparison
# ----------------------------------------------------------------------
def _baseline(cells):
    return Baseline(name="test", cells=cells)


def test_compare_cells_new_and_missing():
    baseline = _baseline({
        "a|x": {"m": MetricEntry(value=1.0)},
        "gone|x": {"m": MetricEntry(value=2.0)},
    })
    observed = {"a|x": {"m": 1.0, "extra": 9.0}, "brand|new": {"m": 3.0}}
    diffs = {(d.cell, d.metric): d.status for d in compare_cells(baseline, observed)}
    assert diffs[("a|x", "m")] == "identical"
    assert diffs[("a|x", "extra")] == "new"
    assert diffs[("brand|new", "*")] == "new"
    assert diffs[("gone|x", "*")] == "missing"


def test_compare_cells_missing_metric_gates():
    baseline = _baseline({"a|x": {"m": MetricEntry(value=1.0), "n": MetricEntry(value=2.0)}})
    diffs = compare_cells(baseline, {"a|x": {"m": 1.0}})
    statuses = {(d.metric): d.status for d in diffs}
    assert statuses["n"] == "missing"


def test_compare_config_mismatch_gates():
    baseline = Baseline(name="test", config={"step_s": 2.0, "runs_per_scheme": 1})
    diffs = compare_config(baseline, {"step_s": 5.0, "runs_per_scheme": 1})
    assert len(diffs) == 1
    assert diffs[0].status == "config-mismatch"
    assert diffs[0].gating


def test_baseline_json_round_trip():
    baseline = _baseline({
        "a|x": {
            "m": MetricEntry(value=1.25, direction="higher"),
            "n": MetricEntry(value=-3.0),
        },
    })
    again = Baseline.from_json(baseline.to_json())
    assert again.cells == baseline.cells
    assert again.name == baseline.name


def test_baseline_rejects_future_schema():
    for key, value, message in (
        ("schema_version", 999, "schema version"),
        ("kind", "perf", "baseline kind"),
    ):
        payload = json.loads(_baseline({}).to_json())
        payload[key] = value
        with pytest.raises(ValueError, match=message):
            Baseline.from_json(json.dumps(payload))


# ----------------------------------------------------------------------
# Pareto fronts
# ----------------------------------------------------------------------
SPEC = FrontSpec(name="t", x_metric="x", x_goal="min", y_metric="y", y_goal="max")


def test_pareto_front_dominance():
    points = {
        "best": (1.0, 10.0),
        "tradeoff": (0.5, 5.0),
        "dominated": (2.0, 5.0),   # worse x than tradeoff-ish, worse y than best
        "also-dominated": (1.5, 9.0),
    }
    front = pareto_front(points, SPEC)
    assert front == ["tradeoff", "best"]


def test_pareto_front_ties_both_kept():
    points = {"a": (1.0, 5.0), "b": (1.0, 5.0)}
    assert set(pareto_front(points, SPEC)) == {"a", "b"}


def test_front_points_skips_rows_missing_metrics():
    rows = [
        {"family": "f", "scenario": "s", "scheme": "a", "x": 1.0, "y": 2.0},
        {"family": "f", "scenario": "s", "scheme": "b", "x": 1.0},
    ]
    points = front_points(rows, SPEC)
    assert list(points) == ["f|s|a"]


def test_front_spec_rejects_bad_goal():
    with pytest.raises(ValueError):
        FrontSpec(name="t", x_metric="x", x_goal="down", y_metric="y", y_goal="max")


def _payload(front_members, points=None):
    points = points or {k: [1.0, 1.0] for k in front_members}
    return {
        "families": ["smoke"],
        "fronts": {"t": {"points": points, "front": list(front_members)}},
    }


def test_compare_fronts_fell_off_is_regression():
    baseline = _payload(["a", "b"], points={"a": [1, 1], "b": [2, 2]})
    fresh = _payload(["a"], points={"a": [1, 1], "b": [2, 2]})
    statuses = {(d.metric): d.status for d in compare_fronts(baseline, fresh)}
    assert statuses["b"] == "regressed"


def test_compare_fronts_vanished_point_is_missing():
    baseline = _payload(["a", "b"], points={"a": [1, 1], "b": [2, 2]})
    fresh = _payload(["a"], points={"a": [1, 1]})
    statuses = {(d.metric): d.status for d in compare_fronts(baseline, fresh)}
    assert statuses["b"] == "missing"


def test_compare_fronts_new_member_is_improvement():
    baseline = _payload(["a"], points={"a": [1, 1], "b": [2, 2]})
    fresh = _payload(["a", "b"], points={"a": [1, 1], "b": [2, 2]})
    diffs = compare_fronts(baseline, fresh)
    statuses = {(d.metric): d.status for d in diffs}
    assert statuses["b"] == "improved"
    assert all(not d.gating for d in diffs)


def test_compare_fronts_family_mismatch_gates():
    baseline = _payload(["a"])
    fresh = dict(_payload(["a"]), families=["smoke", "smoke-watt"])
    diffs = compare_fronts(baseline, fresh)
    assert [d.status for d in diffs] == ["config-mismatch"]


def test_watt_front_rows_marks_non_dominated():
    rows = [
        {"family": "f", "scenario": "s", "scheme": "watt",
         "gateway_kwh": 1.0, "served_demand_gb": 10.0},
        {"family": "f", "scenario": "s", "scheme": "count",
         "gateway_kwh": 2.0, "served_demand_gb": 10.0},
    ]
    points = front_points(rows, WATT_FRONT)
    assert points == {"f|s|watt": (1.0, 10.0), "f|s|count": (2.0, 10.0)}
    assert pareto_front(points, WATT_FRONT) == ["f|s|watt"]
    assert WATT_FRONT.x_goal == "min" and WATT_FRONT.y_goal == "max"


# ----------------------------------------------------------------------
# CLI round trip (the acceptance criteria)
# ----------------------------------------------------------------------
@pytest.fixture()
def regress_dirs(tmp_path):
    return str(tmp_path / "store"), str(tmp_path / "baselines")


def _regress(cmd, store, baselines, *extra):
    return main(["regress", cmd, "--family", "smoke", "--step", "10",
                 "--out", store, "--baselines", baselines, *extra])


def test_update_then_check_is_clean(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    assert (Path(baselines) / "smoke.json").is_file()
    assert (Path(baselines) / "pareto.json").is_file()
    assert _regress("check", store, baselines) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_perturbed_metric_regresses_with_named_cell(regress_dirs, capsys, tmp_path):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    path = Path(baselines) / "smoke.json"
    payload = json.loads(path.read_text())
    cell = "smoke|SoI"
    payload["cells"][cell]["mean_savings_percent"]["value"] += 1.0
    path.write_text(json.dumps(payload))
    report_path = tmp_path / "report.json"
    code = _regress("check", store, baselines, "--report", str(report_path))
    assert code == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
    assert f"smoke:{cell}:mean_savings_percent" in out
    report = json.loads(report_path.read_text())
    assert report["ok"] is False
    regressed = [d for d in report["diffs"] if d["status"] == "regressed"]
    assert regressed and regressed[0]["cell"] == cell
    assert regressed[0]["metric"] == "mean_savings_percent"


def test_new_scenario_cell_passes(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    capsys.readouterr()  # drain the update output before parsing check's JSON
    path = Path(baselines) / "smoke.json"
    payload = json.loads(path.read_text())
    del payload["cells"]["smoke|SoI"]
    path.write_text(json.dumps(payload))
    assert _regress("check", store, baselines, "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    new = [d for d in report["diffs"] if d["status"] == "new"]
    assert any(d["cell"] == "smoke|SoI" for d in new)


def test_committed_cell_vanishing_gates(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    path = Path(baselines) / "smoke.json"
    payload = json.loads(path.read_text())
    payload["cells"]["smoke|not-a-real-scheme"] = {
        "mean_savings_percent": {"value": 1.0, "kind": "exact"},
    }
    path.write_text(json.dumps(payload))
    assert _regress("check", store, baselines) == 1
    assert "missing" in capsys.readouterr().out


def test_check_without_baselines_gates_with_hint(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("check", store, baselines) == 1
    out = capsys.readouterr().out
    assert "regress update" in out


def test_check_config_mismatch_gates(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    code = main(["regress", "check", "--family", "smoke", "--step", "5",
                 "--out", store, "--baselines", baselines])
    assert code == 1
    assert "config-mismatch" in capsys.readouterr().out


def test_strict_gates_improvements(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    path = Path(baselines) / "smoke.json"
    payload = json.loads(path.read_text())
    # Commit a worse savings value: the run now looks 'improved'.
    payload["cells"]["smoke|SoI"]["mean_savings_percent"]["value"] -= 1.0
    path.write_text(json.dumps(payload))
    assert _regress("check", store, baselines) == 0
    capsys.readouterr()
    assert _regress("check", store, baselines, "--strict") == 1


def test_pareto_command_prints_and_exports(regress_dirs, capsys, tmp_path):
    store, baselines = regress_dirs
    export = tmp_path / "fronts.json"
    code = _regress("pareto", store, baselines, "--export", str(export))
    assert code == 0
    out = capsys.readouterr().out
    assert "savings-vs-peak-online" in out
    assert "watt-energy-vs-served" in out
    payload = json.loads(export.read_text())
    assert payload["families"] == ["smoke"]
    assert set(payload["fronts"]) == {"savings-vs-peak-online", "watt-energy-vs-served"}


def test_check_nothing_to_do_is_usage_error(capsys):
    code = main(["regress", "check", "--no-families", "--no-pareto"])
    assert code == 2
    assert "nothing to check" in capsys.readouterr().err


def test_summary_markdown_appends(regress_dirs, tmp_path, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    summary = tmp_path / "summary.md"
    summary.write_text("# existing\n")
    assert _regress("check", store, baselines, "--summary", str(summary)) == 0
    text = summary.read_text()
    assert text.startswith("# existing")
    assert "## Regression gate" in text
    assert "PASS" in text


def test_served_demand_metrics_in_sweep_records(regress_dirs):
    """run_metrics carries the served-demand columns the watt front needs."""
    from repro.sweep import ResultStore, SweepConfig, run_sweep

    store, _ = regress_dirs
    result = run_sweep(
        family_names=["smoke-watt"],
        config=SweepConfig(step_s=10.0),
        store=ResultStore(store),
    )
    rows = result.aggregates()
    assert all("served_demand_gb" in row and "served_flows" in row for row in rows)
    assert any(row["served_flows"] > 0 for row in rows)


# ----------------------------------------------------------------------
# History trajectory (baselines/history.jsonl)
# ----------------------------------------------------------------------
def test_check_appends_history_and_history_command_renders(regress_dirs, capsys):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    assert _regress("check", store, baselines) == 0
    assert _regress("check", store, baselines) == 0
    lines = [
        line for line
        in (Path(baselines) / "history.jsonl").read_text().splitlines()
        if line
    ]
    assert len(lines) == 2  # one record per gate run, append-only
    record = json.loads(lines[-1])
    assert record["verdict"] == "PASS"
    assert record["families"]["smoke"] > 0
    assert "timestamp" in record and "git_sha" in record
    capsys.readouterr()
    assert main(["regress", "history", "--baselines", baselines]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "smoke=" in out
    assert main(["regress", "history", "--baselines", baselines,
                 "--json", "--last", "1"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 1


def test_check_no_history_opts_out(regress_dirs):
    store, baselines = regress_dirs
    assert _regress("update", store, baselines) == 0
    assert _regress("check", store, baselines, "--no-history") == 0
    assert not (Path(baselines) / "history.jsonl").exists()


def test_history_without_ledger_is_friendly(tmp_path, capsys):
    assert main(["regress", "history", "--baselines", str(tmp_path)]) == 0
    assert "no gate history" in capsys.readouterr().out
