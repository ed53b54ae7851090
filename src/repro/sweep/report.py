"""Cross-scenario report tables for sweep results.

Renders the per-family savings/online-gateway aggregates through the
plain-text tables of :mod:`repro.analysis.report`, plus a compact
family × scheme overview and a JSON export for downstream tooling.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis import report
from repro.obs.metrics import MetricsRegistry
from repro.sweep.engine import SweepResult, left_to_right_mean

#: Aggregate columns shown in the per-family tables, in order.
TABLE_METRICS = (
    ("mean_savings_percent", "savings %"),
    ("peak_savings_percent", "peak savings %"),
    ("mean_online_gateways", "online gw"),
    ("peak_online_gateways", "peak online gw"),
    ("mean_online_line_cards", "online cards"),
)

#: Watt-aware schemes and the count-minimising twins they are measured
#: against in the objective-gap table.
WATT_SCHEME_TWINS = {
    "optimal-watts": "Optimal",
    "bh2-watts": "BH2+k-switch",
}


def family_tables(result: SweepResult) -> Dict[str, str]:
    """One rendered table per family: scenario × scheme aggregate rows."""
    rows_by_family: Dict[str, List[List[object]]] = {}
    for row in result.aggregates():
        rows_by_family.setdefault(str(row["family"]), []).append(
            [row["scenario"], row["scheme"], row["runs"]]
            + [row[key] for key, _header in TABLE_METRICS]
        )
    headers = ["scenario", "scheme", "runs"] + [header for _key, header in TABLE_METRICS]
    return {
        family: report.format_table(headers, rows)
        for family, rows in rows_by_family.items()
    }


def generation_table(result: SweepResult) -> str:
    """Per-generation gateway energy for heterogeneous-fleet scenarios.

    One row per (scenario, scheme) aggregate that carries ``gen:*_kwh``
    columns, one column per generation in name order (a fresh run's
    metrics list the generations in fleet order, a stored record in key
    order); empty string when the sweep contains no mixed fleets.
    """
    rows: List[Dict[str, object]] = []
    names = set()
    for row in result.aggregates():
        gen_names = {
            str(key)[len("gen:"):-len("_kwh")]
            for key in row
            if str(key).startswith("gen:") and str(key).endswith("_kwh")
        }
        if gen_names:
            names |= gen_names
            rows.append(row)
    if not rows:
        return ""
    generation_names = sorted(names)
    headers = ["scenario", "scheme"] + [f"{name} kWh" for name in generation_names]
    table_rows = []
    for row in rows:
        table_rows.append(
            [row["scenario"], row["scheme"]]
            + [row.get(f"gen:{name}_kwh", "") for name in generation_names]
        )
    return report.format_table(headers, table_rows)


def watt_gap_rows(result: SweepResult) -> List[Dict[str, object]]:
    """Count-vs-watt objective gap per scenario.

    Pairs every watt-aware scheme's aggregate with its count-minimising
    twin on the same scenario and reports the gateway energy both spent
    plus ``watts_saved_vs_count_kwh`` — the kWh the count proxy left on
    the table.  Scenarios whose records predate the ``gateway_kwh``
    column (old stores) are skipped rather than guessed at.
    """
    by_scenario: Dict[tuple, Dict[str, Dict[str, object]]] = {}
    order: List[tuple] = []
    for row in result.aggregates():
        key = (str(row["family"]), str(row["scenario"]))
        if key not in by_scenario:
            by_scenario[key] = {}
            order.append(key)
        by_scenario[key][str(row["scheme"])] = row
    rows: List[Dict[str, object]] = []
    for key in order:
        schemes = by_scenario[key]
        for watt_name, twin_name in WATT_SCHEME_TWINS.items():
            watt_row = schemes.get(watt_name)
            twin_row = schemes.get(twin_name)
            if watt_row is None or twin_row is None:
                continue
            if "gateway_kwh" not in watt_row or "gateway_kwh" not in twin_row:
                continue
            count_kwh = float(twin_row["gateway_kwh"])
            watt_kwh = float(watt_row["gateway_kwh"])
            rows.append({
                "family": key[0],
                "scenario": key[1],
                "watt_scheme": watt_name,
                "count_scheme": twin_name,
                "count_gateway_kwh": count_kwh,
                "watt_gateway_kwh": watt_kwh,
                "watts_saved_vs_count_kwh": count_kwh - watt_kwh,
            })
    return rows


def watt_gap_table(result: SweepResult) -> str:
    """Rendered count-vs-watt gap table (empty string when inapplicable)."""
    rows = watt_gap_rows(result)
    if not rows:
        return ""
    headers = [
        "scenario", "watt scheme", "count twin",
        "count gw kWh", "watt gw kWh", "watts_saved_vs_count_kwh",
    ]
    # kWh gaps on small scenarios are thousandths: keep four decimals.
    return report.format_table(headers, [
        [
            row["scenario"], row["watt_scheme"], row["count_scheme"],
            row["count_gateway_kwh"], row["watt_gateway_kwh"],
            row["watts_saved_vs_count_kwh"],
        ]
        for row in rows
    ], precision=4)


def overview_table(result: SweepResult) -> str:
    """Family × scheme overview: savings (vs. the always-on power baseline)
    averaged over a family's scenarios."""
    groups: Dict[tuple, List[float]] = {}
    order: List[tuple] = []
    for row in result.aggregates():
        key = (str(row["family"]), str(row["scheme"]))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(float(row["mean_savings_percent"]))
    rows = [
        [family, scheme, len(groups[(family, scheme)]),
         left_to_right_mean(groups[(family, scheme)])]
        for family, scheme in order
    ]
    return report.format_table(["family", "scheme", "scenarios", "mean savings %"], rows)


def obs_table(result: SweepResult) -> str:
    """Merged observability metrics of the sweep (empty when absent)."""
    if not result.obs:
        return ""
    registry = MetricsRegistry.from_snapshot(result.obs)
    rows = registry.rows()
    if not rows:
        return ""
    return report.format_table(["kind", "metric", "value"], list(rows))


def render_sweep(result: SweepResult) -> str:
    """The full plain-text sweep report."""
    blocks: List[str] = []
    for family, table in family_tables(result).items():
        blocks.append(f"== {family} ==")
        blocks.append(table)
        blocks.append("")
    generations = generation_table(result)
    if generations:
        blocks.append("== per-generation gateway energy (mixed fleets) ==")
        blocks.append(generations)
        blocks.append("")
    watt_gaps = watt_gap_table(result)
    if watt_gaps:
        blocks.append("== count-vs-watt objective gap (watt-aware schemes) ==")
        blocks.append(watt_gaps)
        blocks.append("")
    blocks.append("== cross-family overview (savings vs. always-on baseline) ==")
    blocks.append(overview_table(result))
    blocks.append("")
    if result.failures:
        blocks.append("== failed grid cells (excluded from aggregates) ==")
        blocks.append(report.format_table(
            ["cell", "attempts", "kind", "reason"],
            [
                [failure.cell, failure.attempts, failure.kind, failure.reason]
                for failure in result.failures
            ],
        ))
        blocks.append("")
    accounting = {
        "grid_runs": result.total_runs,
        "executed": result.executed,
        "cache_hits": result.cache_hits,
        "cache_hit_percent": 100.0 * result.cache_hit_fraction,
    }
    if result.retries or result.respawns or result.failures or result.degraded:
        accounting["retries"] = result.retries
        accounting["worker_respawns"] = result.respawns
        accounting["failed_cells"] = len(result.failures)
        accounting["degraded_to_serial"] = str(result.degraded).lower()
    blocks.append(report.render_key_values(accounting, title="Sweep accounting"))
    metrics = obs_table(result)
    if metrics and result.executed:
        blocks.append("")
        blocks.append("== observability metrics (executed runs) ==")
        blocks.append(metrics)
    return "\n".join(blocks)


def _run_entry(result: SweepResult, task) -> Dict[str, object]:
    """One ``runs`` entry; executed cells carry supervisor accounting."""
    entry: Dict[str, object] = {
        "digest": task.digest,
        "family": task.family,
        "scenario": task.spec.label,
        "scheme": task.scheme.name,
        "run_index": task.run_index,
        "seed": task.seed,
        "metrics": result.record_for(task).metrics,
    }
    stats = result.task_stats.get(task.digest)
    if stats is not None:
        # Cache-served cells never reach the supervisor, so only
        # executed cells report wall-clock time and attempt counts.
        entry["wall_s"] = round(float(stats["wall_s"]), 6)
        entry["attempts"] = int(stats["attempts"])
    return entry


def sweep_to_json(result: SweepResult) -> str:
    """JSON export: aggregates, watt gaps, per-run records and accounting."""
    payload = {
        "aggregates": result.aggregates(),
        "watt_gaps": watt_gap_rows(result),
        "runs": [
            _run_entry(result, task)
            for task in result.tasks
            if task.digest in result.records
        ],
        "failures": [
            {
                "digest": failure.digest,
                "cell": failure.cell,
                "attempts": failure.attempts,
                "kind": failure.kind,
                "reason": failure.reason,
            }
            for failure in result.failures
        ],
        "accounting": {
            "grid_runs": result.total_runs,
            "executed": result.executed,
            "cache_hits": result.cache_hits,
            "retries": result.retries,
            "worker_respawns": result.respawns,
            "timeouts": result.timeouts,
            "degraded_to_serial": result.degraded,
        },
        "obs": result.obs,
    }
    return json.dumps(payload, indent=1, sort_keys=True)
