"""Orchestration for ``repro-access regress check|update|pareto``.

``check`` runs (or resumes from the result store) the selected scenario
families, diffs the fresh aggregates and Pareto fronts against the
committed baselines, and renders both a human table and a
machine-readable report.  ``update`` re-exports the committed files from
the same sweep.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis import report as text_report
from repro.regress.baseline import (
    DEFAULT_REGRESS_FAMILIES,
    baseline_from_aggregates,
    baseline_path,
    cells_from_aggregates,
    load_baseline,
    save_baseline,
)
from repro.regress.compare import Diff, RegressReport, compare_cells, compare_config
from repro.regress.pareto import compare_fronts, fronts_payload
from repro.sweep.engine import SweepConfig, SweepResult, run_sweep
from repro.sweep.store import ResultStore

#: Baseline name under which the cross-family fronts are committed.
PARETO_BASELINE_NAME = "pareto"


def sweep_config_payload(config: SweepConfig) -> Dict[str, object]:
    """The sweep-config provenance recorded in (and checked against) baselines."""
    return {
        "runs_per_scheme": config.runs_per_scheme,
        "step_s": config.step_s,
        "sample_interval_s": config.sample_interval_s,
    }


def run_regress_sweep(
    family_names: Sequence[str],
    config: SweepConfig,
    store: Optional[ResultStore],
    workers: Optional[int] = None,
) -> SweepResult:
    """One resumable sweep over the regression families."""
    return run_sweep(
        family_names=list(family_names),
        config=config,
        store=store,
        workers=workers,
    )


def aggregates_by_family(result: SweepResult) -> Dict[str, List[Mapping[str, object]]]:
    """The sweep's aggregate rows, grouped per family in grid order."""
    grouped: Dict[str, List[Mapping[str, object]]] = {}
    for row in result.aggregates():
        grouped.setdefault(str(row["family"]), []).append(row)
    return grouped


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
def check_families(
    result: SweepResult,
    family_names: Sequence[str],
    baselines_dir: str,
    config: SweepConfig,
) -> List[Diff]:
    """Diffs of every selected family against its committed baseline."""
    rows_by_family = aggregates_by_family(result)
    config_payload = sweep_config_payload(config)
    diffs: List[Diff] = []
    for family in family_names:
        baseline = load_baseline(baselines_dir, family)
        if baseline is None:
            diffs.append(Diff(
                baseline=family, cell=str(baseline_path(baselines_dir, family)),
                metric="*", status="missing",
                detail=(
                    "no committed baseline for this family; run "
                    f"'repro-access regress update --family {family}'"
                ),
            ))
            continue
        diffs.extend(compare_config(baseline, config_payload))
        observed = cells_from_aggregates(rows_by_family.get(family, []))
        diffs.extend(compare_cells(baseline, observed))
    return diffs


def check_pareto(
    result: SweepResult,
    family_names: Sequence[str],
    baselines_dir: str,
) -> List[Diff]:
    """Diffs of the committed Pareto-front membership against the run's."""
    baseline = _load_pareto_payload(baselines_dir)
    fresh = fronts_payload(result.aggregates(), family_names)
    if baseline is None:
        return [Diff(
            baseline=PARETO_BASELINE_NAME,
            cell=str(baseline_path(baselines_dir, PARETO_BASELINE_NAME)),
            metric="*", status="missing",
            detail="no committed Pareto fronts; run 'repro-access regress update'",
        )]
    return compare_fronts(baseline, fresh)


# ----------------------------------------------------------------------
# update
# ----------------------------------------------------------------------
def update_baselines(
    result: SweepResult,
    family_names: Sequence[str],
    baselines_dir: str,
    config: SweepConfig,
) -> List[Path]:
    """Export family baselines + the Pareto fronts from one sweep."""
    rows_by_family = aggregates_by_family(result)
    config_payload = sweep_config_payload(config)
    written: List[Path] = []
    for family in family_names:
        baseline = baseline_from_aggregates(
            family, rows_by_family.get(family, []), config=config_payload
        )
        written.append(save_baseline(baselines_dir, baseline))
    pareto_file = baseline_path(baselines_dir, PARETO_BASELINE_NAME)
    pareto_file.parent.mkdir(parents=True, exist_ok=True)
    payload = fronts_payload(result.aggregates(), family_names)
    pareto_file.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    written.append(pareto_file)
    return written


def _load_pareto_payload(baselines_dir: str) -> Optional[Mapping[str, object]]:
    path = baseline_path(baselines_dir, PARETO_BASELINE_NAME)
    try:
        text = path.read_text()
    except OSError:
        return None
    return json.loads(text)


# ----------------------------------------------------------------------
# History
# ----------------------------------------------------------------------
#: Append-only trajectory of gate runs, committed beside the baselines.
HISTORY_NAME = "history.jsonl"


def history_path(baselines_dir: str) -> Path:
    """Where the gate trajectory ledger lives."""
    return Path(baselines_dir) / HISTORY_NAME


def git_sha() -> Optional[str]:
    """The checkout's short commit sha; ``None`` outside a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def history_record(
    report: RegressReport,
    result: SweepResult,
    family_names: Sequence[str],
) -> Dict[str, object]:
    """One ledger line summarising a gate run.

    Records when the gate ran, at which commit, its verdict, and how many
    metric cells each family contributed — enough to spot coverage
    shrinking or a family silently dropping out of the gate over time.
    """
    rows_by_family = aggregates_by_family(result)
    families = {
        str(family): len(cells_from_aggregates(rows_by_family.get(family, [])))
        for family in family_names
    }
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": git_sha(),
        "verdict": "PASS" if report.ok else "REGRESSED",
        "families": families,
        "counts": {status: count for status, count in report.counts().items() if count},
    }


def append_history(record: Mapping[str, object], baselines_dir: str) -> Path:
    """Append one record to ``baselines/history.jsonl`` (created on demand)."""
    path = history_path(baselines_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(baselines_dir: str) -> List[Dict[str, object]]:
    """Every parseable ledger record, oldest first (tolerant of torn lines)."""
    try:
        lines = history_path(baselines_dir).read_text().splitlines()
    except OSError:
        return []
    records: List[Dict[str, object]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def render_history(records: Sequence[Mapping[str, object]]) -> str:
    """The gate trajectory as a table, oldest first."""
    if not records:
        return ("no gate history yet: 'repro-access regress check' appends "
                "one record per run to baselines/history.jsonl")
    rows = []
    for record in records:
        families = record.get("families") or {}
        per_family = ", ".join(
            f"{name}={count}" for name, count in sorted(families.items())
        )
        rows.append([
            record.get("timestamp", "-"),
            record.get("git_sha") or "-",
            record.get("verdict", "-"),
            sum(int(count) for count in families.values()),
            per_family or "-",
        ])
    return text_report.format_table(
        ["timestamp", "sha", "verdict", "cells", "per-family cells"], rows
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_report(report: RegressReport, verbose: bool = False) -> str:
    """The human-readable check report.

    Quiet by default: only non-identical diffs are tabulated (pass
    ``verbose`` for everything), followed by the status counts and the
    verdict line naming the offending cells when the gate fails.
    """
    blocks: List[str] = []
    shown = [
        diff for diff in report.diffs
        if verbose or diff.status != "identical"
    ]
    if shown:
        rows = []
        for diff in shown:
            rows.append([
                diff.baseline,
                diff.cell,
                diff.metric,
                diff.status,
                _fmt_value(diff.expected),
                _fmt_value(diff.observed),
                diff.detail or "-",
            ])
        blocks.append(text_report.format_table(
            ["baseline", "cell", "metric", "status", "expected", "observed", "detail"],
            rows, precision=6,
        ))
        blocks.append("")
    counts = {
        status: count for status, count in report.counts().items() if count
    }
    blocks.append(text_report.render_key_values(
        {**counts, "verdict": "PASS" if report.ok else "REGRESSED"},
        title="Regression gate",
    ))
    if not report.ok:
        offenders = sorted({
            f"{diff.baseline}:{diff.cell}:{diff.metric}"
            for diff in report.gating_diffs
        })
        blocks.append("")
        blocks.append("offending cells:")
        blocks.extend(f"  {name}" for name in offenders)
    return "\n".join(blocks)


def render_markdown_summary(report: RegressReport) -> str:
    """A GitHub-flavoured markdown summary for ``$GITHUB_STEP_SUMMARY``."""
    lines: List[str] = ["## Regression gate", ""]
    counts = report.counts()
    lines.append(text_report.format_markdown_table(
        ["status", "count"],
        [[status, count] for status, count in counts.items() if count],
    ))
    lines.append("")
    lines.append(f"**Verdict: {'PASS' if report.ok else 'REGRESSED'}**")
    if not report.ok:
        lines.append("")
        for diff in report.gating_diffs:
            lines.append(
                f"- `{diff.baseline}:{diff.cell}:{diff.metric}` — "
                f"{diff.status}: {diff.detail or 'see report artifact'}"
            )
    return "\n".join(lines) + "\n"


def render_fronts(payload: Mapping[str, object]) -> str:
    """Human-readable tables of a fronts payload."""
    blocks: List[str] = []
    for name, front in payload.get("fronts", {}).items():
        members = set(front.get("front", []))
        rows = []
        for key, point in front.get("points", {}).items():
            rows.append([
                key,
                float(point[0]),
                float(point[1]),
                "front" if key in members else "dominated",
            ])
        blocks.append(
            f"== {name} ({front.get('x_goal')} {front.get('x_metric')} vs. "
            f"{front.get('y_goal')} {front.get('y_metric')}) =="
        )
        blocks.append(text_report.format_table(
            ["point", front.get("x_metric", "x"), front.get("y_metric", "y"), "status"],
            rows, precision=4,
        ))
        blocks.append("")
    return "\n".join(blocks).rstrip("\n")


def _fmt_value(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:g}"


def default_family_names() -> List[str]:
    """The families the gate checks when ``--family`` is not given."""
    return list(DEFAULT_REGRESS_FAMILIES)
