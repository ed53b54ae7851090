"""Correctness checks of the records a benchmark sweep stored.

Pure functions over plain data, so they run without the program and the
tests can feed them perturbed records.  A record is identified by the
first hex digits of its store digest and summarised by a fingerprint of
its metrics; the reference files under ``perfbench/reference/`` hold
every record's fingerprint for each workload at its default seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, NamedTuple

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Savings below this (in percent) count as zero: exact in practice, but the
#: rule must not hinge on the last bit of a float division.
ZERO_SAVINGS_PERCENT = 1e-9


def key(digest: str) -> str:
    """The digest prefix records are known by (80 bits: no collisions in practice)."""
    return digest[:20]


def fingerprint(metrics: Mapping[str, float]) -> str:
    """Short hash of a record's metrics; any changed bit changes it."""
    text = json.dumps(dict(metrics), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_fingerprints(path: Path) -> Dict[str, str]:
    return json.loads(Path(path).read_text())["records"]


def save_fingerprints(path: Path, fingerprints: Mapping[str, str], **provenance) -> None:
    payload = {
        **provenance, "cells": len(fingerprints), "records": dict(sorted(fingerprints.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def mismatches(
    actual: Mapping[str, str], expected: Mapping[str, str], cells: Mapping[str, str]
) -> Dict[str, str]:
    """Key -> problem for every cell whose record is missing, unexpected or changed.

    ``cells`` names each key's grid cell for the message.
    """
    problems: Dict[str, str] = {}
    for record in expected.keys() | actual.keys():
        name = cells.get(record, record)
        if record not in actual:
            problems[record] = f"{name}: no stored record"
        elif record not in expected:
            problems[record] = f"{name}: not in the expected records"
        elif actual[record] != expected[record]:
            problems[record] = (
                f"{name}: metrics differ (fingerprint {actual[record]}, "
                f"expected {expected[record]})"
            )
    return problems


class CellFacts(NamedTuple):
    """What the rules need to know about one stored cell."""

    key: str
    cell: str
    scheme: str
    metrics: Mapping[str, float]
    num_gateways: int
    trace_flows: int
    #: True when no-sleep keeps every device powered: a churn-free spec
    #: whose gateways occupy every DSLAM line card.
    all_powered_without_sleep: bool


def rule_violations(facts: Iterable[CellFacts]) -> Dict[str, str]:
    """Key -> broken rule, for the rules every cell must obey at any seed.

    - ``served_flows + dropped_flows <= traces.flows``;
    - ``0 <= mean_online_gateways <= num_gateways``;
    - no-sleep saves nothing where it keeps every device powered.  Elsewhere
      it legitimately saves energy: a small fleet leaves line cards empty
      (``smoke``) and churn takes gateways out of service.
    """
    problems: Dict[str, str] = {}
    for fact in facts:
        metrics = fact.metrics
        handled = metrics["served_flows"] + metrics["dropped_flows"]
        online = metrics["mean_online_gateways"]
        if handled > fact.trace_flows:
            problems[fact.key] = (
                f"{fact.cell}: served + dropped flows {handled:g} exceed the "
                f"trace's {fact.trace_flows} flows"
            )
        elif not 0.0 <= online <= fact.num_gateways:
            problems[fact.key] = (
                f"{fact.cell}: mean online gateways {online:g} outside "
                f"[0, {fact.num_gateways}]"
            )
        elif fact.scheme == "no-sleep" and fact.all_powered_without_sleep and (
            abs(metrics["mean_savings_percent"]) > ZERO_SAVINGS_PERCENT
            or abs(metrics["peak_savings_percent"]) > ZERO_SAVINGS_PERCENT
        ):
            problems[fact.key] = (
                f"{fact.cell}: no-sleep saves {metrics['mean_savings_percent']:g}% "
                "with every device powered"
            )
    return problems


def describe(problems: Mapping[str, str], limit: int = 5) -> List[str]:
    """The first ``limit`` problem messages, plus a count of the rest."""
    lines = [problems[record] for record in sorted(problems)][:limit]
    if len(problems) > limit:
        lines.append(f"... and {len(problems) - limit} more")
    return lines
