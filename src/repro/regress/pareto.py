"""Cross-family Pareto fronts over sweep aggregates.

GATE (Ansari et al.) frames edge greening as an explicit
energy-vs-coverage frontier and Verma et al. rank access designs by
their cost/energy trade-off curves: the deliverable is the *front*, not
point metrics.  This module computes non-dominated fronts over the
(family, scenario, scheme) aggregate rows of a sweep and records front
membership in the committed baselines, so a scheme *falling off the
front* — becoming dominated by another design — is itself a detectable
regression even when none of its own metrics regressed.

Two shipped fronts (see :data:`FRONT_SPECS`):

* ``savings-vs-peak-online`` — maximize ``mean_savings_percent`` while
  minimizing peak online gateways (the capacity the ISP must keep hot);
* ``watt-energy-vs-served`` — the watt frontier of
  :mod:`repro.wattopt.front`: minimize ``gateway_kwh`` while maximizing
  served user demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.regress.compare import Diff

#: Key separator for front point keys ("family|scenario|scheme").
POINT_SEP = "|"


@dataclass(frozen=True)
class FrontSpec:
    """One two-axis Pareto front definition over aggregate metrics."""

    name: str
    x_metric: str
    #: ``"min"`` or ``"max"``.
    x_goal: str
    y_metric: str
    y_goal: str
    description: str = ""

    def __post_init__(self) -> None:
        for goal in (self.x_goal, self.y_goal):
            if goal not in ("min", "max"):
                raise ValueError(f"front goal must be 'min' or 'max', got {goal!r}")

    def oriented(self, point: Tuple[float, float]) -> Tuple[float, float]:
        """The point mapped so both axes minimize (for dominance tests)."""
        x, y = point
        return (x if self.x_goal == "min" else -x, y if self.y_goal == "min" else -y)


#: The savings-vs-capacity frontier over every scheme × scenario.
SAVINGS_FRONT = FrontSpec(
    name="savings-vs-peak-online",
    x_metric="peak_online_gateways",
    x_goal="min",
    y_metric="mean_savings_percent",
    y_goal="max",
    description="energy savings against the peak online-gateway capacity "
                "the ISP must keep hot",
)


def _watt_front_spec() -> FrontSpec:
    # Local import: repro.wattopt.front owns the watt frontier definition
    # (it is the watt-objective view of PR 4), regress just consumes it.
    from repro.wattopt.front import WATT_FRONT

    return WATT_FRONT


def front_specs() -> List[FrontSpec]:
    """The shipped front definitions, in report order."""
    return [SAVINGS_FRONT, _watt_front_spec()]


#: Kept for introspection/docs; prefer :func:`front_specs` (lazy import).
FRONT_SPECS = ("savings-vs-peak-online", "watt-energy-vs-served")


def point_key(family: str, scenario: str, scheme: str) -> str:
    """The front point key of one aggregate row."""
    return POINT_SEP.join((family, scenario, scheme))


def front_points(
    rows: Sequence[Mapping[str, object]],
    spec: FrontSpec,
) -> Dict[str, Tuple[float, float]]:
    """``point key -> (x, y)`` for every row carrying both axis metrics.

    Rows missing either metric (e.g. records written before the column
    existed) are skipped, never guessed at.
    """
    points: Dict[str, Tuple[float, float]] = {}
    for row in rows:
        if spec.x_metric not in row or spec.y_metric not in row:
            continue
        key = point_key(str(row["family"]), str(row["scenario"]), str(row["scheme"]))
        points[key] = (float(row[spec.x_metric]), float(row[spec.y_metric]))
    return points


def pareto_front(
    points: Mapping[str, Tuple[float, float]],
    spec: FrontSpec,
) -> List[str]:
    """Keys of the non-dominated points, sorted along the x axis.

    A point dominates another when it is no worse on both axes and
    strictly better on at least one; coordinate ties are both kept.
    """
    oriented = {key: spec.oriented(point) for key, point in points.items()}
    front: List[str] = []
    for key, (x, y) in oriented.items():
        dominated = False
        for other_key, (ox, oy) in oriented.items():
            if other_key == key:
                continue
            if ox <= x and oy <= y and (ox < x or oy < y):
                dominated = True
                break
        if not dominated:
            front.append(key)
    front.sort(key=lambda k: (oriented[k], k))
    return front


def fronts_payload(
    rows: Sequence[Mapping[str, object]],
    families: Sequence[str],
    specs: Optional[Sequence[FrontSpec]] = None,
) -> Dict[str, object]:
    """The JSON payload of every front over one sweep's aggregates.

    This is both the ``baselines/pareto.json`` format and the
    ``regress pareto --export`` artifact.
    """
    specs = list(specs) if specs is not None else front_specs()
    fronts: Dict[str, object] = {}
    for spec in specs:
        points = front_points(rows, spec)
        fronts[spec.name] = {
            "x_metric": spec.x_metric,
            "x_goal": spec.x_goal,
            "y_metric": spec.y_metric,
            "y_goal": spec.y_goal,
            "description": spec.description,
            "points": {key: list(point) for key, point in sorted(points.items())},
            "front": pareto_front(points, spec),
        }
    return {
        "schema_version": 1,
        "kind": "pareto",
        "families": sorted(families),
        "fronts": fronts,
    }


def compare_fronts(
    baseline_payload: Mapping[str, object],
    fresh_payload: Mapping[str, object],
) -> List[Diff]:
    """Diff committed front membership against a freshly computed one.

    * a committed front member that is now dominated (still present as a
      point) → ``regressed`` ("fell off the Pareto front");
    * a committed front member whose point vanished → ``missing``;
    * a fresh front member the baseline did not have → ``improved``
      (a new design entered the frontier — passes, adopt via update);
    * identical membership → one ``identical`` diff per front.
    """
    diffs: List[Diff] = []
    if sorted(baseline_payload.get("families", [])) != sorted(
        fresh_payload.get("families", [])
    ):
        diffs.append(Diff(
            baseline="pareto", cell="families", metric="*",
            status="config-mismatch",
            detail=(
                f"baseline fronts cover families "
                f"{baseline_payload.get('families')} but the run swept "
                f"{fresh_payload.get('families')}; re-run 'regress update' "
                "or match --family"
            ),
        ))
        return diffs
    baseline_fronts = baseline_payload.get("fronts", {})
    fresh_fronts = fresh_payload.get("fronts", {})
    for name in sorted(baseline_fronts):
        committed = baseline_fronts[name]
        fresh = fresh_fronts.get(name)
        if fresh is None:
            diffs.append(Diff(
                baseline="pareto", cell=name, metric="*", status="missing",
                detail="front committed in the baseline but not computed by the run",
            ))
            continue
        committed_front = list(committed.get("front", []))
        fresh_front = set(fresh.get("front", []))
        fresh_points = fresh.get("points", {})
        changed = False
        for key in committed_front:
            if key in fresh_front:
                continue
            changed = True
            if key not in fresh_points:
                diffs.append(Diff(
                    baseline="pareto", cell=name, metric=key, status="missing",
                    detail="committed front member no longer produces a point",
                ))
            else:
                diffs.append(Diff(
                    baseline="pareto", cell=name, metric=key, status="regressed",
                    detail="fell off the Pareto front (now dominated)",
                ))
        for key in sorted(fresh_front - set(committed_front)):
            changed = True
            diffs.append(Diff(
                baseline="pareto", cell=name, metric=key, status="improved",
                detail="entered the Pareto front; 'regress update' records it",
            ))
        if not changed:
            diffs.append(Diff(
                baseline="pareto", cell=name, metric="*", status="identical",
                detail=f"front membership unchanged ({len(committed_front)} points)",
            ))
    for name in sorted(set(fresh_fronts) - set(baseline_fronts)):
        diffs.append(Diff(
            baseline="pareto", cell=name, metric="*", status="new",
            detail="front computed by the run but not committed yet",
        ))
    return diffs
