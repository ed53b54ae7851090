"""Cross-store insight: read the run records of any number of sweep stores.

``obs query`` lists the records that iterating each
:class:`~repro.sweep.store.ResultStore` yields (record files ``get``
rejects are skipped), filtered by family, scheme, scenario label or
digest prefix.  ``obs drift`` compares every digest that two or more
stores hold: a digest identifies scenario physics, not code, so its
stored metrics must be bit-identical wherever it appears, and any
difference means the kernel silently changed its answers between the
sweeps that wrote the stores.  ``obs summary`` uses :func:`percentile`
for its per-cell wall-time columns.

Everything here only reads the stores.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.sweep.store import ResultStore, RunRecord


def query_runs(
    stores: Sequence[ResultStore],
    family: Optional[str] = None,
    scheme: Optional[str] = None,
    label: Optional[str] = None,
    digest: Optional[str] = None,
    metric: Optional[str] = None,
) -> List[Dict[str, object]]:
    """One row per valid record of every store, optionally filtered.

    Rows are ordered by cell (family, label, scheme, run index, digest),
    stores in the given order within one digest.  ``metric`` adds that
    metric's stored value as a column (None for records that lack it).
    """
    wanted = {"family": family, "scheme": scheme, "label": label}
    rows: List[Dict[str, object]] = []
    for store in stores:
        for record in store:
            if any(value is not None and getattr(record, name) != value
                   for name, value in wanted.items()):
                continue
            if digest is not None and not record.digest.startswith(digest):
                continue
            row: Dict[str, object] = {
                "store": str(store.root),
                "digest": record.digest,
                "family": record.family,
                "label": record.label,
                "scheme": record.scheme,
                "run_index": record.run_index,
                "seed": record.seed,
                "duration_s": record.duration_s,
            }
            if metric is not None:
                row[metric] = record.metrics.get(metric)
            rows.append(row)
    rows.sort(key=lambda row: (row["family"], row["label"], row["scheme"],
                               row["run_index"], row["digest"]))
    return rows


def drift(stores: Sequence[ResultStore]) -> List[Dict[str, object]]:
    """Digests whose stored metrics differ between stores, by digest.

    The first store holding a digest is its baseline; the first later
    store whose metrics differ from it yields the digest's one finding.
    """
    baselines: Dict[str, Tuple[ResultStore, RunRecord]] = {}
    findings: Dict[str, Dict[str, object]] = {}
    for store in stores:
        for record in store:
            if record.digest not in baselines:
                baselines[record.digest] = (store, record)
                continue
            if record.digest in findings:
                continue
            base_store, base = baselines[record.digest]
            changed = _changed_metrics(base.metrics, record.metrics)
            if changed:
                findings[record.digest] = {
                    "digest": record.digest,
                    "family": base.family,
                    "label": base.label,
                    "scheme": base.scheme,
                    "metrics": changed,
                    "from_store": str(base_store.root),
                    "to_store": str(store.root),
                }
    return [findings[digest] for digest in sorted(findings)]


def _changed_metrics(baseline: Dict[str, float], other: Dict[str, float]) -> List[str]:
    """Names of metrics whose values differ as stored.

    Compared as JSON text, the store's own encoding, so NaN matches NaN
    and -0.0 differs from 0.0.
    """
    return [
        name for name in sorted(set(baseline) | set(other))
        if json.dumps(baseline.get(name)) != json.dumps(other.get(name))
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
