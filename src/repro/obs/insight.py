"""Cross-sweep insight warehouse: a SQLite index over sweep artifacts.

``obs ingest`` folds what every sweep store already keeps — its
``runs/`` record files (one row per record, with metrics) and
``timings.jsonl`` (one row per executed-and-persisted attempt) — plus
optional JSONL trace files and ``baselines/history.jsonl`` ledgers into
one queryable schema, keyed by run digest and git sha.  Ingest is
idempotent per source path: re-ingesting a store replaces its rows.

``obs query`` filters the run table; ``obs drift`` compares the *same
digest* across sources ingested at different shas — metrics are expected
bit-identical (the store digests scenario physics, not code, so any
metric difference across shas is a silent kernel change), and per-cell
wall time is held to a ratio band.  Drift findings feed an advisory row
into the ``regress history`` ledger so the trend trajectory and the
gate trajectory live in one place.

Everything here is read-only over the stores: the warehouse is a
separate ``.db`` file and never writes into a sweep store.
"""

from __future__ import annotations

import json
import math
import sqlite3
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta(
  key TEXT PRIMARY KEY,
  value TEXT
);
CREATE TABLE IF NOT EXISTS sources(
  id INTEGER PRIMARY KEY AUTOINCREMENT,
  path TEXT NOT NULL,
  kind TEXT NOT NULL,
  git_sha TEXT,
  ingested_at TEXT,
  UNIQUE(path, kind)
);
CREATE TABLE IF NOT EXISTS runs(
  source_id INTEGER NOT NULL,
  digest TEXT NOT NULL,
  family TEXT,
  label TEXT,
  scheme TEXT,
  run_index INTEGER,
  seed INTEGER,
  duration_s REAL,
  store_version INTEGER,
  metrics TEXT
);
CREATE INDEX IF NOT EXISTS runs_by_digest ON runs(digest);
CREATE TABLE IF NOT EXISTS timings(
  source_id INTEGER NOT NULL,
  digest TEXT,
  family TEXT,
  label TEXT,
  scheme TEXT,
  run_index INTEGER,
  attempt INTEGER,
  build_s REAL,
  run_s REAL
);
CREATE INDEX IF NOT EXISTS timings_by_digest ON timings(digest);
CREATE TABLE IF NOT EXISTS trace_events(
  source_id INTEGER NOT NULL,
  name TEXT,
  clock TEXT,
  count INTEGER,
  total_dur REAL
);
CREATE TABLE IF NOT EXISTS history(
  source_id INTEGER NOT NULL,
  timestamp TEXT,
  git_sha TEXT,
  verdict TEXT,
  record TEXT
);
"""


class InsightWarehouse:
    """One SQLite warehouse file indexing any number of sweep artifacts."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self.connection = sqlite3.connect(str(self.path))
        self.connection.row_factory = sqlite3.Row
        self.connection.executescript(_SCHEMA)
        self.connection.execute(
            "INSERT OR IGNORE INTO meta(key, value) VALUES('schema_version', ?)",
            (str(SCHEMA_VERSION),),
        )
        self.connection.commit()

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "InsightWarehouse":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- sources ----------------------------------------------------------
    def _source(self, path, kind: str, git_sha: Optional[str]) -> int:
        """Upsert one source row; purge its old rows so re-ingest replaces."""
        key = str(Path(path).resolve()) if kind != "inline" else str(path)
        now = datetime.now(timezone.utc).isoformat(timespec="seconds")
        cursor = self.connection.execute(
            "SELECT id FROM sources WHERE path = ? AND kind = ?", (key, kind)
        )
        row = cursor.fetchone()
        if row is None:
            cursor = self.connection.execute(
                "INSERT INTO sources(path, kind, git_sha, ingested_at) "
                "VALUES(?, ?, ?, ?)",
                (key, kind, git_sha, now),
            )
            return int(cursor.lastrowid)
        source_id = int(row["id"])
        self.connection.execute(
            "UPDATE sources SET git_sha = ?, ingested_at = ? WHERE id = ?",
            (git_sha, now, source_id),
        )
        for table in ("runs", "timings", "trace_events", "history"):
            self.connection.execute(
                f"DELETE FROM {table} WHERE source_id = ?", (source_id,)
            )
        return source_id

    def sources(self) -> List[dict]:
        return [
            dict(row)
            for row in self.connection.execute(
                "SELECT id, path, kind, git_sha, ingested_at FROM sources ORDER BY id"
            )
        ]

    # -- ingest -----------------------------------------------------------
    def ingest_store(self, store_dir, git_sha: Optional[str] = None) -> Dict[str, int]:
        """Index one sweep store: its records (+metrics) and timings.

        Produces exactly one ``runs`` row per record file (files ``get``
        rejects included, with NULL fields) — the warehouse mirrors the
        store's own accounting, so ``runs`` count == record file count.
        """
        from repro.sweep.store import ResultStore

        store = ResultStore(store_dir)
        source_id = self._source(store.root, "store", git_sha)
        runs = 0
        for digest in store.digests():
            record = store.get(digest)
            fields = (None,) * 8 if record is None else (
                record.family,
                record.label,
                record.scheme,
                record.run_index,
                record.seed,
                record.duration_s,
                record.store_version,
                json.dumps(record.metrics, sort_keys=True),
            )
            self.connection.execute(
                "INSERT INTO runs(source_id, digest, family, label, scheme, "
                "run_index, seed, duration_s, store_version, metrics) "
                "VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (source_id, digest) + fields,
            )
            runs += 1
        timings = 0
        for entry in store.read_timings():
            self.connection.execute(
                "INSERT INTO timings(source_id, digest, family, label, scheme, "
                "run_index, attempt, build_s, run_s) "
                "VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    source_id,
                    entry.get("digest"),
                    entry.get("family"),
                    entry.get("label"),
                    entry.get("scheme"),
                    entry.get("run_index"),
                    entry.get("attempt"),
                    entry.get("build_s"),
                    entry.get("run_s"),
                ),
            )
            timings += 1
        self.connection.commit()
        return {"runs": runs, "timings": timings}

    def ingest_trace(self, path) -> int:
        """Aggregate one JSONL event trace: per-name event counts + duration."""
        from repro.obs.tracer import read_jsonl_events

        source_id = self._source(path, "trace", None)
        totals: Dict[tuple, List[float]] = {}
        for event in read_jsonl_events(path):
            key = (str(event.get("name")), str(event.get("clock", "sim")))
            bucket = totals.setdefault(key, [0, 0.0])
            bucket[0] += 1
            try:
                bucket[1] += float(event.get("dur", 0.0) or 0.0)
            except (TypeError, ValueError):
                pass
        for (name, clock), (count, total_dur) in sorted(totals.items()):
            self.connection.execute(
                "INSERT INTO trace_events(source_id, name, clock, count, total_dur) "
                "VALUES(?, ?, ?, ?, ?)",
                (source_id, name, clock, count, total_dur),
            )
        self.connection.commit()
        return sum(count for count, _dur in totals.values())

    def ingest_history(self, baselines_dir) -> int:
        """Index a ``baselines/history.jsonl`` gate-trajectory ledger."""
        from repro.regress.runner import history_path, load_history

        source_id = self._source(history_path(str(baselines_dir)), "history", None)
        rows = 0
        for record in load_history(str(baselines_dir)):
            self.connection.execute(
                "INSERT INTO history(source_id, timestamp, git_sha, verdict, record) "
                "VALUES(?, ?, ?, ?, ?)",
                (
                    source_id,
                    record.get("timestamp"),
                    record.get("git_sha"),
                    record.get("verdict"),
                    json.dumps(record, sort_keys=True),
                ),
            )
            rows += 1
        self.connection.commit()
        return rows

    # -- query ------------------------------------------------------------
    def query_runs(
        self,
        family: Optional[str] = None,
        scheme: Optional[str] = None,
        label: Optional[str] = None,
        digest: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> List[Dict[str, object]]:
        """Run rows (joined with their source), optionally filtered.

        ``metric`` additionally surfaces one metric column pulled out of
        the stored metrics JSON (None for rows that lack it).
        """
        conditions, parameters = [], []
        for column, value in (
            ("runs.family", family),
            ("runs.scheme", scheme),
            ("runs.label", label),
        ):
            if value is not None:
                conditions.append(f"{column} = ?")
                parameters.append(value)
        if digest is not None:
            conditions.append("runs.digest LIKE ?")
            parameters.append(f"{digest}%")
        where = f"WHERE {' AND '.join(conditions)}" if conditions else ""
        rows = []
        for row in self.connection.execute(
            "SELECT sources.path AS store, sources.git_sha AS git_sha, "
            "runs.digest, runs.family, runs.label, runs.scheme, "
            "runs.run_index, runs.seed, runs.duration_s, runs.metrics "
            f"FROM runs JOIN sources ON sources.id = runs.source_id {where} "
            "ORDER BY runs.family, runs.label, runs.scheme, runs.run_index, "
            "runs.digest, sources.id",
            parameters,
        ):
            entry = dict(row)
            metrics = entry.pop("metrics", None)
            if metric is not None:
                value = None
                if metrics:
                    value = json.loads(metrics).get(metric)
                entry[metric] = value
            rows.append(entry)
        return rows

    def counts(self) -> Dict[str, int]:
        """Row counts per warehouse table (cheap health overview)."""
        return {
            table: int(self.connection.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0])
            for table in ("sources", "runs", "timings", "trace_events", "history")
        }

    # -- drift ------------------------------------------------------------
    def drift(self, wall_ratio: float = 1.5) -> List[Dict[str, object]]:
        """Per-cell drift findings across sources/shas, worst first.

        * ``metric`` drift: the same digest carries different metrics in
          two sources.  Digests identify scenario physics, not code, so
          across shas this means the kernel silently changed its answers.
        * ``wall_time`` drift: the same digest's mean executed ``run_s``
          moved by more than ``wall_ratio`` between the oldest and newest
          source that timed it.
        """
        if wall_ratio <= 1.0:
            raise ValueError("wall_ratio must be > 1.0")
        findings: List[Dict[str, object]] = []
        cells: Dict[str, dict] = {}
        for row in self.connection.execute(
            "SELECT runs.digest, runs.family, runs.label, runs.scheme, "
            "runs.metrics, sources.id AS source_id, sources.git_sha "
            "FROM runs JOIN sources ON sources.id = runs.source_id "
            "ORDER BY runs.digest, sources.id"
        ):
            cell = cells.setdefault(row["digest"], {
                "family": row["family"], "label": row["label"],
                "scheme": row["scheme"], "versions": [],
            })
            cell["versions"].append((row["source_id"], row["git_sha"], row["metrics"]))
        for digest, cell in sorted(cells.items()):
            versions = cell["versions"]
            if len(versions) < 2:
                continue
            baseline = next((v for v in versions if v[2] is not None), None)
            if baseline is None:
                continue
            for version in versions:
                if version[2] is None or version[2] == baseline[2]:
                    continue
                changed = _changed_metrics(baseline[2], version[2])
                findings.append({
                    "kind": "metric",
                    "digest": digest,
                    "family": cell["family"],
                    "label": cell["label"],
                    "scheme": cell["scheme"],
                    "metrics": changed,
                    "from_sha": baseline[1],
                    "to_sha": version[1],
                    "severity": math.inf,
                })
                break
        walls: Dict[str, dict] = {}
        for row in self.connection.execute(
            "SELECT timings.digest, timings.family, timings.label, "
            "timings.scheme, timings.run_s, sources.id AS source_id, "
            "sources.git_sha "
            "FROM timings JOIN sources ON sources.id = timings.source_id "
            "WHERE timings.run_s IS NOT NULL "
            "ORDER BY timings.digest, sources.id"
        ):
            cell = walls.setdefault(row["digest"], {
                "family": row["family"], "label": row["label"],
                "scheme": row["scheme"], "by_source": {},
            })
            bucket = cell["by_source"].setdefault(
                row["source_id"], {"sha": row["git_sha"], "runs": []}
            )
            bucket["runs"].append(float(row["run_s"]))
        for digest, cell in sorted(walls.items()):
            by_source = cell["by_source"]
            if len(by_source) < 2:
                continue
            ordered = [by_source[key] for key in sorted(by_source)]
            oldest, newest = ordered[0], ordered[-1]
            base = sum(oldest["runs"]) / len(oldest["runs"])
            current = sum(newest["runs"]) / len(newest["runs"])
            if base <= 0 or current <= 0:
                continue
            ratio = current / base
            if ratio > wall_ratio or ratio < 1.0 / wall_ratio:
                findings.append({
                    "kind": "wall_time",
                    "digest": digest,
                    "family": cell["family"],
                    "label": cell["label"],
                    "scheme": cell["scheme"],
                    "base_run_s": base,
                    "run_s": current,
                    "ratio": ratio,
                    "from_sha": oldest["sha"],
                    "to_sha": newest["sha"],
                    "severity": max(ratio, 1.0 / ratio),
                })
        findings.sort(key=lambda f: (-f["severity"], f["digest"]))
        for finding in findings:
            finding.pop("severity")
        return findings


def _changed_metrics(baseline_json: str, other_json: str) -> List[str]:
    """Names of metrics that differ between two stored metrics payloads."""
    baseline = json.loads(baseline_json)
    other = json.loads(other_json)
    changed = [
        name for name in sorted(set(baseline) | set(other))
        if baseline.get(name) != other.get(name)
    ]
    return changed or ["<payload>"]


def drift_advisory(findings: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """A ``regress history`` advisory record summarising a drift scan."""
    from repro.regress.runner import advisory_record

    families: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    for finding in findings:
        family = str(finding.get("family") or "-")
        families[family] = families.get(family, 0) + 1
        kind = f"drift-{finding['kind']}"
        counts[kind] = counts.get(kind, 0) + 1
    verdict = "DRIFT" if findings else "DRIFT-OK"
    return advisory_record(verdict, families, counts)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
