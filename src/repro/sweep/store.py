"""Content-addressed on-disk result store for sweep runs.

Every run of the sweep grid is identified by a SHA-256 digest of its
*code-relevant* inputs: the physical scenario parameters, the complete
scheme configuration, the per-run seed, the step size, the sampling
interval and a store schema version.  Records live one-per-file under
``<root>/runs/<digest>.json`` and are written atomically (temp file +
``os.replace``), so a sweep killed mid-run leaves only complete records
behind and a re-invocation resumes exactly where it stopped.

JSON float serialisation uses Python's shortest-repr round-trip, so the
metrics a resumed sweep reads back are bit-identical to the ones the
original run computed — aggregates over cached and freshly-computed
records cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

#: Bump when the meaning of stored metrics (or anything the digest does
#: not capture) changes; old records then simply stop matching.
STORE_VERSION = 1

#: How old (seconds) an orphaned ``.tmp`` in ``runs/`` must be before
#: GC and manifest rebuilds treat it as the leavings of a dead writer
#: rather than a concurrent sweep's in-flight :meth:`ResultStore.put`.
STALE_TMP_GRACE_S = 3600.0


def canonicalize(obj: object) -> object:
    """Reduce dataclasses/enums/tuples to plain JSON-stable structures."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonicalize(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(key): canonicalize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for digesting")


def canonical_json(obj: object) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))


def run_digest(
    spec,
    scheme,
    seed: int,
    step_s: float,
    sample_interval_s: float,
    spec_canonical: Optional[dict] = None,
) -> str:
    """Stable content digest of one (scenario, scheme, seed) run.

    ``spec_canonical`` lets callers expanding many (scheme, repetition)
    cells of one spec pay for ``spec.canonical()`` — which materialises
    churn timelines and fleet mixes — once instead of per cell.

    Schemes with their own ``canonical()`` (i.e. :class:`SchemeConfig`)
    control their digest payload — default-valued additions such as
    ``watt_aware=False`` are omitted so old stores keep their hits.
    """
    payload = {
        "store_version": STORE_VERSION,
        "scenario": spec_canonical if spec_canonical is not None else spec.canonical(),
        "scheme": scheme.canonical() if hasattr(scheme, "canonical") else canonicalize(scheme),
        "seed": seed,
        "step_s": step_s,
        "sample_interval_s": sample_interval_s,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class RunRecord:
    """The stored outcome of one run: scalar metrics plus provenance."""

    digest: str
    family: str
    label: str
    scheme: str
    run_index: int
    seed: int
    duration_s: float
    metrics: Dict[str, float] = field(default_factory=dict)
    store_version: int = STORE_VERSION

    def to_json(self) -> str:
        # Hand-rolled shallow dict: dataclasses.asdict deep-copies every
        # metrics value, which is measurable at sweep scale (one call per
        # persisted grid cell) for no benefit on this flat record.
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return json.dumps(payload, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        payload = json.loads(text)
        return cls(**payload)


@dataclass(frozen=True)
class GcCandidate:
    """One record (or orphaned tmp file) GC would (or did) remove.

    Orphaned ``.tmp`` candidates carry ``filename`` instead of a digest:
    a tmp file's name holds only a digest prefix, never the full digest.
    """

    digest: str
    reason: str
    family: str = ""
    label: str = ""
    scheme: str = ""
    age_days: Optional[float] = None
    filename: str = ""


@dataclass
class GcReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    examined: int
    candidates: List[GcCandidate]
    applied: bool = False
    removed: int = 0

    @property
    def kept(self) -> int:
        return self.examined - len(self.candidates)


class ResultStore:
    """Filesystem-backed content-addressed store of :class:`RunRecord`.

    ``get`` treats missing, truncated or schema-mismatched files as cache
    misses, so a store survives crashes and version bumps without manual
    cleanup.

    A store-wide **manifest** (``manifest.jsonl``, one summary line per
    record, appended on every :meth:`put`) lets a cold ``--resume`` learn
    which digests exist without opening every record file.  The manifest is
    advisory: membership false-positives fall through :meth:`get` (still a
    miss), false-negatives merely recompute a run, and a manifest whose
    entry count disagrees with the record-file count is rebuilt lazily from
    the records themselves.
    """

    MANIFEST_NAME = "manifest.jsonl"
    TIMINGS_NAME = "timings.jsonl"

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        #: In-memory manifest cache: digest -> summary dict (lazy).  Only
        #: ever set from the staleness-checked :meth:`manifest` path.
        self._manifest: Optional[Dict[str, dict]] = None
        #: Raw-line cache used solely to deduplicate :meth:`put` appends;
        #: never served to readers, so it may lag the record files.
        self._manifest_lines: Optional[Dict[str, dict]] = None
        #: Distinguishes this store's in-flight tmp names (with the pid).
        self._put_counter = 0
        #: Cached append handles (manifest, timings): one ``open`` per
        #: store instead of per persisted record.  Lines are flushed
        #: individually, so readers and crash recovery see exactly what
        #: the open-per-append posture showed them.
        self._append_handles: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        """Where the store-wide manifest lives."""
        return self.root / self.MANIFEST_NAME

    @staticmethod
    def _summary(record: "RunRecord") -> dict:
        return {
            "digest": record.digest,
            "family": record.family,
            "label": record.label,
            "scheme": record.scheme,
            "run_index": record.run_index,
            "seed": record.seed,
            "duration_s": record.duration_s,
            "store_version": record.store_version,
        }

    def _record_file_count(self) -> int:
        """Number of record files, by one readdir (no stat, no opens)."""
        with os.scandir(self.runs_dir) as entries:
            return sum(1 for entry in entries if entry.name.endswith(".json"))

    def _read_manifest_lines(self) -> Dict[str, dict]:
        entries: Dict[str, dict] = {}
        try:
            with open(self.manifest_path, "r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                        digest = payload["digest"]
                    except (ValueError, TypeError, KeyError):
                        continue  # torn append from a crash: ignore the line
                    entries[digest] = payload
        except OSError:
            return {}
        return entries

    def manifest(self) -> Dict[str, dict]:
        """Digest → record summary for every record the store knows about.

        Served from ``manifest.jsonl`` when its entry count matches the
        record files on disk; rebuilt from the records (and rewritten
        atomically) when it is stale or missing.  Unvalidatable record
        files (corrupt, or left behind by a ``STORE_VERSION`` bump) are
        kept as ``invalid`` tombstone entries so the counts keep matching
        and one bad file does not force a rebuild on every cold open.
        """
        if self._manifest is not None:
            return self._manifest
        entries = self._read_manifest_lines()
        if len(entries) != self._record_file_count():
            entries = self.rebuild_manifest()
        self._manifest = entries
        self._manifest_lines = entries
        return entries

    def known_digests(self) -> Set[str]:
        """Digests of validated records listed by the manifest (fast cold
        listing; tombstoned invalid files are excluded)."""
        return {
            digest
            for digest, summary in self.manifest().items()
            if not summary.get("invalid")
        }

    def _scan_tmps(self, now: Optional[float] = None) -> List[tuple]:
        """Every ``.tmp`` in ``runs/`` as sorted ``(name, age_s)`` pairs.

        These are the orphans of writers that died between ``mkstemp``
        and ``os.replace`` — :meth:`put` unlinks its tmp on any in-process
        failure, so only process death leaves one behind.
        """
        clock = time.time() if now is None else now
        found: List[tuple] = []
        with os.scandir(self.runs_dir) as entries:
            for entry in entries:
                if not entry.name.endswith(".tmp"):
                    continue
                try:
                    age_s = max(0.0, clock - entry.stat().st_mtime)
                except OSError:
                    continue  # vanished mid-scan: its writer completed it
                found.append((entry.name, age_s))
        return sorted(found)

    def _sweep_stale_tmps(
        self, grace_s: float = STALE_TMP_GRACE_S, now: Optional[float] = None
    ) -> int:
        """Unlink orphaned ``.tmp`` files older than ``grace_s``."""
        removed = 0
        for name, age_s in self._scan_tmps(now=now):
            if age_s < grace_s:
                continue
            try:
                os.unlink(self.runs_dir / name)
                removed += 1
            except OSError:
                pass  # concurrent removal: nothing left to clean
        return removed

    def rebuild_manifest(self) -> Dict[str, dict]:
        """Regenerate the manifest from the record files, atomically.

        Also sweeps orphaned ``.tmp`` files past the stale grace period:
        a rebuild is already a whole-store pass, and tmp orphans are the
        one kind of garbage :meth:`put` cannot clean up after itself
        (the writing process died holding them).
        """
        self._sweep_stale_tmps()
        entries: Dict[str, dict] = {}
        for digest in self.digests():
            record = self.get(digest)
            if record is not None:
                entries[digest] = self._summary(record)
            else:
                entries[digest] = {"digest": digest, "invalid": True}
        fd, tmp_name = tempfile.mkstemp(dir=self.root, prefix=".manifest-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                for summary in entries.values():
                    handle.write(json.dumps(summary, sort_keys=True) + "\n")
            os.replace(tmp_name, self.manifest_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        # A cached append handle would keep writing to the replaced
        # inode; drop it so the next append reopens the new file.
        self._close_append_handles()
        self._manifest = entries
        self._manifest_lines = entries
        return entries

    def _append_line(self, path: Path, text: str) -> None:
        handle = self._append_handles.get(path.name)
        if handle is None:
            handle = open(path, "a")
            self._append_handles[path.name] = handle
        handle.write(text)
        handle.flush()

    def _close_append_handles(self) -> None:
        """Drop cached append handles (a rebuild swapped the inode)."""
        for handle in self._append_handles.values():
            try:
                handle.close()
            except OSError:
                pass
        self._append_handles.clear()

    def _append_manifest(self, record: "RunRecord") -> None:
        summary = self._summary(record)
        # Lazily load the manifest *lines* (no staleness rebuild — the
        # record just written would always make the counts disagree) so an
        # overwriting put — e.g. repeated --no-resume sweeps against the
        # same store — does not grow the file with duplicate lines.  The
        # line cache is append-dedup state only: a later manifest() call
        # still runs its own staleness check against the record files.
        if self._manifest_lines is None:
            self._manifest_lines = self._read_manifest_lines()
        if self._manifest_lines.get(record.digest) == summary:
            return
        self._manifest_lines[record.digest] = summary
        if self._manifest is not None:
            self._manifest[record.digest] = summary
        try:
            self._append_line(self.manifest_path, json.dumps(summary, sort_keys=True) + "\n")
        except OSError:
            # The manifest is an optimization; a failed append only means
            # the next cold load rebuilds it.
            pass

    # ------------------------------------------------------------------
    # Timings ledger (observability)
    # ------------------------------------------------------------------
    @property
    def timings_path(self) -> Path:
        """Where the per-sweep profiling ledger lives."""
        return self.root / self.TIMINGS_NAME

    def append_timing(self, entry: dict) -> None:
        """Append one profiling line (one executed-and-persisted run).

        The ledger shares the manifest's posture: advisory, append-only,
        and best-effort — a failed append loses one timing line, never a
        result.  Unlike the manifest it is *not* deduplicated: re-running
        a cell (``--no-resume``) legitimately appends another line.
        """
        try:
            self._append_line(self.timings_path, json.dumps(entry, sort_keys=True) + "\n")
        except (OSError, TypeError, ValueError):
            pass

    def read_timings(self) -> List[dict]:
        """Every parseable line of the timings ledger, in append order."""
        entries: List[dict] = []
        try:
            with open(self.timings_path, "r") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        payload = json.loads(line)
                    except ValueError:
                        continue  # torn append from a crash: ignore the line
                    if isinstance(payload, dict):
                        entries.append(payload)
        except OSError:
            return []
        return entries

    def path_for(self, digest: str) -> Path:
        """Where the record for a digest lives."""
        return self.runs_dir / f"{digest}.json"

    def get(self, digest: str) -> Optional[RunRecord]:
        """The stored record for a digest, or None on any kind of miss."""
        path = self.path_for(digest)
        try:
            record = RunRecord.from_json(path.read_text())
        except (OSError, ValueError, TypeError):
            return None
        if record.digest != digest or record.store_version != STORE_VERSION:
            return None
        return record

    def put(self, record: RunRecord) -> Path:
        """Atomically persist a record (visible fully written or not at all).

        The tmp name keeps the ``.{digest prefix}-*.tmp`` convention GC
        relies on, but is built from (pid, per-store counter) instead of
        ``tempfile.mkstemp`` — cheaper per call, and a collision can only
        be a dead writer's orphan, which overwriting is exactly right.
        """
        path = self.path_for(record.digest)
        self._put_counter += 1
        tmp_name = str(
            self.runs_dir
            / f".{record.digest[:12]}-{os.getpid()}-{self._put_counter}.tmp"
        )
        try:
            with open(tmp_name, "w") as handle:
                handle.write(record.to_json())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._append_manifest(record)
        return path

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(
        self,
        keep_families: Optional[Sequence[str]] = None,
        max_age_days: Optional[float] = None,
        now: Optional[float] = None,
        apply: bool = False,
        tmp_grace_s: float = STALE_TMP_GRACE_S,
    ) -> GcReport:
        """Trim the store, driven by the manifest.  Dry run unless ``apply``.

        Removal rules (combined with *or*):

        * ``keep_families`` — records of any *other* family are removed;
        * ``max_age_days`` — records whose file is older (by mtime) are
          removed, whatever their family;
        * ``invalid`` manifest tombstones (corrupt files, or leftovers of
          a ``STORE_VERSION`` bump that can never be cache hits again) are
          always removal candidates, even with no rule given;
        * orphaned ``.tmp`` files in ``runs/`` older than ``tmp_grace_s``
          (left by writers that died between ``mkstemp`` and
          ``os.replace``) are always removal candidates too — younger
          ones are spared as possibly a concurrent sweep's in-flight put.

        A dry run (the default) touches nothing — it only reports what an
        ``apply`` pass would delete.  An ``apply`` pass unlinks the record
        files and rebuilds the manifest atomically, so a crash mid-GC
        leaves at worst a stale manifest that the next cold open rebuilds
        (tombstone-safe: no record can be half-deleted).
        """
        if max_age_days is not None and max_age_days < 0:
            raise ValueError("max_age_days must be non-negative")
        if tmp_grace_s < 0:
            raise ValueError("tmp_grace_s must be non-negative")
        keep = set(keep_families) if keep_families is not None else None
        clock = time.time() if now is None else now
        # Scan tmps before manifest(): a stale manifest triggers a lazy
        # rebuild, and the rebuild sweeps stale tmps itself.
        tmps = self._scan_tmps(now=clock)
        entries = self.manifest()
        candidates: List[GcCandidate] = [
            GcCandidate(
                digest="",
                reason=f"orphaned tmp write (stale past {tmp_grace_s:g}s grace)",
                age_days=age_s / 86400.0,
                filename=name,
            )
            for name, age_s in tmps
            if age_s >= tmp_grace_s
        ]
        for digest in sorted(entries):
            summary = entries[digest]
            path = self.path_for(digest)
            age_days: Optional[float] = None
            try:
                age_days = max(0.0, clock - path.stat().st_mtime) / 86400.0
            except OSError:
                pass  # already gone: the rebuild below reconciles the manifest
            if summary.get("invalid"):
                candidates.append(GcCandidate(
                    digest=digest, reason="invalid record (tombstone)",
                    age_days=age_days,
                ))
                continue
            family = str(summary.get("family", ""))
            label = str(summary.get("label", ""))
            scheme = str(summary.get("scheme", ""))
            if keep is not None and family not in keep:
                candidates.append(GcCandidate(
                    digest=digest, reason=f"family {family!r} not kept",
                    family=family, label=label, scheme=scheme, age_days=age_days,
                ))
            elif (
                max_age_days is not None
                and age_days is not None
                and age_days > max_age_days
            ):
                candidates.append(GcCandidate(
                    digest=digest,
                    reason=f"older than {max_age_days:g} days",
                    family=family, label=label, scheme=scheme, age_days=age_days,
                ))
        report = GcReport(
            examined=len(entries) + len(tmps), candidates=candidates, applied=apply
        )
        if apply and candidates:
            for candidate in candidates:
                if candidate.filename:
                    path = self.runs_dir / candidate.filename
                else:
                    path = self.path_for(candidate.digest)
                try:
                    os.unlink(path)
                    report.removed += 1
                except OSError:
                    pass  # concurrent removal: the manifest rebuild reconciles
            self.rebuild_manifest()
        return report

    def digests(self) -> List[str]:
        """Digests of every complete record currently in the store."""
        return sorted(path.stem for path in self.runs_dir.glob("*.json"))

    def __len__(self) -> int:
        return len(self.digests())

    def __iter__(self) -> Iterator[RunRecord]:
        for digest in self.digests():
            record = self.get(digest)
            if record is not None:
                yield record
