"""Tests for the content-addressed result store and the run digest."""

import pytest

from repro.core.schemes import bh2_kswitch, soi
from repro.sweep.catalog import ScenarioSpec
from repro.sweep.store import (
    STORE_VERSION,
    ResultStore,
    RunRecord,
    run_digest,
)


@pytest.fixture
def spec():
    return ScenarioSpec(label="t", num_clients=6, num_gateways=3, duration_s=600.0, seed=3)


def _record(digest, **metrics):
    return RunRecord(
        digest=digest, family="f", label="s", scheme="SoI", run_index=0, seed=42,
        duration_s=600.0, metrics=metrics or {"mean_savings_percent": 12.300000000000001},
    )


def test_digest_is_stable_and_sensitive(spec):
    base = run_digest(spec, soi(), seed=1, step_s=2.0, sample_interval_s=60.0)
    assert base == run_digest(spec, soi(), seed=1, step_s=2.0, sample_interval_s=60.0)
    assert base != run_digest(spec, soi(), seed=2, step_s=2.0, sample_interval_s=60.0)
    assert base != run_digest(spec, soi(), seed=1, step_s=1.0, sample_interval_s=60.0)
    assert base != run_digest(spec, bh2_kswitch(), seed=1, step_s=2.0, sample_interval_s=60.0)


def test_digest_ignores_the_label(spec):
    relabelled = ScenarioSpec(
        label="other", num_clients=6, num_gateways=3, duration_s=600.0, seed=3
    )
    assert run_digest(spec, soi(), 1, 2.0, 60.0) == run_digest(relabelled, soi(), 1, 2.0, 60.0)


def test_digest_sees_scheme_internals(spec):
    assert run_digest(spec, bh2_kswitch(backup=1).with_name("x"), 1, 2.0, 60.0) != \
        run_digest(spec, bh2_kswitch(backup=2).with_name("x"), 1, 2.0, 60.0)


def test_roundtrip_preserves_floats_exactly(tmp_path):
    store = ResultStore(tmp_path / "store")
    record = _record("a" * 64, mean_savings_percent=0.1 + 0.2, peak_online_gateways=7.0)
    store.put(record)
    loaded = store.get("a" * 64)
    assert loaded is not None
    assert loaded.metrics["mean_savings_percent"] == record.metrics["mean_savings_percent"]
    assert loaded == record


def test_miss_on_absent_corrupt_or_mismatched(tmp_path):
    store = ResultStore(tmp_path)
    assert store.get("b" * 64) is None
    # Truncated file (a crash mid-write of a non-atomic writer).
    store.path_for("c" * 64).write_text('{"digest": "c')
    assert store.get("c" * 64) is None
    # Digest mismatch (renamed file).
    store.put(_record("d" * 64))
    store.path_for("d" * 64).rename(store.path_for("e" * 64))
    assert store.get("e" * 64) is None
    # Version mismatch.
    record = _record("f" * 64)
    record.store_version = STORE_VERSION + 1
    store.put(record)
    assert store.get("f" * 64) is None


def test_put_is_atomic_and_leaves_no_temp_files(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    store.put(_record("a" * 64))  # overwrite is fine
    leftovers = [p for p in store.runs_dir.iterdir() if p.suffix != ".json"]
    assert leftovers == []
    assert len(store) == 1


def test_iteration_skips_incomplete_records(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    store.path_for("b" * 64).write_text("not json")
    assert [r.digest for r in store] == ["a" * 64]
    assert len(store) == 2  # digests() counts files; iteration validates


# ----------------------------------------------------------------------
# Store-wide manifest
# ----------------------------------------------------------------------
def test_put_appends_to_the_manifest(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    store.put(_record("b" * 64))
    assert store.manifest_path.exists()
    assert store.known_digests() == {"a" * 64, "b" * 64}
    summary = store.manifest()["a" * 64]
    assert summary["family"] == "f"
    assert summary["scheme"] == "SoI"
    # Metrics stay out of the manifest: it is a listing, not a cache.
    assert "metrics" not in summary


def test_cold_listing_reads_the_manifest_without_opening_records(tmp_path):
    store = ResultStore(tmp_path)
    for digest in ["a" * 64, "b" * 64, "c" * 64]:
        store.put(_record(digest))
    cold = ResultStore(tmp_path)
    assert cold.known_digests() == set(store.digests())


def test_missing_manifest_is_rebuilt_lazily(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    store.put(_record("b" * 64))
    store.manifest_path.unlink()
    cold = ResultStore(tmp_path)
    assert cold.known_digests() == {"a" * 64, "b" * 64}
    assert cold.manifest_path.exists()  # rebuilt and persisted


def test_stale_manifest_is_rebuilt_when_counts_disagree(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    # Simulate a crash between the record write and the manifest append: a
    # second record file exists that the manifest has never heard of.
    other = ResultStore(tmp_path / "other")
    other.put(_record("b" * 64))
    other.path_for("b" * 64).rename(store.path_for("b" * 64))
    cold = ResultStore(tmp_path)
    assert cold.known_digests() == {"a" * 64, "b" * 64}


def test_torn_manifest_lines_are_ignored(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    with open(store.manifest_path, "a") as handle:
        handle.write('{"digest": "tru')  # torn append
    cold = ResultStore(tmp_path)
    assert cold.known_digests() == {"a" * 64}


def test_invalid_record_files_are_tombstoned_not_rebuilt_forever(tmp_path):
    """One corrupt record must not force a manifest rebuild on every cold
    open: it gets an ``invalid`` tombstone entry so the counts keep
    matching."""
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    store.path_for("b" * 64).write_text("not json")
    first = ResultStore(tmp_path)
    assert first.known_digests() == {"a" * 64}  # tombstone excluded
    stamp = first.manifest_path.stat().st_mtime_ns
    second = ResultStore(tmp_path)
    assert second.known_digests() == {"a" * 64}
    assert second.manifest_path.stat().st_mtime_ns == stamp  # no rewrite


def test_overwriting_puts_do_not_duplicate_manifest_lines(tmp_path):
    record = _record("a" * 64)
    ResultStore(tmp_path).put(record)
    for _ in range(3):  # e.g. repeated --no-resume sweeps, cold each time
        ResultStore(tmp_path).put(record)
    lines = [l for l in ResultStore(tmp_path).manifest_path.read_text().splitlines() if l]
    assert len(lines) == 1


def test_manifest_membership_is_advisory_only(tmp_path):
    """A manifest entry whose record file vanished must not fabricate a
    cache hit: get() stays authoritative."""
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    assert "a" * 64 in store.known_digests()
    store.path_for("a" * 64).unlink()
    assert store.get("a" * 64) is None
