"""Tests for the content-addressed result store and the run digest."""

import gc
import warnings

import pytest

from repro.core.schemes import bh2_kswitch, soi
from repro.sweep.catalog import ScenarioFamily, ScenarioSpec
from repro.sweep.engine import SweepConfig, run_sweep
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
# runs/ is the only index
# ----------------------------------------------------------------------
def test_cold_listing_reads_the_manifest_without_opening_records(tmp_path):
    store = ResultStore(tmp_path)
    for digest in ["a" * 64, "b" * 64, "c" * 64]:
        store.put(_record(digest))
    cold = ResultStore(tmp_path)
    assert cold.known_digests() == set(store.digests())


def test_stale_manifest_is_rebuilt_when_counts_disagree(tmp_path):
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    # A record file another store wrote is listed as soon as it lands.
    other = ResultStore(tmp_path / "other")
    other.put(_record("b" * 64))
    other.path_for("b" * 64).rename(store.path_for("b" * 64))
    cold = ResultStore(tmp_path)
    assert cold.known_digests() == {"a" * 64, "b" * 64}


def test_manifest_membership_is_advisory_only(tmp_path):
    """A listed digest whose record file vanished must not fabricate a
    cache hit: get() stays authoritative."""
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    assert "a" * 64 in store.known_digests()
    store.path_for("a" * 64).unlink()
    assert store.get("a" * 64) is None


def test_a_sweep_store_holds_only_runs_and_the_timings_ledger(tmp_path):
    family = ScenarioFamily(
        name="tiny", description="test family",
        base=ScenarioSpec(label="tiny", num_clients=6, num_gateways=3,
                          duration_s=900.0, seed=3),
    )
    store = ResultStore(tmp_path / "store")
    result = run_sweep(families=[family], schemes=[soi()],
                       config=SweepConfig(runs_per_scheme=2, step_s=5.0),
                       store=store, workers=1)
    assert result.executed == 2
    assert sorted(p.name for p in store.root.iterdir()) == ["runs", "timings.jsonl"]


def test_a_store_leaves_no_file_open(tmp_path):
    gc.collect()  # earlier tests' garbage is not this store's to answer for
    store = ResultStore(tmp_path)
    store.put(_record("a" * 64))
    store.append_timing({"digest": "a" * 64, "run_s": 0.5})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del store
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
