"""Tests for result-store garbage collection and the new CLI surfaces.

GC reads every record and is dry-run by default: record files ``get``
rejects (corrupt records, stale store versions) and stale orphaned
``.tmp`` files are always removal candidates, and an ``apply`` pass
unlinks whole files, so a cold listing agrees with it at once.
"""

import json
import os
import time

import pytest

from repro.cli import main
from repro.sweep.store import ResultStore, RunRecord


def _record(digest, family="f", label="s", scheme="SoI"):
    return RunRecord(
        digest=digest, family=family, label=label, scheme=scheme, run_index=0,
        seed=1, duration_s=600.0, metrics={"mean_savings_percent": 1.0},
    )


def _age(store, digest, days):
    stamp = time.time() - days * 86400.0
    os.utime(store.path_for(digest), (stamp, stamp))


@pytest.fixture
def store(tmp_path):
    store = ResultStore(tmp_path / "store")
    store.put(_record("a" * 64, family="smoke"))
    store.put(_record("b" * 64, family="paper-default"))
    store.put(_record("c" * 64, family="paper-default"))
    return store


# ----------------------------------------------------------------------
# Store-level GC
# ----------------------------------------------------------------------
def test_gc_dry_run_reports_without_deleting(store):
    report = store.gc(keep_families=["smoke"])
    assert not report.applied
    assert report.examined == 3
    assert {c.digest for c in report.candidates} == {"b" * 64, "c" * 64}
    assert all("not kept" in c.reason for c in report.candidates)
    # Dry run: every record is still there.
    assert len(store.digests()) == 3
    assert store.get("b" * 64) is not None


def test_gc_apply_removes_and_rebuilds_the_manifest(store):
    report = store.gc(keep_families=["smoke"], apply=True)
    assert report.applied and report.removed == 2
    assert store.digests() == ["a" * 64]
    assert store.known_digests() == {"a" * 64}
    # A cold open agrees (the files are gone, not just forgotten).
    assert ResultStore(store.root).known_digests() == {"a" * 64}


def test_gc_max_age_days_uses_file_mtime(store):
    _age(store, "b" * 64, days=40)
    report = store.gc(max_age_days=30)
    assert [c.digest for c in report.candidates] == ["b" * 64]
    assert "older than 30" in report.candidates[0].reason
    assert report.candidates[0].age_days == pytest.approx(40, abs=0.1)
    applied = store.gc(max_age_days=30, apply=True)
    assert applied.removed == 1
    assert sorted(store.known_digests()) == ["a" * 64, "c" * 64]


def test_gc_rules_combine_as_or(store):
    _age(store, "a" * 64, days=40)  # kept family, but old
    report = store.gc(keep_families=["smoke"], max_age_days=30)
    assert {c.digest for c in report.candidates} == {"a" * 64, "b" * 64, "c" * 64}


def test_gc_without_rules_only_collects_tombstones(store):
    # A corrupt record file is the one candidate when no rule is given.
    store.path_for("d" * 64).write_text("{not json")
    report = store.gc()
    assert [c.digest for c in report.candidates] == ["d" * 64]
    assert "invalid record" in report.candidates[0].reason
    applied = store.gc(apply=True)
    assert applied.removed == 1
    assert not store.path_for("d" * 64).exists()
    assert len(store.known_digests()) == 3


def test_gc_validates_max_age(store):
    with pytest.raises(ValueError, match="max_age_days"):
        store.gc(max_age_days=-1)
    with pytest.raises(ValueError, match="tmp_grace_s"):
        store.gc(tmp_grace_s=-1)


# ----------------------------------------------------------------------
# Orphaned .tmp sweeping (a writer died between mkstemp and os.replace)
# ----------------------------------------------------------------------
def _orphan_tmp(store, digest, age_s=0.0):
    path = store.runs_dir / f".{digest[:12]}-orphan.tmp"
    path.write_text('{"digest": "%s", "metri' % digest)
    if age_s:
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
    return path


def test_gc_sweeps_stale_tmps_but_spares_fresh_ones(store):
    stale = _orphan_tmp(store, "e" * 64, age_s=7200.0)
    fresh = _orphan_tmp(store, "f" * 64)  # may be an in-flight put
    report = store.gc()
    assert report.examined == 5  # 3 records + 2 tmp files
    assert [c.filename for c in report.candidates] == [stale.name]
    assert "orphaned tmp" in report.candidates[0].reason
    assert stale.exists()  # dry run touches nothing
    applied = store.gc(apply=True)
    assert applied.removed == 1
    assert not stale.exists() and fresh.exists()
    assert len(store.known_digests()) == 3  # records untouched


def test_gc_tmp_grace_is_tunable(store):
    orphan = _orphan_tmp(store, "e" * 64, age_s=30.0)
    assert not store.gc().candidates  # default grace spares it
    report = store.gc(tmp_grace_s=0.0, apply=True)
    assert report.removed == 1 and not orphan.exists()


def test_tmp_files_do_not_break_manifest_staleness_check(store):
    _orphan_tmp(store, "e" * 64)
    # The listing counts only .json files: a tmp is never a record.
    cold = ResultStore(store.root)
    assert len(cold.known_digests()) == 3


# ----------------------------------------------------------------------
# CLI: sweep gc / schemes / wattopt
# ----------------------------------------------------------------------
def test_cli_sweep_gc_dry_run_then_apply(tmp_path, capsys):
    store = ResultStore(tmp_path / "store")
    store.put(_record("a" * 64, family="smoke"))
    store.put(_record("b" * 64, family="paper-default"))
    assert main(["sweep", "gc", "--out", str(store.root),
                 "--keep-families", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "dry run" in out
    assert "b" * 12 in out  # truncated digest of the removable record
    assert len(store.digests()) == 2  # nothing deleted
    assert main(["sweep", "gc", "--out", str(store.root),
                 "--keep-families", "smoke", "--apply"]) == 0
    out = capsys.readouterr().out
    assert "applied" in out
    assert store.digests() == ["a" * 64]


def test_cli_sweep_gc_rejects_negative_age(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "gc", "--out", str(tmp_path), "--max-age-days", "-2"])
    assert excinfo.value.code == 2
    assert "--max-age-days" in capsys.readouterr().err


def test_cli_sweep_gc_rejects_negative_tmp_grace(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "gc", "--out", str(tmp_path), "--tmp-grace", "-1"])
    assert excinfo.value.code == 2
    assert "--tmp-grace" in capsys.readouterr().err


def test_cli_sweep_gc_tmp_grace_flag(tmp_path, capsys):
    store = ResultStore(tmp_path / "store")
    store.put(_record("a" * 64, family="smoke"))
    orphan = _orphan_tmp(store, "e" * 64, age_s=30.0)
    assert main(["sweep", "gc", "--out", str(store.root),
                 "--tmp-grace", "0", "--apply"]) == 0
    out = capsys.readouterr().out
    assert "orphaned tmp" in out and orphan.name in out
    assert not orphan.exists()
    assert store.digests() == ["a" * 64]


def test_cli_schemes_lists_axes(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    for name in ["no-sleep", "BH2+k-switch", "Optimal", "optimal-watts", "bh2-watts"]:
        assert name in out
    assert "aggregation" in out and "watt-aware" in out


def test_cli_schemes_json(capsys):
    assert main(["schemes", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_name = {row["name"]: row for row in rows}
    assert by_name["optimal-watts"]["watt_aware"] is True
    assert by_name["Optimal"]["watt_aware"] is False
    assert by_name["bh2-watts"]["aggregation"] == "bh2"


def test_cli_wattopt_smoke_family(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    assert main(["wattopt", "--family", "smoke", "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "watts_saved_vs_count_kwh" in out
    assert "optimal-watts" in out
    # Same invocation again: everything served from the store.
    assert main(["wattopt", "--family", "smoke", "--out", out_dir, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {row["watt_scheme"] for row in rows} == {"optimal-watts", "bh2-watts"}
    for row in rows:
        assert "watts_saved_vs_count_kwh" in row


def test_cli_wattopt_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["wattopt", "--family", "nope"])
    assert excinfo.value.code == 2
    assert "unknown scenario family" in capsys.readouterr().err
