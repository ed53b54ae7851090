"""CLI error paths, the sweep subcommand, and cross-process seeding."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.simulation.runner import scheme_run_seed

SRC = str(Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# Error paths
# ----------------------------------------------------------------------
def _usage_error(capsys, argv):
    """The stderr of a ``main(argv)`` that argparse rejects with status 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def test_simulate_unknown_scheme_exits_2_with_message(capsys):
    err = _usage_error(capsys, ["simulate", "--clients", "6", "--gateways", "3",
                                "--hours", "0.2", "--schemes", "does-not-exist"])
    assert "unknown scheme" in err
    assert "known schemes:" in err


def test_sweep_unknown_family_exits_2_with_message(capsys):
    err = _usage_error(capsys, ["sweep", "--family", "does-not-exist"])
    assert "unknown scenario family" in err
    assert "paper-default" in err


def test_sweep_unknown_scheme_exits_2_with_message(capsys):
    err = _usage_error(capsys, ["sweep", "--family", "smoke", "--schemes", "does-not-exist"])
    assert "unknown scheme" in err


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--family", "smoke", "--runs", "0"], "--runs"),
    (["sweep", "--family", "smoke", "--step", "0"], "--step"),
    (["sweep", "--family", "smoke", "--sample", "-1"], "--sample"),
    (["sweep", "--family", "smoke", "--workers", "0"], "--workers"),
    (["simulate", "--runs", "0"], "--runs"),
    (["simulate", "--step", "0"], "--step"),
    (["simulate", "--clients", "0"], "--clients"),
    (["simulate", "--gateways", "0"], "--gateways"),
    (["simulate", "--hours", "0"], "--hours"),
    (["trace", "--clients", "0"], "--clients"),
    (["trace", "--hours", "-1"], "--hours"),
    (["fleet", "--gateways", "0"], "--gateways"),
    (["crosstalk", "--sequences", "0"], "--sequences"),
    (["obs", "trace", "--max-events", "0"], "--max-events"),
    (["obs", "top", "--interval", "0"], "--interval"),
    (["obs", "explain", "--step", "0"], "--step"),
])
def test_sweep_invalid_numeric_flags_exit_2(capsys, argv, flag):
    err = _usage_error(capsys, argv)
    assert f"argument {flag}: must be positive" in err


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--seed", "-1"], "--seed"),
    (["testbed", "--seed", "-1"], "--seed"),
    (["obs", "explain", "--run-index", "-1"], "--run-index"),
    (["sweep", "--retry-backoff", "-1"], "--retry-backoff"),
])
def test_negative_values_exit_2(capsys, argv, flag):
    err = _usage_error(capsys, argv)
    assert f"argument {flag}: must be non-negative" in err


def test_bad_names_are_usage_errors(capsys):
    assert "unknown churn pattern" in _usage_error(capsys, ["fleet", "--churn", "nope"])
    assert "unknown scenario family" in _usage_error(
        capsys, ["obs", "explain", "--family", "nope"])
    assert "invalid int value" in _usage_error(capsys, ["sweep", "--runs", "x"])


def test_unknown_command_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The sweep subcommand
# ----------------------------------------------------------------------
def test_sweep_list_families(capsys):
    assert main(["sweep", "--list-families"]) == 0
    out = capsys.readouterr().out
    for name in ["paper-default", "dense-urban", "sparse-rural", "diurnal-office",
                 "flash-crowd", "backhaul-sensitivity", "smoke"]:
        assert name in out


def test_sweep_smoke_family_end_to_end(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    args = ["sweep", "--family", "smoke", "--step", "10", "--out", out_dir,
            "--schemes", "no-sleep,SoI"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "== smoke ==" in first
    assert "cache_hit_percent : 0.000" in first
    # Second invocation: everything served from the result store.
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "cache_hit_percent : 100.000" in second
    assert "executed          : 0" in second


def test_sweep_json_output(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    assert main(["sweep", "--family", "smoke", "--step", "10", "--out", out_dir,
                 "--schemes", "SoI", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accounting"]["grid_runs"] == 1
    assert payload["aggregates"][0]["family"] == "smoke"
    assert "mean_savings_percent" in payload["runs"][0]["metrics"]


# ----------------------------------------------------------------------
# Resilience flags
# ----------------------------------------------------------------------
def test_sweep_rejects_bad_chaos_spec(capsys):
    assert main(["sweep", "--family", "smoke", "--chaos", "explode=1"]) == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_sweep_rejects_bad_retry_policy(capsys):
    err = _usage_error(capsys, ["sweep", "--family", "smoke", "--retries", "-1"])
    assert "--retries" in err and "must be non-negative" in err
    err = _usage_error(capsys, ["sweep", "--family", "smoke", "--task-timeout", "0"])
    assert "--task-timeout" in err and "must be positive" in err


def test_sweep_chaos_flags_end_to_end(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    assert main(["sweep", "--family", "smoke", "--step", "10", "--out", out_dir,
                 "--schemes", "no-sleep,SoI",
                 "--chaos", "raise=1,torn=1", "--chaos-seed", "3",
                 "--retries", "2"]) == 0
    out = capsys.readouterr().out
    assert "retries" in out and "worker_respawns" in out
    # The chaos-battered store serves a clean re-run entirely from cache.
    assert main(["sweep", "--family", "smoke", "--step", "10", "--out", out_dir,
                 "--schemes", "no-sleep,SoI"]) == 0
    assert "cache_hit_percent : 100.000" in capsys.readouterr().out


def test_sweep_keep_going_exits_nonzero_naming_failed_cells(tmp_path, capsys):
    assert main(["sweep", "--family", "smoke", "--step", "10",
                 "--out", str(tmp_path / "store"), "--schemes", "no-sleep,SoI",
                 "--chaos", "raise=1", "--retries", "0", "--keep-going"]) == 1
    captured = capsys.readouterr()
    assert "failed grid cells" in captured.out  # ledger table in the report
    assert "1 grid cell(s) failed after retries: smoke/" in captured.err


def test_sweep_abort_without_keep_going_exits_1(tmp_path, capsys):
    assert main(["sweep", "--family", "smoke", "--step", "10",
                 "--out", str(tmp_path / "store"), "--schemes", "no-sleep,SoI",
                 "--chaos", "raise=1", "--retries", "0"]) == 1
    err = capsys.readouterr().err
    assert "failed after retries" in err
    assert "--keep-going" in err


def test_sweep_ctrl_c_reports_persisted_count(monkeypatch, capsys, tmp_path):
    from repro.resilience import SweepInterrupted

    def fake_run_sweep(*args, **kwargs):
        raise SweepInterrupted(completed=3, outstanding=2)

    monkeypatch.setattr("repro.sweep.engine.run_sweep", fake_run_sweep)
    monkeypatch.setattr("repro.sweep.run_sweep", fake_run_sweep)
    out = str(tmp_path / "store")
    assert main(["sweep", "--family", "smoke", "--out", out]) == 130
    err = capsys.readouterr().err
    assert "3 fresh run(s) were persisted" in err
    assert "resume-safe" in err


# ----------------------------------------------------------------------
# Seeding is deterministic across interpreter processes
# ----------------------------------------------------------------------
def test_scheme_run_seed_is_identical_across_processes():
    triples = [(0, 0, "SoI"), (2011, 3, "BH2+k-switch"), (7, 9, "no-sleep")]
    expected = [scheme_run_seed(*t) for t in triples]
    script = (
        "import json, sys\n"
        "from repro.simulation.runner import scheme_run_seed\n"
        "triples = json.loads(sys.argv[1])\n"
        "print(json.dumps([scheme_run_seed(b, r, s) for b, r, s in triples]))\n"
    )
    for hash_seed in ("0", "1", "random"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
        output = subprocess.run(
            [sys.executable, "-c", script, json.dumps(triples)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(output) == expected


# ----------------------------------------------------------------------
# Observability: sweep --trace and the obs command group
# ----------------------------------------------------------------------
def test_sweep_trace_writes_perfetto_trace_and_ledger(tmp_path, capsys):
    out_dir = tmp_path / "store"
    trace = tmp_path / "trace.json"
    assert main(["sweep", "--family", "smoke", "--step", "10",
                 "--out", str(out_dir), "--schemes", "no-sleep,SoI",
                 "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "trace written to" in captured.err
    assert "observability metrics" in captured.out
    payload = json.loads(trace.read_text())
    names = {event["name"] for event in payload["traceEvents"]}
    assert "task.run" in names and "store.put" in names
    # The timing ledger has one line per record file (fresh sweep).
    timings = (out_dir / "timings.jsonl").read_text().splitlines()
    records = list((out_dir / "runs").glob("*.json"))
    assert len([l for l in timings if l]) == len(records) == 2


def test_sweep_trace_jsonl_extension_writes_events(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["sweep", "--family", "smoke", "--step", "10",
                 "--out", str(tmp_path / "store"), "--schemes", "SoI",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    lines = [line for line in trace.read_text().splitlines() if line]
    assert lines and all("name" in json.loads(line) for line in lines)


def test_obs_trace_end_to_end(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(["obs", "trace", "--clients", "12", "--gateways", "4",
                 "--hours", "0.5", "--step", "5",
                 "--output", str(trace)]) == 0
    captured = capsys.readouterr()
    assert "Traced run" in captured.out
    assert "trace written to" in captured.err
    assert trace.is_file()


def test_obs_trace_unknown_scheme_exits_2(capsys):
    assert "unknown scheme" in _usage_error(capsys, ["obs", "trace", "--scheme", "nope"])


def test_obs_summary_tabulates_ledger(tmp_path, capsys):
    out_dir = str(tmp_path / "store")
    assert main(["sweep", "--family", "smoke", "--step", "10",
                 "--out", out_dir, "--schemes", "no-sleep,SoI"]) == 0
    capsys.readouterr()
    assert main(["obs", "summary", "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "Sweep timing ledger" in out and "no-sleep" in out
    assert main(["obs", "summary", "--out", out_dir, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 2
    assert {group["scheme"] for group in payload["groups"]} == {"no-sleep", "SoI"}


def test_obs_summary_without_ledger_is_friendly(tmp_path, capsys):
    (tmp_path / "empty" / "runs").mkdir(parents=True)
    assert main(["obs", "summary", "--out", str(tmp_path / "empty")]) == 0
    assert "no timing ledger" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["sweep", "gc"],
    ["obs", "summary"],
    ["obs", "top", "--once"],
    ["obs", "query"],
    ["obs", "drift"],
])
def test_read_only_commands_refuse_a_missing_store(tmp_path, capsys, command):
    typo = str(tmp_path / "typo")
    assert main(command + ["--out", typo]) == 2
    assert f"no result store at {typo}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_obs_query_and_drift_read_the_stores(tmp_path, capsys):
    serial, copy = str(tmp_path / "serial"), str(tmp_path / "copy")
    assert main(["sweep", "--family", "smoke", "--step", "10",
                 "--out", serial, "--schemes", "no-sleep,SoI"]) == 0
    shutil.copytree(serial, copy)
    capsys.readouterr()
    assert main(["obs", "query", "--out", serial, "--out", copy, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4
    assert {row["store"] for row in payload["rows"]} == {serial, copy}
    assert main(["obs", "drift", "--out", serial, "--out", copy]) == 0
    assert "no drift" in capsys.readouterr().out
    assert main(["obs", "drift", "--out", serial]) == 2
    assert "at least twice" in capsys.readouterr().err


def test_obs_export_round_trip(tmp_path, capsys):
    source = tmp_path / "events.jsonl"
    source.write_text(
        '{"name": "a", "ts": 1.0, "ph": "i", "clock": "sim", "cat": "t", '
        '"tid": 0, "args": {}}\n{"torn": \n'
    )
    target = tmp_path / "chrome.json"
    assert main(["obs", "export", str(source), str(target)]) == 0
    assert "wrote" in capsys.readouterr().out
    payload = json.loads(target.read_text())
    assert any(event["name"] == "a" for event in payload["traceEvents"])


def test_obs_export_missing_input_exits_2(tmp_path, capsys):
    assert main(["obs", "export", str(tmp_path / "absent.jsonl"),
                 str(tmp_path / "out.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
