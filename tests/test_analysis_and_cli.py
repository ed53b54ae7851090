"""Tests for the figure regeneration helpers, the report module and the CLI."""

import argparse
import json

import pytest

from repro.analysis import figures, report
from repro.cli import build_parser, main
from repro.core.schemes import no_sleep, soi
from repro.traces.synthetic import generate_crawdad_like_trace


@pytest.fixture(scope="module")
def small_trace():
    return generate_crawdad_like_trace(seed=9, num_clients=40, num_gateways=8, duration=24 * 3600.0)


def test_figure2_series_shapes():
    data = figures.figure2()
    assert len(data["hours"]) == 24
    assert len(data["avg_downlink_percent"]) == 24
    assert max(data["avg_downlink_percent"]) < 15.0


def test_figure3_uses_supplied_trace(small_trace):
    data = figures.figure3(small_trace)
    assert len(data["hours"]) == 24
    assert max(data["avg_utilization_percent"]) < 20.0


def test_figure4_histogram(small_trace):
    data = figures.figure4(small_trace)
    assert len(data["labels"]) == len(data["percent_of_idle_time"])
    assert sum(data["percent_of_idle_time"]) == pytest.approx(100.0, abs=1.0)
    assert 0.0 <= data["fraction_below_60s"] <= 1.0


def test_figure5_curves():
    data = figures.figure5(k_values=(2, 4), p_values=(0.5,), monte_carlo_trials=200)
    assert set(data) == {"p=0.5 k=2", "p=0.5 k=4"}
    entry = data["p=0.5 k=4"]
    assert len(entry["paper_eq2"]) == 4
    assert len(entry["monte_carlo"]) == 4
    # Both forms agree on the first card and decrease with the card index.
    assert entry["paper_eq2"][0] == pytest.approx(entry["exact"][0])
    assert entry["exact"][0] >= entry["exact"][-1]


def test_figure14_and_15_data():
    crosstalk = figures.figure14(num_sequences=1)
    assert len(crosstalk) == 4
    attenuation = figures.figure15()
    assert len(attenuation["card_ids"]) == 14
    assert attenuation["means_are_similar"]


def test_evaluation_scales():
    assert figures.quick_scale().num_gateways < figures.full_scale().num_gateways
    assert figures.full_scale().runs_per_scheme == 10


def test_online_cards_table_covers_a_horizon_shorter_than_the_peak():
    """A comparison that ends before the 11:00 peak averages its whole horizon."""
    scale = figures.EvaluationScale(
        num_clients=68, num_gateways=10, duration_s=6 * 3600.0, step_s=2.0, seed=2011
    )
    comparison = figures.run_evaluation(scale=scale, schemes=[no_sleep(), soi()])
    table = figures.table_online_cards(comparison)
    assert table["no-sleep"] == comparison.scenario.dslam.num_line_cards
    assert 0.0 < table["SoI"] <= table["no-sleep"]


def test_report_format_table():
    text = report.format_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "2.50" in text


def test_report_render_key_values_and_summary():
    text = report.render_key_values({"alpha": 1.234567, "beta": "hi"}, title="T")
    assert text.startswith("T")
    assert "1.235" in text
    summary = report.render_summary({"SoI": {"mean": 1.0}})
    assert "SoI" in summary
    assert report.render_summary({}) == "(no results)"


def test_cli_parser_has_all_commands():
    parser = build_parser()
    for command in ["trace", "simulate", "figure", "crosstalk", "testbed"]:
        args = parser.parse_args([command] if command != "figure" else ["figure", "5"])
        assert args.command == command


def _runnable_commands(parser, prefix=()):
    """The argv prefix of every command that runs without a subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                path = prefix + (name,)
                if not any(isinstance(a, argparse._SubParsersAction) and a.required
                           for a in sub._actions):
                    yield path
                yield from _runnable_commands(sub, path)


def test_every_command_parses_its_defaults_and_binds_a_handler():
    positionals = {("figure",): ["5"], ("obs", "export"): ["in.jsonl", "out.json"]}
    parser = build_parser()
    commands = list(_runnable_commands(parser))
    assert len(commands) == 21
    for path in commands:
        args = parser.parse_args(list(path) + positionals.get(path, []))
        assert callable(args.handler), path
    # String defaults go through the flag's type, as a typed value would.
    assert parser.parse_args(["obs", "explain"]).scheme.name == "BH2+k-switch"


def test_cli_trace_command(tmp_path, capsys):
    output = tmp_path / "trace.csv"
    code = main(["trace", "--clients", "10", "--gateways", "4", "--hours", "1", "--output", str(output)])
    assert code == 0
    assert output.exists()
    captured = capsys.readouterr().out
    assert "Synthetic trace statistics" in captured


def test_cli_figure5_json(capsys):
    code = main(["figure", "5", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert any(key.startswith("p=") for key in data)


def test_cli_unknown_scheme_errors(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--clients", "6", "--gateways", "3", "--hours", "0.2",
              "--schemes", "does-not-exist"])
    assert excinfo.value.code == 2
