"""Command-line interface: ``repro-access <command>``.

Commands
--------

``trace``      generate a synthetic trace and print its aggregate statistics
``simulate``   run the scheme comparison and print the savings summary
``schemes``    list every registered scheme and its behavioural axes
``sweep``      run the scenario-catalog sweep (cached, resumable)
``sweep gc``   trim the sweep result store (dry run by default)
``regress``    check/update committed metric baselines and Pareto fronts
``obs``        trace a run, summarise sweep timings, export Perfetto traces
``wattopt``    count-vs-watt objective gap of the watt-aware schemes
``fleet``      inspect gateway generations, fleet mixes and churn patterns
``figure``     regenerate the data behind one of the paper's figures
``crosstalk``  run the Fig. 14 crosstalk speedup experiment
``testbed``    run the Fig. 12 testbed replay

Each flag's ``type`` checks its value, so a bad value is a usage error
(exit status 2) that names the flag; each command parser binds its
handler with ``set_defaults(handler=...)``, which :func:`main` calls.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis import report
from repro.core.schemes import all_schemes, standard_schemes
from repro.simulation.metrics import summarize_savings
from repro.traces.io import write_trace
from repro.traces.models import TraceStats
from repro.traces.synthetic import generate_crawdad_like_trace

_STORE_HELP = "result-store directory (default: ./sweep-results)"
_SHARED_STORE_HELP = "result-store directory shared with 'sweep' (default: ./sweep-results)"


# ----------------------------------------------------------------------
# Argument types
# ----------------------------------------------------------------------
def _checked(convert, requirement: str, holds):
    """An argparse ``type``: ``convert`` the text, then reject a value that
    does not satisfy ``holds`` (argparse prefixes the flag's name)."""

    def check(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {requirement} (got {value})")
        return value

    # argparse names the type in its "invalid int value: 'x'" message.
    check.__name__ = convert.__name__
    return check


_positive_int = _checked(int, "positive", lambda value: value > 0)
_positive_float = _checked(float, "positive", lambda value: value > 0)
_non_negative_int = _checked(int, "non-negative", lambda value: value >= 0)
_non_negative_float = _checked(float, "non-negative", lambda value: value >= 0)


def _scheme(name: str):
    """The registered scheme called ``name``."""
    known = all_schemes()
    if name not in known:
        raise argparse.ArgumentTypeError(
            f"unknown scheme '{name}'; known schemes: {', '.join(known)}"
        )
    return known[name]


def _schemes(names: str):
    """The registered schemes of a comma-separated list."""
    return [_scheme(name.strip()) for name in names.split(",")]


def _family(name: str) -> str:
    """A registered scenario family name."""
    from repro.sweep import family_names

    known = family_names()
    if name not in known:
        raise argparse.ArgumentTypeError(
            f"unknown scenario family '{name}'; known families: {', '.join(known)}"
        )
    return name


def _churn_pattern(name: str) -> str:
    """A registered churn pattern name."""
    from repro.fleet import churn_pattern_names

    known = churn_pattern_names()
    if name not in known:
        raise argparse.ArgumentTypeError(
            f"unknown churn pattern '{name}'; known patterns: {', '.join(known)}"
        )
    return name


# ----------------------------------------------------------------------
# Shared flags
# ----------------------------------------------------------------------
def _add_command(subparsers, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Add the ``name`` subcommand and bind the handler :func:`main` calls."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler)
    return parser


def _add_scale_options(parser, clients, gateways, hours, step, seed) -> None:
    """The population flags; ``step=None`` leaves out ``--step``."""
    parser.add_argument("--clients", type=_positive_int, default=clients)
    parser.add_argument("--gateways", type=_positive_int, default=gateways)
    parser.add_argument("--hours", type=_positive_float, default=hours)
    if step is not None:
        parser.add_argument("--step", type=_positive_float, default=step)
    parser.add_argument("--seed", type=_non_negative_int, default=seed)


def _add_store_option(parser, store_help: str) -> None:
    parser.add_argument("--out", default="sweep-results", metavar="DIR", help=store_help)


def _add_grid_options(parser, families_help: str, store_help: str) -> None:
    """The sweep-grid flags of ``sweep``, ``regress`` and ``wattopt``."""
    parser.add_argument("--family", action="append", type=_family, metavar="NAME",
                        help=f"scenario family to include (repeatable; default: {families_help})")
    parser.add_argument("--runs", type=_positive_int, default=1, help="repetitions per scheme")
    parser.add_argument("--step", type=_positive_float, default=2.0, help="simulation step (s)")
    parser.add_argument("--sample", type=_positive_float, default=60.0,
                        help="metric sampling interval (s)")
    parser.add_argument("--workers", type=_positive_int,
                        help="shard the grid over this many processes "
                        "(aggregates are identical to a serial run; default: serial)")
    _add_store_option(parser, store_help)


def _add_schemes_option(parser) -> None:
    parser.add_argument("--schemes", type=_schemes,
                        help="comma-separated scheme names (default: the Fig. 6 set); "
                        f"known: {', '.join(all_schemes())}")


def _add_json_option(parser, what: str) -> None:
    parser.add_argument("--json", action="store_true", help=f"print {what} as JSON")


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def _add_trace_parser(subparsers) -> None:
    parser = _add_command(subparsers, "trace", _cmd_trace,
                          help="generate a synthetic wireless trace")
    _add_scale_options(parser, clients=272, gateways=40, hours=24.0, step=None, seed=2011)
    parser.add_argument("--output", help="write the trace as CSV")


def _add_simulate_parser(subparsers) -> None:
    parser = _add_command(subparsers, "simulate", _cmd_simulate,
                          help="run the scheme comparison")
    _add_scale_options(parser, clients=68, gateways=10, hours=4.0, step=2.0, seed=7)
    parser.add_argument("--runs", type=_positive_int, default=1)
    _add_schemes_option(parser)


def _add_sweep_parser(subparsers) -> None:
    from repro.sweep import family_names

    parser = _add_command(
        subparsers, "sweep", _cmd_sweep,
        help="run the scenario-catalog sweep with result-store caching",
        description="Expand the selected scenario families into their "
        "parameter grids, run every scenario x scheme x repetition cell "
        "(serving cached cells from the result store), and print "
        "cross-scenario savings tables.",
    )
    _add_grid_options(parser, f"all; known: {', '.join(family_names())}", _STORE_HELP)
    parser.add_argument("--list-families", action="store_true",
                        help="list the registered scenario families and exit")
    parser.add_argument("--resume", action=argparse.BooleanOptionalAction, default=True,
                        help="serve runs already in the result store from cache "
                        "(--no-resume forces recomputation; the store is still updated)")
    _add_schemes_option(parser)
    _add_json_option(parser, "the sweep result")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a structured trace of the sweep and write it here: "
                        "a .jsonl path gets JSONL events, anything else Chrome "
                        "trace-event JSON loadable in Perfetto (sim-time kernel events "
                        "are captured on serial sweeps; wall-clock spans always)")
    parser.add_argument("--watch", action="store_true",
                        help="render a live progress dashboard on stderr while the sweep "
                        "runs (in-place on a TTY; plain '[watch]' lines on pipes/CI); "
                        "purely observational — results and stored bytes are unchanged")
    resilience = parser.add_argument_group(
        "resilience",
        "supervised execution: timeouts, retries, and deterministic chaos "
        "(retried cells reuse their seeds, so a rescued sweep's store is "
        "bit-identical to a clean run's)",
    )
    resilience.add_argument("--task-timeout", type=_positive_float, metavar="S",
                            help="kill and retry any task running longer than S seconds "
                            "(enforced on worker processes; unenforceable when serial)")
    resilience.add_argument("--retries", type=_non_negative_int, default=2, metavar="N",
                            help="retry budget per grid cell (default: 2)")
    resilience.add_argument("--retry-backoff", type=_non_negative_float, default=0.0, metavar="S",
                            help="base of the deterministic exponential backoff before each "
                            "retry (default: 0, retry immediately)")
    resilience.add_argument("--keep-going", action="store_true",
                            help="when a cell exhausts its retries, finish the rest of the "
                            "grid, print partial aggregates, and exit non-zero naming the "
                            "failed cells (default: abort on the first exhausted cell)")
    resilience.add_argument("--chaos", metavar="SPEC",
                            help="inject deterministic faults into the run, e.g. "
                            "'crash=1,hang=1,raise=1,torn=1' — a drill for the harness, "
                            "not the physics; pair with --task-timeout for hangs")
    resilience.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                            help="victim-selection seed of the chaos plan (default: 0)")
    sweep_sub = parser.add_subparsers(dest="sweep_command", metavar="[gc]")
    gc_parser = _add_command(
        sweep_sub, "gc", _cmd_sweep_gc,
        help="trim the result store (dry run unless --apply)",
        description="Garbage-collect the sweep result store, reading every "
        "record: --keep-families removes records of every other family, "
        "--max-age-days removes records older than N days, and invalid "
        "record files (corrupt, stale store versions) are always removal "
        "candidates.  Dry run by default; pass --apply to actually delete.",
    )
    _add_store_option(gc_parser, _STORE_HELP)
    gc_parser.add_argument("--keep-families", nargs="+", metavar="NAME",
                           help="families to keep; records of any other family are removed")
    gc_parser.add_argument("--max-age-days", type=_non_negative_float, metavar="DAYS",
                           help="remove records older than this many days (by file mtime)")
    gc_parser.add_argument("--tmp-grace", type=_non_negative_float, metavar="S",
                           help="treat orphaned runs/*.tmp files older than S seconds as "
                           "removal candidates (default: 3600; younger ones may be a "
                           "concurrent sweep's in-flight write)")
    gc_parser.add_argument("--apply", action="store_true",
                           help="actually delete (default: dry run, print what would go)")


def _add_regress_parser(subparsers) -> None:
    from repro.regress.baseline import DEFAULT_REGRESS_FAMILIES

    parser = subparsers.add_parser(
        "regress",
        help="check/update committed metric baselines and Pareto fronts",
        description="The regression gate: run (or resume from the result "
        "store) the smoke-scale scenario families, diff every metric cell "
        "and the cross-family Pareto-front membership against the "
        "committed baselines/ files, and exit non-zero on regression. "
        "'update' re-exports the committed files after an intentional "
        "metric change; 'pareto' prints/exports the fronts.",
    )
    regress_sub = parser.add_subparsers(
        dest="regress_command", required=True,
        metavar="check|update|pareto|history",
    )
    baselines = argparse.ArgumentParser(add_help=False)
    baselines.add_argument("--baselines", default="baselines", metavar="DIR",
                           help="committed baseline directory (default: ./baselines)")
    grid = argparse.ArgumentParser(add_help=False)
    _add_grid_options(grid, ", ".join(DEFAULT_REGRESS_FAMILIES), _SHARED_STORE_HELP)

    check = _add_command(
        regress_sub, "check", _cmd_regress_check,
        parents=[grid, baselines],
        help="diff a fresh run against the committed baselines (gate)",
        description="Exit 0 when every cell is identical / improved / "
        "new; exit 1 naming the offending cells "
        "when any metric regressed, a committed cell went missing, or a "
        "committed Pareto-front member fell off the front.",
    )
    check.add_argument("--no-families", action="store_true",
                       help="skip the sweep-family metric checks")
    check.add_argument("--no-pareto", action="store_true",
                       help="skip the Pareto-front membership check")
    check.add_argument("--strict", action="store_true",
                       help="treat 'improved' cells as gate failures too "
                       "(forces baselines to be updated in the same PR)")
    check.add_argument("--report", metavar="PATH",
                       help="write the machine-readable JSON report here")
    check.add_argument("--summary", metavar="PATH",
                       help="append a markdown summary here (GITHUB_STEP_SUMMARY)")
    check.add_argument("--verbose", action="store_true",
                       help="tabulate identical cells too")
    _add_json_option(check, "the machine-readable report")
    check.add_argument("--no-history", action="store_true",
                       help="do not append this run to baselines/history.jsonl")

    _add_command(
        regress_sub, "update", _cmd_regress_update,
        parents=[grid, baselines],
        help="re-export the committed baselines from a fresh run",
        description="Run (or resume) the selected families and rewrite "
        "baselines/<family>.json plus baselines/pareto.json.  The diff of "
        "baselines/ is the reviewable record of the metric change.",
    )

    pareto = _add_command(
        regress_sub, "pareto", _cmd_regress_pareto,
        parents=[grid, baselines],
        help="compute and print/export the cross-family Pareto fronts",
        description="Compute the savings-vs-peak-online and "
        "watt-energy-vs-served fronts over the selected families and "
        "print every point with its front membership.",
    )
    pareto.add_argument("--export", metavar="PATH",
                        help="write the fronts payload as JSON here")
    _add_json_option(pareto, "the fronts payload")

    history = _add_command(
        regress_sub, "history", _cmd_regress_history,
        parents=[baselines],
        help="print the gate's historical trajectory",
        description="Print the baselines/history.jsonl ledger that "
        "'regress check' appends to — one record per gate run with its "
        "timestamp, commit sha, verdict and per-family metric-cell "
        "counts, so coverage shrinkage is visible over time.",
    )
    history.add_argument("--last", type=int, metavar="N",
                         help="show only the most recent N records")
    _add_json_option(history, "the records")


def _add_obs_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "obs",
        help="trace runs, summarise timings, query stores, explain kWh",
        description="The observability toolbox: 'trace' runs one traced "
        "simulation and exports its structured event trace; 'summary' "
        "tabulates the per-run timings.jsonl ledger a sweep store keeps "
        "beside its records; 'export' converts a JSONL event trace to "
        "Chrome trace-event JSON loadable in Perfetto or chrome://tracing; "
        "'query' lists the records of sweep stores and 'drift' compares "
        "their metrics; 'explain' decomposes a run's energy savings into a "
        "waterfall vs its no-sleep twin; 'top' renders a store's progress.",
    )
    obs_sub = parser.add_subparsers(
        dest="obs_command",
        required=True,
        metavar="trace|summary|export|query|drift|explain|top",
    )

    trace = _add_command(
        obs_sub, "trace", _cmd_obs_trace,
        help="run one traced simulation and export the trace",
        description="Run a single scheme over the evaluation scenario with "
        "a SimTracer attached (traced runs are bit-identical to untraced "
        "ones), write the trace, and print its event counts.",
    )
    trace.add_argument("--scheme", type=_scheme, default="BH2+k-switch",
                       help=f"scheme to trace; known: {', '.join(all_schemes())}")
    _add_scale_options(trace, clients=68, gateways=10, hours=4.0, step=2.0, seed=7)
    trace.add_argument("--max-events", type=_positive_int, metavar="N",
                       help="trace buffer bound (excess events are counted, "
                       "not stored; default: 200000)")
    trace.add_argument("--output", default="trace.json", metavar="PATH",
                       help="where to write the trace: a .jsonl path gets JSONL events, "
                       "anything else Chrome trace-event JSON (default: ./trace.json)")

    summary = _add_command(
        obs_sub, "summary", _cmd_obs_summary,
        help="tabulate a sweep store's timings.jsonl ledger",
        description="Aggregate the per-run build/run wall-clock ledger of "
        "a sweep result store per family x scheme: runs, attempts, and "
        "where the wall-clock went.",
    )
    _add_store_option(summary, _SHARED_STORE_HELP)
    summary.add_argument("--by", choices=("scheme", "family"), default="scheme",
                         help="grouping: 'scheme' = one row per family x scheme (default); "
                         "'family' = one row per family")
    _add_json_option(summary, "the aggregate rows")

    export = _add_command(
        obs_sub, "export", _cmd_obs_export,
        help="convert a JSONL trace to Chrome trace-event JSON",
        description="Convert a JSONL event trace (from 'obs trace' or "
        "'sweep --trace') into Chrome trace-event JSON loadable in "
        "Perfetto; torn or malformed lines are skipped, not fatal.",
    )
    export.add_argument("input", help="JSONL trace to read")
    export.add_argument("output", help="Chrome trace-event JSON to write")

    query = _add_command(
        obs_sub, "query", _cmd_obs_query,
        help="list the run records of one or more sweep stores",
        description="List the records of every --out store by family, "
        "scheme, scenario label or digest prefix; --metric pulls one "
        "stored metric column out of each run's metrics payload. Record "
        "files the store cannot read are skipped.",
    )
    query.add_argument("--out", action="append", metavar="DIR",
                       help="result-store directory, repeatable "
                       "(default: ./sweep-results)")
    query.add_argument("--family")
    query.add_argument("--scheme")
    query.add_argument("--label")
    query.add_argument("--digest", metavar="PREFIX")
    query.add_argument("--metric", metavar="NAME",
                       help="also show this metric from each run's payload")
    query.add_argument("--limit", type=int, metavar="N",
                       help="show at most N rows (the count is still total)")
    _add_json_option(query, "the rows")

    drift = _add_command(
        obs_sub, "drift", _cmd_obs_drift,
        help="flag digests whose stored metrics differ between stores",
        description="Compare every digest that two or more --out stores "
        "hold against the first store holding it: metrics must be "
        "bit-identical (a difference means the kernel silently changed "
        "its answers between the sweeps that wrote the stores).",
    )
    drift.add_argument("--out", action="append", metavar="DIR",
                       help="result-store directory; give at least two")
    _add_json_option(drift, "the findings")

    explain = _add_command(
        obs_sub, "explain", _cmd_obs_explain,
        help="decompose a run's kWh savings vs its no-sleep twin",
        description="Run one grid cell and its no-sleep twin at the same "
        "seed, then decompose the kWh delta into a savings waterfall: "
        "gross sleep savings, standby draw, wake/boot penalties and "
        "churn-forced wakes per device generation, plus direct ISP-side "
        "deltas. The waterfall sums exactly to the total delta.",
    )
    explain.add_argument("--family", type=_family, default="smoke",
                         help="scenario family providing the grid cell "
                         "(default: smoke)")
    explain.add_argument("--label",
                         help="scenario label within the family "
                         "(default: the family's first scenario)")
    explain.add_argument("--scheme", type=_scheme, default="BH2+k-switch",
                         help=f"scheme to explain; known: {', '.join(all_schemes())}")
    explain.add_argument("--run-index", type=_non_negative_int, default=0, metavar="N",
                         help="repetition index (seeds match 'sweep' cells)")
    explain.add_argument("--step", type=_positive_float, default=2.0,
                         help="simulation step (s); match the sweep's --step")
    _add_json_option(explain, "the waterfall payload")

    top = _add_command(
        obs_sub, "top", _cmd_obs_top,
        help="render a sweep store's live progress from its records",
        description="Summarise a store's records and timings ledger as a "
        "progress frame — safe to point at a store another process is "
        "sweeping into. Repaints every --interval seconds; --once prints "
        "a single frame and exits (for CI and scripts).",
    )
    _add_store_option(top, _SHARED_STORE_HELP)
    top.add_argument("--interval", type=_positive_float, default=2.0, metavar="S",
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit")


def _add_schemes_parser(subparsers) -> None:
    parser = _add_command(
        subparsers, "schemes", _cmd_schemes,
        help="list every registered scheme and its behavioural axes",
        description="List the registered schemes with their sleep, "
        "aggregation, switching and watt-awareness axes — the names "
        "accepted by simulate/sweep --schemes, so a typo is "
        "self-diagnosable.",
    )
    _add_json_option(parser, "the scheme table")


def _add_wattopt_parser(subparsers) -> None:
    parser = _add_command(
        subparsers, "wattopt", _cmd_wattopt,
        help="count-vs-watt objective gap of the watt-aware schemes",
        description="Run (or resume from the result store) the watt-aware "
        "schemes beside their count-minimising twins over the selected "
        "scenario families and print the gateway energy each spent plus "
        "the watts_saved_vs_count_kwh gap per scenario.",
    )
    _add_grid_options(parser, "watt-aware", _SHARED_STORE_HELP)
    _add_json_option(parser, "the gap rows")
    parser.add_argument("--front", action="store_true",
                        help="also print the watt Pareto front "
                        "(gateway kWh vs. served demand)")


def _add_fleet_parser(subparsers) -> None:
    parser = _add_command(
        subparsers, "fleet", _cmd_fleet,
        help="inspect gateway generations, fleet mixes and churn patterns",
        description="List the registered gateway hardware generations, the "
        "named fleet mixes selectable via the mixed-fleet scenario family, "
        "and the named churn patterns; --churn previews the concrete event "
        "timeline a pattern produces for a given deployment.",
    )
    parser.add_argument("--churn", type=_churn_pattern, metavar="PATTERN",
                        help="preview the materialised timeline of a churn pattern")
    _add_scale_options(parser, clients=136, gateways=20, hours=24.0, step=None, seed=2081)


#: ``figure ID`` -> the :mod:`repro.analysis.figures` function and its arguments.
_FIGURES = {
    "2": ("figure2", {}),
    "3": ("figure3", {}),
    "4": ("figure4", {}),
    "5": ("figure5", {}),
    "14": ("figure14", {"num_sequences": 2}),
    "15": ("figure15", {}),
}


def _add_figure_parser(subparsers) -> None:
    parser = _add_command(subparsers, "figure", _cmd_figure,
                          help="regenerate the data behind a figure")
    parser.add_argument("id", choices=list(_FIGURES),
                        help="figure number (simulation figures 6-12 are produced by 'simulate')")
    _add_json_option(parser, "the figure data")


def _add_crosstalk_parser(subparsers) -> None:
    parser = _add_command(subparsers, "crosstalk", _cmd_crosstalk,
                          help="run the Fig. 14 experiment")
    parser.add_argument("--sequences", type=_positive_int, default=3)
    parser.add_argument("--seed", type=_non_negative_int, default=0)


def _add_testbed_parser(subparsers) -> None:
    parser = _add_command(subparsers, "testbed", _cmd_testbed,
                          help="run the Fig. 12 testbed replay")
    parser.add_argument("--seed", type=_non_negative_int, default=0)


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-access",
        description="Reproduction of 'Insomnia in the Access' (SIGCOMM 2011)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_trace_parser(subparsers)
    _add_simulate_parser(subparsers)
    _add_schemes_parser(subparsers)
    _add_sweep_parser(subparsers)
    _add_regress_parser(subparsers)
    _add_obs_parser(subparsers)
    _add_wattopt_parser(subparsers)
    _add_fleet_parser(subparsers)
    _add_figure_parser(subparsers)
    _add_crosstalk_parser(subparsers)
    _add_testbed_parser(subparsers)
    return parser


# ----------------------------------------------------------------------
# Shared handler helpers
# ----------------------------------------------------------------------
def _open_stores(paths: List[str]):
    """The existing result stores at ``paths``; None after printing an error.

    Read-only commands open stores through this: ``ResultStore`` creates
    ``runs/`` on open, which would turn a mistyped path into an empty store.
    """
    from repro.sweep import ResultStore

    missing = [path for path in paths if not (Path(path) / "runs").is_dir()]
    for path in missing:
        print(f"no result store at {path} (no runs/ directory)", file=sys.stderr)
    if missing:
        return None
    return [ResultStore(path) for path in paths]


def _sweep_config(args):
    """The :class:`SweepConfig` of the grid flags."""
    from repro.sweep import SweepConfig

    return SweepConfig(
        runs_per_scheme=args.runs, step_s=args.step, sample_interval_s=args.sample
    )


def _evaluation_scale(args, runs: int):
    """The :class:`EvaluationScale` of the population flags."""
    from repro.analysis import figures

    return figures.EvaluationScale(
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration_s=args.hours * 3600.0,
        runs_per_scheme=runs,
        step_s=args.step,
        seed=args.seed,
    )


def _write_trace(tracer, path: str) -> None:
    """Write a recorded trace: ``.jsonl`` paths get JSONL, else Chrome JSON."""
    if path.endswith(".jsonl"):
        tracer.write_jsonl(path)
    else:
        tracer.write_chrome(path)
    dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
    print(f"trace written to {path} ({len(tracer.events)} events{dropped})",
          file=sys.stderr)


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------
def _cmd_trace(args) -> int:
    trace = generate_crawdad_like_trace(
        seed=args.seed,
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration=args.hours * 3600.0,
    )
    stats = TraceStats.from_trace(trace)
    print(report.render_key_values({
        "clients": stats.num_clients,
        "gateways": stats.num_gateways,
        "flows": stats.num_flows,
        "total_gigabytes": stats.total_bytes / 1e9,
        "mean_utilization_percent": 100.0 * stats.mean_utilization,
        "peak_hour": stats.peak_hour,
        "peak_hour_utilization_percent": 100.0 * stats.peak_hour_utilization,
    }, title="Synthetic trace statistics"))
    if args.output:
        write_trace(trace, args.output)
        print(f"trace written to {args.output}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.analysis import figures

    comparison = figures.run_evaluation(
        scale=_evaluation_scale(args, args.runs),
        schemes=args.schemes or standard_schemes(),
    )
    summary = summarize_savings({name: comparison.first(name) for name in comparison.scheme_names})
    print(report.render_summary(summary))
    headline = figures.summary_savings(comparison)
    if headline:
        print()
        print(report.render_key_values(headline, title="Headline numbers (Sec. 5.4)"))
    return 0


def _cmd_schemes(args) -> int:
    rows = [
        {
            "name": scheme.name,
            "sleep": scheme.sleep_enabled,
            "aggregation": scheme.aggregation.value,
            "switching": scheme.switching.value,
            "watt_aware": scheme.watt_aware,
            "idealized": scheme.idealized_transitions,
            "backup": scheme.bh2.backup,
        }
        for scheme in all_schemes().values()
    ]
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(report.format_table(
        ["scheme", "sleep", "aggregation", "switching", "watt-aware", "idealized", "backup"],
        [
            [
                row["name"],
                "yes" if row["sleep"] else "no",
                row["aggregation"],
                row["switching"],
                "yes" if row["watt_aware"] else "no",
                "yes" if row["idealized"] else "no",
                row["backup"],
            ]
            for row in rows
        ],
    ))
    print("\nuse these names with simulate/sweep --schemes NAME[,NAME...]")
    return 0


def _cmd_sweep_gc(args) -> int:
    stores = _open_stores([args.out])
    if stores is None:
        return 2
    gc_kwargs = {} if args.tmp_grace is None else {"tmp_grace_s": args.tmp_grace}
    result = stores[0].gc(
        keep_families=args.keep_families,
        max_age_days=args.max_age_days,
        apply=args.apply,
        **gc_kwargs,
    )
    if result.candidates:
        rows = [
            [
                candidate.digest[:12] or candidate.filename,
                candidate.family or "-",
                candidate.label or "-",
                candidate.scheme or "-",
                f"{candidate.age_days:.1f}d" if candidate.age_days is not None else "-",
                candidate.reason,
            ]
            for candidate in result.candidates
        ]
        print(report.format_table(
            ["digest", "family", "scenario", "scheme", "age", "reason"], rows
        ))
        print()
    mode = "applied" if result.applied else "dry run (pass --apply to delete)"
    print(report.render_key_values({
        "examined": result.examined,
        "kept": result.kept,
        "removable": len(result.candidates),
        "removed": result.removed,
        "mode": mode,
    }, title="Sweep store GC"))
    return 0


def _cmd_wattopt(args) -> int:
    from repro.core.schemes import watt_schemes
    from repro.sweep import (
        ResultStore,
        generation_table,
        run_sweep,
        watt_gap_rows,
        watt_gap_table,
    )

    result = run_sweep(
        family_names=args.family or ["watt-aware"],
        schemes=watt_schemes(),
        config=_sweep_config(args),
        store=ResultStore(args.out),
        workers=args.workers,
    )
    if args.json:
        print(json.dumps(watt_gap_rows(result), indent=1))
        return 0
    gaps = watt_gap_table(result)
    if gaps:
        print("== count-vs-watt objective gap per scenario ==")
        print(gaps)
    else:
        print("no watt-aware scheme pairs in the selected families")
    generations = generation_table(result)
    if generations:
        print()
        print("== per-generation gateway energy ==")
        print(generations)
    if args.front:
        from repro.regress.pareto import WATT_FRONT, front_points, pareto_front

        points = front_points(result.aggregates(), WATT_FRONT)
        members = set(pareto_front(points, WATT_FRONT))
        print()
        print("== watt Pareto front (min gateway kWh, max served demand) ==")
        if points:
            print(report.format_table(
                ["point", "gateway kWh", "served GB", "status"],
                [
                    [key, kwh, served_gb, "front" if key in members else "dominated"]
                    for key, (kwh, served_gb) in sorted(points.items())
                ],
                precision=4,
            ))
        else:
            print("(no rows carry gateway_kwh + served_demand_gb; "
                  "refresh old records via 'repro-access sweep --no-resume')")
    print(f"\nresult store: {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.sweep import (
        ChaosConfig,
        ResultStore,
        RetryPolicy,
        SweepExecutionError,
        SweepInterrupted,
        family,
        family_names,
        render_sweep,
        run_sweep,
        sweep_to_json,
    )

    if args.list_families:
        rows = [
            [name, len(family(name).expand()), family(name).description]
            for name in sorted(family_names())
        ]
        print(report.format_table(["family", "scenarios", "description"], rows))
        return 0
    try:
        chaos = (
            ChaosConfig.parse(args.chaos, seed=args.chaos_seed) if args.chaos else None
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    retry = RetryPolicy(
        task_timeout_s=args.task_timeout,
        max_retries=args.retries,
        backoff_base_s=args.retry_backoff,
        keep_going=args.keep_going,
    )
    tracer = None
    if args.trace:
        from repro.obs import SimTracer

        tracer = SimTracer()
    progress = None
    if args.watch:
        from repro.obs import SweepDashboard

        progress = SweepDashboard()
    try:
        result = run_sweep(
            family_names=args.family,
            schemes=args.schemes,
            config=_sweep_config(args),
            store=ResultStore(args.out),
            workers=args.workers,
            use_cache=args.resume,
            retry=retry,
            chaos=chaos,
            tracer=tracer,
            progress=progress,
        )
    except SweepInterrupted as exc:
        print(f"\ninterrupted: {exc.completed} fresh run(s) were persisted to "
              f"{args.out} before the interrupt, {exc.outstanding} still outstanding",
              file=sys.stderr)
        print("the result store is resume-safe: re-run the same sweep to pick up "
              "where it stopped", file=sys.stderr)
        return 130
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed runs are already persisted to {args.out} "
              "— the result store is resume-safe: re-run the same sweep to pick up "
              "where it stopped", file=sys.stderr)
        return 130
    except SweepExecutionError as exc:
        print(str(exc), file=sys.stderr)
        print("completed runs are persisted; pass --keep-going for partial "
              "aggregates, or re-run to resume from the store", file=sys.stderr)
        return 1
    if tracer is not None:
        _write_trace(tracer, args.trace)
    if args.json:
        print(sweep_to_json(result))
    else:
        print(render_sweep(result))
        print(f"\nresult store: {args.out}")
    if result.failures:
        cells = ", ".join(failure.cell for failure in result.failures)
        print(f"\n{len(result.failures)} grid cell(s) failed after retries: {cells}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_obs_trace(args) -> int:
    from repro.analysis import figures
    from repro.obs import SimTracer
    from repro.simulation.runner import run_scheme

    scheme = args.scheme
    scenario = figures.build_scenario(_evaluation_scale(args, runs=1))
    tracer = SimTracer(**({} if args.max_events is None
                          else {"max_events": args.max_events}))
    with tracer.wall_span("kernel.run", cat="cli", scheme=scheme.name):
        result = run_scheme(
            scenario, scheme, seed=args.seed, step_s=args.step, tracer=tracer
        )
    _write_trace(tracer, args.output)
    print(report.render_key_values({
        "scheme": scheme.name,
        "steps_taken": result.steps_taken,
        "mean_savings_percent": 100.0 * result.mean_savings(),
        "solver_invocations": result.solver_invocations,
        "bh2_rounds": result.bh2_rounds,
        "events_recorded": len(tracer.events),
        "events_dropped": tracer.dropped,
    }, title="Traced run"))
    counts = tracer.counts()
    if counts:
        print()
        print(report.format_table(
            ["event", "count"], [[name, count] for name, count in counts.items()]
        ))
    return 0


def _cmd_obs_summary(args) -> int:
    from repro.obs.insight import percentile

    stores = _open_stores([args.out])
    if stores is None:
        return 2
    store = stores[0]
    entries = store.read_timings()
    by_family = args.by == "family"
    groups: dict = {}
    order: list = []
    for entry in entries:
        family = str(entry.get("family", "-"))
        key = (family,) if by_family else (family, str(entry.get("scheme", "-")))
        if key not in groups:
            groups[key] = {
                "runs": 0, "attempts": 0, "build_s": 0.0, "run_s": 0.0,
                "walls": [],
            }
            order.append(key)
        group = groups[key]
        group["runs"] += 1
        group["attempts"] += int(entry.get("attempt", 0)) + 1
        group["build_s"] += float(entry.get("build_s", 0.0))
        wall = float(entry.get("run_s", 0.0))
        group["run_s"] += wall
        group["walls"].append(wall)
    rows = []
    for key in order:
        group = groups[key]
        row = {"family": key[0]}
        if not by_family:
            row["scheme"] = key[1]
        row.update({
            "runs": group["runs"],
            "attempts": group["attempts"],
            "build_s": round(group["build_s"], 6),
            "run_s": round(group["run_s"], 6),
            "p50_run_s": round(percentile(group["walls"], 50), 6),
            "p95_run_s": round(percentile(group["walls"], 95), 6),
            "p99_run_s": round(percentile(group["walls"], 99), 6),
        })
        rows.append(row)
    if args.json:
        print(json.dumps({
            "ledger": str(store.timings_path),
            "entries": len(entries),
            "by": args.by,
            "groups": rows,
        }, indent=1, sort_keys=True))
        return 0
    if not rows:
        print(f"no timing ledger at {store.timings_path} — run a sweep "
              "against this store first")
        return 0
    headers = ["family"] + ([] if by_family else ["scheme"]) + [
        "runs", "attempts", "build s", "run s", "p50", "p95", "p99",
    ]
    print(report.format_table(
        headers,
        [
            [row["family"]] + ([] if by_family else [row["scheme"]]) + [
                row["runs"], row["attempts"], row["build_s"], row["run_s"],
                row["p50_run_s"], row["p95_run_s"], row["p99_run_s"],
            ]
            for row in rows
        ],
        precision=3,
    ))
    print(report.render_key_values({
        "ledger": str(store.timings_path),
        "entries": len(entries),
        "total_build_s": round(sum(row["build_s"] for row in rows), 3),
        "total_run_s": round(sum(row["run_s"] for row in rows), 3),
    }, title="Sweep timing ledger"))
    return 0


def _cmd_obs_export(args) -> int:
    from repro.obs import chrome_trace_from_events, read_jsonl_events

    try:
        events = read_jsonl_events(args.input)
    except OSError as error:
        print(f"cannot read {args.input!r}: {error}", file=sys.stderr)
        return 2
    payload = chrome_trace_from_events(events)
    Path(args.output).write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(f"wrote {args.output} ({len(events)} events)")
    if not events:
        print(f"warning: no parseable events in {args.input}", file=sys.stderr)
    return 0


def _cmd_obs_query(args) -> int:
    from repro.obs.insight import query_runs

    stores = _open_stores(args.out or ["sweep-results"])
    if stores is None:
        return 2
    rows = query_runs(
        stores, family=args.family, scheme=args.scheme, label=args.label,
        digest=args.digest, metric=args.metric,
    )
    total = len(rows)
    shown = rows if args.limit is None else rows[: max(0, args.limit)]
    if args.json:
        print(json.dumps({"count": total, "rows": shown},
                         indent=1, sort_keys=True))
        return 0
    if not rows:
        print("0 run row(s) matched")
        return 0
    headers = ["family", "label", "scheme", "run", "digest", "store"]
    if args.metric is not None:
        headers.append(args.metric)
    table_rows = []
    for row in shown:
        cells = [row["family"], row["label"], row["scheme"],
                 row["run_index"], str(row["digest"])[:12], row["store"]]
        if args.metric is not None:
            value = row.get(args.metric)
            cells.append("-" if value is None else value)
        table_rows.append(cells)
    print(report.format_table(headers, table_rows, precision=4))
    suffix = "" if len(shown) == total else f" (showing {len(shown)})"
    print(f"\n{total} run row(s) matched{suffix}")
    return 0


def _cmd_obs_drift(args) -> int:
    from repro.obs.insight import drift

    stores = _open_stores(args.out or [])
    if stores is None:
        return 2
    if len(stores) < 2:
        print("obs drift compares stores: pass --out at least twice",
              file=sys.stderr)
        return 2
    findings = drift(stores)
    if args.json:
        print(json.dumps({"count": len(findings), "findings": findings},
                         indent=1, sort_keys=True))
        return 0
    if findings:
        rows = [
            [
                f"{finding['family']}/{finding['label']}/{finding['scheme']}",
                str(finding["digest"])[:12],
                f"{finding['from_store']} -> {finding['to_store']}",
                ", ".join(finding["metrics"][:4]),
            ]
            for finding in findings
        ]
        print(report.format_table(
            ["cell", "digest", "stores", "metrics changed"], rows
        ))
        print(f"\n{len(findings)} drift finding(s)")
    else:
        print("no drift: every digest held by two or more stores carries "
              "identical metrics")
    return 0


def _cmd_obs_explain(args) -> int:
    from repro.obs.explain import explain_run, render_waterfall
    from repro.simulation.runner import scheme_run_seed
    from repro.sweep import family

    scheme = args.scheme
    specs = family(args.family).expand()
    if args.label is None:
        spec = specs[0]
    else:
        spec = next((s for s in specs if s.label == args.label), None)
        if spec is None:
            print(f"no scenario labelled '{args.label}' in family "
                  f"'{args.family}'; labels: "
                  f"{', '.join(s.label for s in specs)}", file=sys.stderr)
            return 2
    seed = scheme_run_seed(spec.seed, args.run_index, scheme.name)
    payload = explain_run(spec.build(), scheme, seed, step_s=args.step)
    payload["family"] = args.family
    payload["label"] = spec.label
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    print(f"{args.family}/{spec.label}/{scheme.name}#{args.run_index} "
          f"(seed {seed})\n")
    print(render_waterfall(payload))
    return 0


def _cmd_obs_top(args) -> int:
    from repro.obs.progress import render_store_top

    stores = _open_stores([args.out])
    if stores is None:
        return 2
    store = stores[0]
    if args.once:
        print(render_store_top(store))
        return 0
    try:
        while True:
            frame = render_store_top(store)
            # Clear + home first so a shrinking frame leaves no stale tail.
            sys.stdout.write(f"\x1b[2J\x1b[H{frame}\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def _regress_sweep(args):
    """Run (or resume) the regress families: ``(families, config, result)``."""
    from repro.regress.runner import default_family_names, run_regress_sweep
    from repro.sweep import ResultStore

    families = args.family or default_family_names()
    config = _sweep_config(args)
    result = run_regress_sweep(families, config, ResultStore(args.out), workers=args.workers)
    return families, config, result


def _cmd_regress_history(args) -> int:
    from repro.regress.runner import load_history, render_history

    records = load_history(args.baselines)
    if args.last is not None and args.last > 0:
        records = records[-args.last:]
    if args.json:
        print(json.dumps(records, indent=1, sort_keys=True))
    else:
        print(render_history(records))
    return 0


def _cmd_regress_update(args) -> int:
    from repro.regress.runner import update_baselines

    families, config, result = _regress_sweep(args)
    for path in update_baselines(result, families, args.baselines, config):
        print(f"wrote {path}")
    print(f"\ncommit the baselines/ diff to adopt the new values "
          f"(cache hits: {result.cache_hits}/{result.total_runs})")
    return 0


def _cmd_regress_pareto(args) -> int:
    from repro.regress.pareto import fronts_payload
    from repro.regress.runner import render_fronts

    families, _config, result = _regress_sweep(args)
    payload = fronts_payload(result.aggregates(), families)
    if args.export:
        Path(args.export).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {args.export}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(render_fronts(payload))
    return 0


def _cmd_regress_check(args) -> int:
    from repro.regress import runner as regress_runner
    from repro.regress.compare import RegressReport

    if args.no_families and args.no_pareto:
        print("nothing to check: --no-families and --no-pareto", file=sys.stderr)
        return 2
    families, config, result = _regress_sweep(args)
    report_ = RegressReport(strict=args.strict)
    if not args.no_families:
        report_.baselines.extend(families)
        report_.extend(regress_runner.check_families(
            result, families, args.baselines, config
        ))
    if not args.no_pareto:
        report_.baselines.append(regress_runner.PARETO_BASELINE_NAME)
        report_.extend(regress_runner.check_pareto(
            result, families, args.baselines
        ))
    if not args.no_history:
        regress_runner.append_history(
            regress_runner.history_record(
                report_, result, [] if args.no_families else families
            ),
            args.baselines,
        )
    if args.report:
        Path(args.report).write_text(
            json.dumps(report_.to_payload(), indent=1, sort_keys=True) + "\n"
        )
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(regress_runner.render_markdown_summary(report_))
    if args.json:
        print(json.dumps(report_.to_payload(), indent=1, sort_keys=True))
    else:
        print(regress_runner.render_report(report_, verbose=args.verbose))
    return 0 if report_.ok else 1


def _cmd_fleet(args) -> int:
    from repro.fleet import FLEETS, GENERATIONS, build_churn, churn_pattern_names

    if args.churn is not None:
        timeline = build_churn(
            args.churn,
            num_gateways=args.gateways,
            num_clients=args.clients,
            duration_s=args.hours * 3600.0,
            seed=args.seed,
        )
        rows = [
            [
                f"{event.at_s / 3600.0:.2f}h",
                event.kind.value,
                event.gateway_id if event.gateway_id is not None else event.client_id,
                f"{event.duration_s / 60.0:.0f}min" if event.duration_s else "-",
            ]
            for event in timeline.events
        ]
        print(report.format_table(["at", "event", "entity", "outage"], rows))
        return 0
    print(report.format_table(
        ["generation", "active W", "sleep W", "wake W", "wake time"],
        [
            [
                generation.name,
                generation.power.active_w,
                generation.power.sleep_w,
                generation.power.waking_w,
                f"{generation.wake_up_time_s:.0f}s" if generation.wake_up_time_s is not None
                else "scheme default",
            ]
            for generation in GENERATIONS.values()
        ],
    ))
    print()
    print(report.format_table(
        ["fleet mix", "composition"],
        [
            [
                profile.name,
                ", ".join(f"{weight:g}x {name}" for name, weight in profile.mix),
            ]
            for profile in FLEETS.values()
        ],
    ))
    print()
    print(report.format_table(
        ["churn pattern", ""],
        [[name, "(--churn NAME previews the timeline)"] for name in churn_pattern_names()],
    ))
    return 0


def _cmd_figure(args) -> int:
    from repro.analysis import figures

    name, kwargs = _FIGURES[args.id]
    data = getattr(figures, name)(**kwargs)
    if not args.json:
        print(report.render_key_values({"figure": args.id}))
    print(json.dumps(data, indent=2, default=str))
    return 0


def _cmd_crosstalk(args) -> int:
    from repro.analysis import figures

    data = figures.figure14(num_sequences=args.sequences, seed=args.seed)
    rows = []
    for label, curve in data.items():
        rows.append([
            label,
            curve["baseline_mbps"],
            curve["mean_speedup_percent"][curve["inactive_lines"].index(12)],
            curve["mean_speedup_percent"][-1],
        ])
    print(report.format_table(
        ["configuration", "baseline Mbps", "speedup @12 off (%)", "speedup @20 off (%)"], rows
    ))
    return 0


def _cmd_testbed(args) -> int:
    from repro.analysis import figures

    data = figures.figure12(seed=args.seed)
    rows = [[name, series["mean_online"], 9 - series["mean_online"]] for name, series in data.items()]
    print(report.format_table(["scheme", "mean online APs", "mean sleeping APs"], rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: parse ``argv`` and run the chosen command's handler.

    A bad flag value raises ``SystemExit(2)`` from the parser.
    """
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
