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
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.analysis import figures, report
from repro.core.schemes import all_schemes, standard_schemes
from repro.simulation.metrics import summarize_savings
from repro.traces.io import write_trace
from repro.traces.models import TraceStats
from repro.traces.synthetic import generate_crawdad_like_trace


def _add_trace_parser(subparsers) -> None:
    parser = subparsers.add_parser("trace", help="generate a synthetic wireless trace")
    parser.add_argument("--clients", type=int, default=272)
    parser.add_argument("--gateways", type=int, default=40)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--output", type=str, default=None, help="write the trace as CSV")


def _add_simulate_parser(subparsers) -> None:
    parser = subparsers.add_parser("simulate", help="run the scheme comparison")
    parser.add_argument("--clients", type=int, default=68)
    parser.add_argument("--gateways", type=int, default=10)
    parser.add_argument("--hours", type=float, default=4.0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--step", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan scheme runs out over this many processes "
        "(results are identical to a serial run; default: serial)",
    )
    parser.add_argument(
        "--schemes",
        type=str,
        default=None,
        help="comma-separated scheme names (default: the Fig. 6 set); "
        f"known: {', '.join(all_schemes())}",
    )


def _add_sweep_parser(subparsers) -> None:
    from repro.sweep import family_names

    parser = subparsers.add_parser(
        "sweep",
        help="run the scenario-catalog sweep with result-store caching",
        description="Expand the selected scenario families into their "
        "parameter grids, run every scenario x scheme x repetition cell "
        "(serving cached cells from the result store), and print "
        "cross-scenario savings tables.",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario family to include (repeatable; default: all); "
        f"known: {', '.join(family_names())}",
    )
    parser.add_argument("--list-families", action="store_true",
                        help="list the registered scenario families and exit")
    parser.add_argument("--runs", type=int, default=1, help="repetitions per scheme")
    parser.add_argument("--step", type=float, default=2.0, help="simulation step (s)")
    parser.add_argument("--sample", type=float, default=60.0, help="metric sampling interval (s)")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the grid over this many processes "
        "(aggregates are identical to a serial run; default: serial)",
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve runs already in the result store from cache "
        "(--no-resume forces recomputation; the store is still updated)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory (default: ./sweep-results)",
    )
    parser.add_argument(
        "--schemes",
        type=str,
        default=None,
        help="comma-separated scheme names (default: the Fig. 6 set); "
        f"known: {', '.join(all_schemes())}",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the sweep result as JSON instead of tables")
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="record a structured trace of the sweep and write it here: "
        "a .jsonl path gets JSONL events, anything else Chrome "
        "trace-event JSON loadable in Perfetto (sim-time kernel events "
        "are captured on serial sweeps; wall-clock spans always)",
    )
    parser.add_argument(
        "--watch",
        action="store_true",
        help="render a live progress dashboard on stderr while the sweep "
        "runs (in-place on a TTY; plain '[watch]' lines on pipes/CI); "
        "purely observational — results and stored bytes are unchanged",
    )
    resilience = parser.add_argument_group(
        "resilience",
        "supervised execution: timeouts, retries, and deterministic chaos "
        "(retried cells reuse their seeds, so a rescued sweep's store is "
        "bit-identical to a clean run's)",
    )
    resilience.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="kill and retry any task running longer than S seconds "
        "(enforced on worker processes; unenforceable when serial)",
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget per grid cell (default: 2)",
    )
    resilience.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        metavar="S",
        help="base of the deterministic exponential backoff before each "
        "retry (default: 0, retry immediately)",
    )
    resilience.add_argument(
        "--keep-going",
        action="store_true",
        help="when a cell exhausts its retries, finish the rest of the "
        "grid, print partial aggregates, and exit non-zero naming the "
        "failed cells (default: abort on the first exhausted cell)",
    )
    resilience.add_argument(
        "--chaos",
        type=str,
        default=None,
        metavar="SPEC",
        help="inject deterministic faults into the run, e.g. "
        "'crash=1,hang=1,raise=1,torn=1' — a drill for the harness, "
        "not the physics; pair with --task-timeout for hangs",
    )
    resilience.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        metavar="N",
        help="victim-selection seed of the chaos plan (default: 0)",
    )
    sweep_sub = parser.add_subparsers(dest="sweep_command", metavar="[gc]")
    gc_parser = sweep_sub.add_parser(
        "gc",
        help="trim the result store (dry run unless --apply)",
        description="Garbage-collect the sweep result store, driven by its "
        "manifest.jsonl: --keep-families removes records of every other "
        "family, --max-age-days removes records older than N days, and "
        "invalid tombstone entries (corrupt files, stale store versions) "
        "are always removal candidates.  Dry run by default; pass --apply "
        "to actually delete.",
    )
    gc_parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory (default: ./sweep-results)",
    )
    gc_parser.add_argument(
        "--keep-families",
        nargs="+",
        default=None,
        metavar="NAME",
        help="families to keep; records of any other family are removed",
    )
    gc_parser.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="remove records older than this many days (by file mtime)",
    )
    gc_parser.add_argument(
        "--tmp-grace",
        type=float,
        default=None,
        metavar="S",
        help="treat orphaned runs/*.tmp files older than S seconds as "
        "removal candidates (default: 3600; younger ones may be a "
        "concurrent sweep's in-flight write)",
    )
    gc_parser.add_argument(
        "--apply",
        action="store_true",
        help="actually delete (default: dry run, print what would go)",
    )


def _add_regress_shared(parser, default_families_help: str) -> None:
    """Flags shared by every ``regress`` subcommand."""
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help=f"scenario family to cover (repeatable; default: {default_families_help})",
    )
    parser.add_argument("--runs", type=int, default=1, help="repetitions per scheme")
    parser.add_argument("--step", type=float, default=2.0, help="simulation step (s)")
    parser.add_argument("--sample", type=float, default=60.0,
                        help="metric sampling interval (s)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard the sweep over this many processes")
    parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory shared with 'sweep' (default: ./sweep-results)",
    )
    parser.add_argument(
        "--baselines",
        type=str,
        default="baselines",
        metavar="DIR",
        help="committed baseline directory (default: ./baselines)",
    )


def _add_regress_parser(subparsers) -> None:
    from repro.regress.baseline import DEFAULT_REGRESS_FAMILIES

    default_families = ", ".join(DEFAULT_REGRESS_FAMILIES)
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

    check = regress_sub.add_parser(
        "check",
        help="diff a fresh run against the committed baselines (gate)",
        description="Exit 0 when every cell is identical / improved / "
        "new; exit 1 naming the offending cells "
        "when any metric regressed, a committed cell went missing, or a "
        "committed Pareto-front member fell off the front.",
    )
    _add_regress_shared(check, default_families)
    check.add_argument("--no-families", action="store_true",
                       help="skip the sweep-family metric checks")
    check.add_argument("--no-pareto", action="store_true",
                       help="skip the Pareto-front membership check")
    check.add_argument("--strict", action="store_true",
                       help="treat 'improved' cells as gate failures too "
                       "(forces baselines to be updated in the same PR)")
    check.add_argument("--report", type=str, default=None, metavar="PATH",
                       help="write the machine-readable JSON report here")
    check.add_argument("--summary", type=str, default=None, metavar="PATH",
                       help="append a markdown summary here (GITHUB_STEP_SUMMARY)")
    check.add_argument("--verbose", action="store_true",
                       help="tabulate identical cells too")
    check.add_argument("--json", action="store_true",
                       help="print the machine-readable report as JSON")
    check.add_argument("--no-history", action="store_true",
                       help="do not append this run to baselines/history.jsonl")

    update = regress_sub.add_parser(
        "update",
        help="re-export the committed baselines from a fresh run",
        description="Run (or resume) the selected families and rewrite "
        "baselines/<family>.json plus baselines/pareto.json.  The diff of "
        "baselines/ is the reviewable record of the metric change.",
    )
    _add_regress_shared(update, default_families)

    pareto = regress_sub.add_parser(
        "pareto",
        help="compute and print/export the cross-family Pareto fronts",
        description="Compute the savings-vs-peak-online and "
        "watt-energy-vs-served fronts over the selected families and "
        "print every point with its front membership.",
    )
    _add_regress_shared(pareto, default_families)
    pareto.add_argument("--export", type=str, default=None, metavar="PATH",
                        help="write the fronts payload as JSON here")
    pareto.add_argument("--json", action="store_true",
                        help="print the fronts payload as JSON")

    history = regress_sub.add_parser(
        "history",
        help="print the gate's historical trajectory",
        description="Print the baselines/history.jsonl ledger that "
        "'regress check' appends to — one record per gate run with its "
        "timestamp, commit sha, verdict and per-family metric-cell "
        "counts, so coverage shrinkage is visible over time.",
    )
    history.add_argument(
        "--baselines",
        type=str,
        default="baselines",
        metavar="DIR",
        help="committed baseline directory (default: ./baselines)",
    )
    history.add_argument("--last", type=int, default=None, metavar="N",
                        help="show only the most recent N records")
    history.add_argument("--json", action="store_true",
                        help="print the records as JSON")


def _add_obs_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "obs",
        help="trace runs, summarise timings, warehouse sweeps, explain kWh",
        description="The observability toolbox: 'trace' runs one traced "
        "simulation and exports its structured event trace; 'summary' "
        "tabulates the per-run timings.jsonl ledger a sweep store keeps "
        "beside its manifest; 'export' converts a JSONL event trace to "
        "Chrome trace-event JSON loadable in Perfetto or chrome://tracing; "
        "'ingest'/'query'/'drift' maintain the cross-sweep SQLite insight "
        "warehouse; 'explain' decomposes a run's energy savings into a "
        "waterfall vs its no-sleep twin; 'top' renders a store's progress.",
    )
    obs_sub = parser.add_subparsers(
        dest="obs_command",
        required=True,
        metavar="trace|summary|export|ingest|query|drift|explain|top",
    )

    trace = obs_sub.add_parser(
        "trace",
        help="run one traced simulation and export the trace",
        description="Run a single scheme over the evaluation scenario with "
        "a SimTracer attached (traced runs are bit-identical to untraced "
        "ones), write the trace, and print its event counts.",
    )
    trace.add_argument("--scheme", type=str, default="BH2+k-switch",
                       help=f"scheme to trace; known: {', '.join(all_schemes())}")
    trace.add_argument("--clients", type=int, default=68)
    trace.add_argument("--gateways", type=int, default=10)
    trace.add_argument("--hours", type=float, default=4.0)
    trace.add_argument("--step", type=float, default=2.0)
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--max-events", type=int, default=None, metavar="N",
                       help="trace buffer bound (excess events are counted, "
                       "not stored; default: 200000)")
    trace.add_argument(
        "--output",
        type=str,
        default="trace.json",
        metavar="PATH",
        help="where to write the trace: a .jsonl path gets JSONL events, "
        "anything else Chrome trace-event JSON (default: ./trace.json)",
    )

    summary = obs_sub.add_parser(
        "summary",
        help="tabulate a sweep store's timings.jsonl ledger",
        description="Aggregate the per-run build/run wall-clock ledger of "
        "a sweep result store per family x scheme: runs, attempts, and "
        "where the wall-clock went.",
    )
    summary.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory shared with 'sweep' (default: ./sweep-results)",
    )
    summary.add_argument(
        "--by",
        type=str,
        choices=("scheme", "family"),
        default="scheme",
        help="grouping: 'scheme' = one row per family x scheme (default); "
        "'family' = one row per family",
    )
    summary.add_argument("--json", action="store_true",
                         help="print the aggregate rows as JSON")

    export = obs_sub.add_parser(
        "export",
        help="convert a JSONL trace to Chrome trace-event JSON",
        description="Convert a JSONL event trace (from 'obs trace' or "
        "'sweep --trace') into Chrome trace-event JSON loadable in "
        "Perfetto; torn or malformed lines are skipped, not fatal.",
    )
    export.add_argument("input", help="JSONL trace to read")
    export.add_argument("output", help="Chrome trace-event JSON to write")

    ingest = obs_sub.add_parser(
        "ingest",
        help="index sweep stores, traces and history into the warehouse",
        description="Ingest any number of sweep stores (manifest + metrics "
        "+ timings ledger), JSONL traces and regress history ledgers into "
        "one SQLite insight warehouse. "
        "Re-ingesting a source replaces its rows (idempotent); the "
        "warehouse only ever reads the sources.",
    )
    ingest.add_argument("--db", type=str, default="insight.db", metavar="PATH",
                        help="warehouse database file (default: ./insight.db)")
    ingest.add_argument("--store", action="append", default=None, metavar="DIR",
                        help="sweep result store to ingest (repeatable)")
    ingest.add_argument("--trace", action="append", default=None, metavar="PATH",
                        help="JSONL event trace to ingest (repeatable)")
    ingest.add_argument("--history", action="append", default=None, metavar="DIR",
                        help="baselines directory whose history.jsonl to "
                        "ingest (repeatable)")
    ingest.add_argument("--git-sha", type=str, default=None, metavar="SHA",
                        help="git sha to tag the ingested stores with "
                        "(default: the current checkout's short sha)")
    ingest.add_argument("--json", action="store_true",
                        help="print the ingest accounting as JSON")

    query = obs_sub.add_parser(
        "query",
        help="query the warehouse's run table",
        description="Filter the warehouse's run rows by family, scheme, "
        "scenario label or digest prefix; --metric pulls one stored "
        "metric column out of each run's metrics payload.",
    )
    query.add_argument("--db", type=str, default="insight.db", metavar="PATH")
    query.add_argument("--family", type=str, default=None)
    query.add_argument("--scheme", type=str, default=None)
    query.add_argument("--label", type=str, default=None)
    query.add_argument("--digest", type=str, default=None, metavar="PREFIX")
    query.add_argument("--metric", type=str, default=None, metavar="NAME",
                       help="also show this metric from each run's payload")
    query.add_argument("--limit", type=int, default=None, metavar="N",
                       help="show at most N rows (the count is still total)")
    query.add_argument("--json", action="store_true",
                       help="print the rows as JSON")

    drift = obs_sub.add_parser(
        "drift",
        help="flag per-cell metric/wall-time drift across ingested shas",
        description="Compare every digest that appears in more than one "
        "ingested source: metrics must be bit-identical (a difference "
        "means the kernel silently changed its answers between shas), "
        "and mean executed wall time must stay within --wall-ratio. "
        "Findings are appended to the regress history ledger as an "
        "advisory row unless --no-history.",
    )
    drift.add_argument("--db", type=str, default="insight.db", metavar="PATH")
    drift.add_argument("--wall-ratio", type=float, default=1.5, metavar="R",
                       help="flag a cell whose mean run_s moved by more "
                       "than this factor between sources (default: 1.5)")
    drift.add_argument("--baselines", type=str, default="baselines",
                       metavar="DIR",
                       help="baselines directory whose history.jsonl "
                       "receives the advisory row (default: ./baselines)")
    drift.add_argument("--no-history", action="store_true",
                       help="do not append the advisory row")
    drift.add_argument("--json", action="store_true",
                       help="print the findings as JSON")

    explain = obs_sub.add_parser(
        "explain",
        help="decompose a run's kWh savings vs its no-sleep twin",
        description="Run one grid cell and its no-sleep twin at the same "
        "seed, then decompose the kWh delta into a savings waterfall: "
        "gross sleep savings, standby draw, wake/boot penalties and "
        "churn-forced wakes per device generation, plus direct ISP-side "
        "deltas. The waterfall sums exactly to the total delta.",
    )
    explain.add_argument("--family", type=str, default="smoke",
                         help="scenario family providing the grid cell "
                         "(default: smoke)")
    explain.add_argument("--label", type=str, default=None,
                         help="scenario label within the family "
                         "(default: the family's first scenario)")
    explain.add_argument("--scheme", type=str, default="BH2+k-switch",
                         help=f"scheme to explain; known: {', '.join(all_schemes())}")
    explain.add_argument("--run-index", type=int, default=0, metavar="N",
                         help="repetition index (seeds match 'sweep' cells)")
    explain.add_argument("--step", type=float, default=2.0,
                         help="simulation step (s); match the sweep's --step")
    explain.add_argument("--json", action="store_true",
                         help="print the waterfall payload as JSON")

    top = obs_sub.add_parser(
        "top",
        help="render a sweep store's live progress from its ledgers",
        description="Summarise a store's manifest and timings ledger as a "
        "progress frame — safe to point at a store another process is "
        "sweeping into. Repaints every --interval seconds; --once prints "
        "a single frame and exits (for CI and scripts).",
    )
    top.add_argument("--out", type=str, default="sweep-results", metavar="DIR",
                     help="result-store directory shared with 'sweep' "
                     "(default: ./sweep-results)")
    top.add_argument("--interval", type=float, default=2.0, metavar="S",
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit")


def _add_schemes_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "schemes",
        help="list every registered scheme and its behavioural axes",
        description="List the registered schemes with their sleep, "
        "aggregation, switching and watt-awareness axes — the names "
        "accepted by simulate/sweep --schemes, so a typo is "
        "self-diagnosable.",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the scheme table as JSON")


def _add_wattopt_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "wattopt",
        help="count-vs-watt objective gap of the watt-aware schemes",
        description="Run (or resume from the result store) the watt-aware "
        "schemes beside their count-minimising twins over the selected "
        "scenario families and print the gateway energy each spent plus "
        "the watts_saved_vs_count_kwh gap per scenario.",
    )
    parser.add_argument(
        "--family",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario family to include (repeatable; default: watt-aware)",
    )
    parser.add_argument("--runs", type=int, default=1, help="repetitions per scheme")
    parser.add_argument("--step", type=float, default=2.0, help="simulation step (s)")
    parser.add_argument("--sample", type=float, default=60.0, help="metric sampling interval (s)")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard the grid over this many processes")
    parser.add_argument(
        "--out",
        type=str,
        default="sweep-results",
        metavar="DIR",
        help="result-store directory shared with 'sweep' (default: ./sweep-results)",
    )
    parser.add_argument("--json", action="store_true",
                        help="print the gap rows as JSON instead of tables")
    parser.add_argument("--front", action="store_true",
                        help="also print the watt Pareto front "
                        "(gateway kWh vs. served demand)")


def _add_fleet_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "fleet",
        help="inspect gateway generations, fleet mixes and churn patterns",
        description="List the registered gateway hardware generations, the "
        "named fleet mixes selectable via the mixed-fleet scenario family, "
        "and the named churn patterns; --churn previews the concrete event "
        "timeline a pattern produces for a given deployment.",
    )
    parser.add_argument(
        "--churn",
        type=str,
        default=None,
        metavar="PATTERN",
        help="preview the materialised timeline of a churn pattern",
    )
    parser.add_argument("--gateways", type=int, default=20)
    parser.add_argument("--clients", type=int, default=136)
    parser.add_argument("--hours", type=float, default=24.0)
    parser.add_argument("--seed", type=int, default=2081)


def _add_figure_parser(subparsers) -> None:
    parser = subparsers.add_parser("figure", help="regenerate the data behind a figure")
    parser.add_argument(
        "id",
        choices=["2", "3", "4", "5", "14", "15"],
        help="figure number (simulation figures 6-12 are produced by 'simulate')",
    )
    parser.add_argument("--json", action="store_true", help="print raw JSON instead of a table")


def _add_crosstalk_parser(subparsers) -> None:
    parser = subparsers.add_parser("crosstalk", help="run the Fig. 14 experiment")
    parser.add_argument("--sequences", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)


def _add_testbed_parser(subparsers) -> None:
    parser = subparsers.add_parser("testbed", help="run the Fig. 12 testbed replay")
    parser.add_argument("--seed", type=int, default=0)


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


def _resolve_schemes(spec: str):
    """Comma-separated scheme names -> configs; None after printing an error."""
    known = all_schemes()
    try:
        return [known[name.strip()] for name in spec.split(",")]
    except KeyError as error:
        print(f"unknown scheme {error}; known schemes: {', '.join(known)}", file=sys.stderr)
        return None


def _cmd_simulate(args) -> int:
    scale = figures.EvaluationScale(
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration_s=args.hours * 3600.0,
        runs_per_scheme=args.runs,
        step_s=args.step,
        seed=args.seed,
    )
    if args.schemes:
        schemes = _resolve_schemes(args.schemes)
        if schemes is None:
            return 2
    else:
        schemes = standard_schemes()
    comparison = figures.run_evaluation(scale=scale, schemes=schemes, workers=args.workers)
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
    from repro.sweep import ResultStore

    if args.max_age_days is not None and args.max_age_days < 0:
        print(f"--max-age-days must be non-negative (got {args.max_age_days})",
              file=sys.stderr)
        return 2
    if args.tmp_grace is not None and args.tmp_grace < 0:
        print(f"--tmp-grace must be non-negative (got {args.tmp_grace})",
              file=sys.stderr)
        return 2
    store = ResultStore(args.out)
    gc_kwargs = {}
    if args.tmp_grace is not None:
        gc_kwargs["tmp_grace_s"] = args.tmp_grace
    result = store.gc(
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


def _validate_sweep_args(args, selected_families) -> Optional[int]:
    """Shared sweep/wattopt flag validation; an exit code, or None when OK."""
    from repro.sweep import family_names

    known = family_names()
    for name in selected_families:
        if name not in known:
            print(f"unknown scenario family '{name}'; known families: {', '.join(known)}",
                  file=sys.stderr)
            return 2
    for flag, value in [("--runs", args.runs), ("--step", args.step), ("--sample", args.sample)]:
        if value <= 0:
            print(f"{flag} must be positive (got {value})", file=sys.stderr)
            return 2
    if args.workers is not None and args.workers <= 0:
        print(f"--workers must be positive (got {args.workers})", file=sys.stderr)
        return 2
    return None


def _cmd_wattopt(args) -> int:
    from repro.core.schemes import watt_schemes
    from repro.sweep import (
        ResultStore,
        SweepConfig,
        generation_table,
        run_sweep,
        watt_gap_rows,
        watt_gap_table,
    )

    selected = args.family or ["watt-aware"]
    error = _validate_sweep_args(args, selected)
    if error is not None:
        return error
    result = run_sweep(
        family_names=selected,
        schemes=watt_schemes(),
        config=SweepConfig(
            runs_per_scheme=args.runs, step_s=args.step, sample_interval_s=args.sample
        ),
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
        from repro.wattopt.front import watt_front_rows

        rows = watt_front_rows(result.aggregates())
        print()
        print("== watt Pareto front (min gateway kWh, max served demand) ==")
        if rows:
            print(report.format_table(
                ["point", "gateway kWh", "served GB", "status"],
                [
                    [
                        row["point"], row["gateway_kwh"], row["served_demand_gb"],
                        "front" if row["on_front"] else "dominated",
                    ]
                    for row in rows
                ],
                precision=4,
            ))
        else:
            print("(no rows carry gateway_kwh + served_demand_gb; "
                  "refresh old records via 'repro-access sweep --no-resume')")
    print(f"\nresult store: {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from repro import sweep as sweep_pkg
    from repro.sweep import (
        ChaosConfig,
        ResultStore,
        RetryPolicy,
        SweepConfig,
        SweepExecutionError,
        SweepInterrupted,
        family_names,
        render_sweep,
        run_sweep,
        sweep_to_json,
    )

    if getattr(args, "sweep_command", None) == "gc":
        return _cmd_sweep_gc(args)
    if args.list_families:
        rows = [
            [name, len(sweep_pkg.family(name).expand()), sweep_pkg.family(name).description]
            for name in sorted(family_names())
        ]
        print(report.format_table(["family", "scenarios", "description"], rows))
        return 0
    error = _validate_sweep_args(args, args.family or [])
    if error is not None:
        return error
    if args.schemes:
        schemes = _resolve_schemes(args.schemes)
        if schemes is None:
            return 2
    else:
        schemes = None
    try:
        chaos = (
            ChaosConfig.parse(args.chaos, seed=args.chaos_seed) if args.chaos else None
        )
        retry = RetryPolicy(
            task_timeout_s=args.task_timeout,
            max_retries=args.retries,
            backoff_base_s=args.retry_backoff,
            keep_going=args.keep_going,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
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
            schemes=schemes,
            config=SweepConfig(
                runs_per_scheme=args.runs, step_s=args.step, sample_interval_s=args.sample
            ),
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


def _write_trace(tracer, path: str) -> None:
    """Write a recorded trace: ``.jsonl`` paths get JSONL, else Chrome JSON."""
    if path.endswith(".jsonl"):
        tracer.write_jsonl(path)
    else:
        tracer.write_chrome(path)
    dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
    print(f"trace written to {path} ({len(tracer.events)} events{dropped})",
          file=sys.stderr)


def _cmd_obs_trace(args) -> int:
    from repro.obs import SimTracer
    from repro.simulation.runner import run_scheme

    scheme = all_schemes().get(args.scheme)
    if scheme is None:
        print(f"unknown scheme '{args.scheme}'; known schemes: "
              f"{', '.join(all_schemes())}", file=sys.stderr)
        return 2
    for flag, value in [("--clients", args.clients), ("--gateways", args.gateways),
                        ("--hours", args.hours), ("--step", args.step)]:
        if value <= 0:
            print(f"{flag} must be positive (got {value})", file=sys.stderr)
            return 2
    scale = figures.EvaluationScale(
        num_clients=args.clients,
        num_gateways=args.gateways,
        duration_s=args.hours * 3600.0,
        step_s=args.step,
        seed=args.seed,
    )
    scenario = figures.build_scenario(scale)
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
    from repro.sweep import ResultStore

    store = ResultStore(args.out)
    entries = store.read_timings()
    by_family = getattr(args, "by", "scheme") == "family"
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
            "by": "family" if by_family else "scheme",
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
    from pathlib import Path as _Path

    from repro.obs import chrome_trace_from_events, read_jsonl_events

    try:
        events = read_jsonl_events(args.input)
    except OSError as error:
        print(f"cannot read {args.input!r}: {error}", file=sys.stderr)
        return 2
    payload = chrome_trace_from_events(events)
    _Path(args.output).write_text(
        json.dumps(payload, sort_keys=True) + "\n"
    )
    print(f"wrote {args.output} ({len(events)} events)")
    if not events:
        print(f"warning: no parseable events in {args.input}", file=sys.stderr)
    return 0


def _cmd_obs_ingest(args) -> int:
    from repro.obs.insight import InsightWarehouse
    from repro.regress.runner import git_sha

    stores = args.store or []
    traces = args.trace or []
    histories = args.history or []
    if not (stores or traces or histories):
        print("nothing to ingest: pass at least one --store/--trace/--history",
              file=sys.stderr)
        return 2
    sha = args.git_sha if args.git_sha else git_sha()
    accounting: dict = {"db": args.db, "stores": {}, "traces": {}, "history": {}}
    with InsightWarehouse(args.db) as warehouse:
        for store_dir in stores:
            try:
                accounting["stores"][store_dir] = warehouse.ingest_store(
                    store_dir, git_sha=sha
                )
            except OSError as error:
                print(f"cannot ingest store {store_dir!r}: {error}",
                      file=sys.stderr)
                return 2
        for path in traces:
            try:
                accounting["traces"][path] = warehouse.ingest_trace(path)
            except OSError as error:
                print(f"cannot ingest trace {path!r}: {error}", file=sys.stderr)
                return 2
        for baselines_dir in histories:
            accounting["history"][baselines_dir] = warehouse.ingest_history(
                baselines_dir
            )
        counts = warehouse.counts()
    if args.json:
        print(json.dumps({"ingested": accounting, "warehouse": counts},
                         indent=1, sort_keys=True))
        return 0
    for store_dir, result in accounting["stores"].items():
        print(f"ingested store {store_dir}: {result['runs']} run(s), "
              f"{result['timings']} timing line(s)")
    for path, events in accounting["traces"].items():
        print(f"ingested trace {path}: {events} event(s)")
    for baselines_dir, rows in accounting["history"].items():
        print(f"ingested history {baselines_dir}: {rows} record(s)")
    print()
    print(report.render_key_values(
        dict(counts), title=f"warehouse: {args.db}"
    ))
    return 0


def _cmd_obs_query(args) -> int:
    from pathlib import Path as _Path

    from repro.obs.insight import InsightWarehouse

    if not _Path(args.db).exists():
        print(f"no warehouse at {args.db!r} — run 'obs ingest' first",
              file=sys.stderr)
        return 2
    with InsightWarehouse(args.db) as warehouse:
        rows = warehouse.query_runs(
            family=args.family, scheme=args.scheme, label=args.label,
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
    headers = ["family", "label", "scheme", "run", "digest", "sha"]
    if args.metric is not None:
        headers.append(args.metric)
    table_rows = []
    for row in shown:
        cells = [row["family"], row["label"], row["scheme"],
                 row["run_index"], str(row["digest"])[:12],
                 row["git_sha"] or "-"]
        if args.metric is not None:
            value = row.get(args.metric)
            cells.append("-" if value is None else value)
        table_rows.append(cells)
    print(report.format_table(headers, table_rows, precision=4))
    suffix = "" if len(shown) == total else f" (showing {len(shown)})"
    print(f"\n{total} run row(s) matched{suffix}")
    return 0


def _cmd_obs_drift(args) -> int:
    from pathlib import Path as _Path

    from repro.obs.insight import InsightWarehouse, drift_advisory
    from repro.regress.runner import append_history

    if not _Path(args.db).exists():
        print(f"no warehouse at {args.db!r} — run 'obs ingest' first",
              file=sys.stderr)
        return 2
    try:
        with InsightWarehouse(args.db) as warehouse:
            findings = warehouse.drift(wall_ratio=args.wall_ratio)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    ledger = None
    if not args.no_history:
        ledger = append_history(drift_advisory(findings), args.baselines)
    if args.json:
        print(json.dumps({
            "count": len(findings),
            "findings": findings,
            "history": str(ledger) if ledger is not None else None,
        }, indent=1, sort_keys=True))
        return 0
    if findings:
        rows = []
        for finding in findings:
            cell = (f"{finding['family']}/{finding['label']}/"
                    f"{finding['scheme']}")
            if finding["kind"] == "metric":
                detail = "metrics changed: " + ", ".join(finding["metrics"][:4])
            else:
                detail = (f"run_s {finding['base_run_s']:.3f} -> "
                          f"{finding['run_s']:.3f} (x{finding['ratio']:.2f})")
            rows.append([
                finding["kind"], cell, str(finding["digest"])[:12],
                f"{finding['from_sha'] or '-'} -> {finding['to_sha'] or '-'}",
                detail,
            ])
        print(report.format_table(
            ["kind", "cell", "digest", "shas", "detail"], rows
        ))
        print(f"\n{len(findings)} drift finding(s)")
    else:
        print("no drift: every multiply-ingested cell is metric-identical "
              "and within the wall-time band")
    if ledger is not None:
        print(f"advisory row appended to {ledger}")
    return 0


def _cmd_obs_explain(args) -> int:
    from repro import sweep as sweep_pkg
    from repro.obs.explain import explain_run, render_waterfall
    from repro.simulation.runner import scheme_run_seed
    from repro.sweep import family_names

    scheme = all_schemes().get(args.scheme)
    if scheme is None:
        print(f"unknown scheme '{args.scheme}'; known schemes: "
              f"{', '.join(all_schemes())}", file=sys.stderr)
        return 2
    try:
        family = sweep_pkg.family(args.family)
    except KeyError:
        print(f"unknown family '{args.family}'; known families: "
              f"{', '.join(family_names())}", file=sys.stderr)
        return 2
    if args.step <= 0:
        print(f"--step must be positive (got {args.step})", file=sys.stderr)
        return 2
    if args.run_index < 0:
        print(f"--run-index must be non-negative (got {args.run_index})",
              file=sys.stderr)
        return 2
    specs = family.expand()
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
    from repro.sweep import ResultStore

    if args.interval <= 0:
        print(f"--interval must be positive (got {args.interval})",
              file=sys.stderr)
        return 2
    store = ResultStore(args.out)
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


def _cmd_obs(args) -> int:
    handlers = {
        "trace": _cmd_obs_trace,
        "summary": _cmd_obs_summary,
        "export": _cmd_obs_export,
        "ingest": _cmd_obs_ingest,
        "query": _cmd_obs_query,
        "drift": _cmd_obs_drift,
        "explain": _cmd_obs_explain,
        "top": _cmd_obs_top,
    }
    return handlers[args.obs_command](args)


def _cmd_regress(args) -> int:
    from repro.regress import runner as regress_runner
    from repro.sweep import ResultStore, SweepConfig

    if args.regress_command == "history":
        records = regress_runner.load_history(args.baselines)
        if args.last is not None and args.last > 0:
            records = records[-args.last:]
        if args.json:
            print(json.dumps(records, indent=1, sort_keys=True))
        else:
            print(regress_runner.render_history(records))
        return 0

    families = args.family or regress_runner.default_family_names()
    error = _validate_sweep_args(args, families)
    if error is not None:
        return error
    config = SweepConfig(
        runs_per_scheme=args.runs, step_s=args.step, sample_interval_s=args.sample
    )

    def sweep():
        return regress_runner.run_regress_sweep(
            families, config, ResultStore(args.out), workers=args.workers
        )

    if args.regress_command == "update":
        result = sweep()
        written = regress_runner.update_baselines(
            result, families, args.baselines, config
        )
        for path in written:
            print(f"wrote {path}")
        print(f"\ncommit the baselines/ diff to adopt the new values "
              f"(cache hits: {result.cache_hits}/{result.total_runs})")
        return 0

    if args.regress_command == "pareto":
        from repro.regress.pareto import fronts_payload

        result = sweep()
        payload = fronts_payload(result.aggregates(), families)
        if args.export:
            from pathlib import Path as _Path

            _Path(args.export).write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n"
            )
            print(f"wrote {args.export}", file=sys.stderr)
        if args.json:
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(regress_runner.render_fronts(payload))
        return 0

    # check
    from repro.regress.compare import RegressReport

    if args.no_families and args.no_pareto:
        print("nothing to check: --no-families and --no-pareto", file=sys.stderr)
        return 2
    report_ = RegressReport(strict=args.strict)
    result = sweep()
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
        from pathlib import Path as _Path

        _Path(args.report).write_text(
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
    from repro.fleet import (
        CHURN_PATTERNS,
        FLEETS,
        GENERATIONS,
        build_churn,
        churn_pattern_names,
    )

    if args.churn is not None:
        if args.churn not in CHURN_PATTERNS:
            print(
                f"unknown churn pattern '{args.churn}'; known patterns: "
                f"{', '.join(churn_pattern_names())}",
                file=sys.stderr,
            )
            return 2
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
    if args.id == "2":
        data = figures.figure2()
    elif args.id == "3":
        data = figures.figure3()
    elif args.id == "4":
        data = figures.figure4()
    elif args.id == "5":
        data = figures.figure5()
    elif args.id == "14":
        data = figures.figure14(num_sequences=2)
    else:
        data = figures.figure15()
    if args.json:
        print(json.dumps(data, indent=2, default=str))
    else:
        print(report.render_key_values({"figure": args.id}))
        print(json.dumps(data, indent=2, default=str))
    return 0


def _cmd_crosstalk(args) -> int:
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
    data = figures.figure12(seed=args.seed)
    rows = [[name, series["mean_online"], 9 - series["mean_online"]] for name, series in data.items()]
    print(report.format_table(["scheme", "mean online APs", "mean sleeping APs"], rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "trace": _cmd_trace,
        "simulate": _cmd_simulate,
        "schemes": _cmd_schemes,
        "sweep": _cmd_sweep,
        "regress": _cmd_regress,
        "obs": _cmd_obs,
        "wattopt": _cmd_wattopt,
        "fleet": _cmd_fleet,
        "figure": _cmd_figure,
        "crosstalk": _cmd_crosstalk,
        "testbed": _cmd_testbed,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
