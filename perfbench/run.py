"""Sweep benchmark: one workload through the default sweep path, checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-serial --seed 0 --seconds 5 --trace 0

Each run starts fresh interpreters (``perfbench/child.py``): set-up
samples and the measured sweeps, which repeat until ``--seconds`` of
sweeping is measured (always at least one sweep).  ``--trace 1`` adds
one traced sweep and its cached re-run for the per-layer numbers.  A
speed probe (``perfbench/speed.py``) runs alongside, and every time is
reported in reference seconds.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every stored record checks out.

Everything a run writes lives under ``.perfbench-tmp/`` in the checkout
and is removed before it exits.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
# A run writes nothing outside its temporary directory, bytecode included.
sys.dont_write_bytecode = True

from perfbench import check, speed  # noqa: E402  (needs ROOT on the path)
from perfbench.child import monotonic  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters whose set-up times make up ``setup_s`` (the median).
SETUP_SAMPLES = 7

#: A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "sim_hours_per_s": ("sim-h/s", "higher"),
    "sweep_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class BenchError(RuntimeError):
    """A child process failed, so the run has no result."""


def layer_unit(name: str) -> str:
    if name.endswith("_per_kernel_s"):
        return "sim-h/s"
    if name.endswith("_per_spec"):
        return "builds/spec"
    if name.endswith("_per_cell"):
        return "attempts/cell"
    if name.endswith(("_frac", "_ratio")):
        return "fraction"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(request: dict, deadline: float) -> dict:
    """Run one ``perfbench.child`` interpreter to completion; its JSON report."""
    request = {**request, "launched": monotonic()}
    # Its own process group, so a timeout can stop the child and its workers.
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", json.dumps(request)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{request['mode']} process exceeded the {RUN_BUDGET_S:g} s budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{request['mode']} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(args, workload, tmp: Path, probe: subprocess.Popen) -> dict:
    """Run the children of one benchmark run; their reports by role."""
    deadline = monotonic() + RUN_BUDGET_S
    # At the default seed every record must match the committed reference;
    # at any other seed the first sweep is held to the rules and every
    # later one to the first, record for record.
    default_seed = workload.offset(args.seed) == 0
    reference = None
    if default_seed and not args.update_reference:
        reference = str(check.reference_path(workload.name))
    base = {"workload": workload.name, "seed": args.seed, "trace": False}
    # The probe must time the CPU the measured work runs on: CPUs of one
    # VM change speed apart from each other.  So a single-process child
    # runs on one CPU together with the probe; a pooled sweep and the
    # probe may use every CPU.
    every = os.sched_getaffinity(0)
    one = {min(every)}
    sweep_cpus = one if workload.workers == 1 else every

    def run(request: dict, cpus) -> dict:
        for pid in (0, probe.pid):  # 0: this process, whose CPUs the child inherits
            os.sched_setaffinity(pid, cpus)
        return run_child(request, deadline)

    try:
        reports: Dict[str, object] = {
            "setups": [
                run({**base, "mode": "setup", "store": str(tmp / f"setup-{i}")}, one)
                for i in range(SETUP_SAMPLES)
            ]
        }
        reports["measured"] = run({
            **base, "mode": "sweep", "store": str(tmp / "store"), "seconds": args.seconds,
            "expect": reference, "rules": args.update_reference or not default_seed,
            "fingerprints_out": str(tmp / "measured.json"),
        }, sweep_cpus)
        if args.trace:
            reports["traced"] = run({
                **base, "mode": "sweep", "store": str(tmp / "traced"), "trace": True,
                "expect": reference or str(tmp / "measured.json"),
            }, sweep_cpus)
    finally:
        os.sched_setaffinity(0, every)
    return reports


def summarize(args, reports: dict, samples) -> dict:
    """End-to-end (and, traced, per-layer) metrics of one run, in reference seconds."""

    def factor(start: float, end: float) -> float:
        return speed.factor(samples, start, end)

    setups = reports["setups"]
    sweeps = [reports[role] for role in ("measured", "traced") if role in reports]
    iterations = reports["measured"]["iterations"]
    attempted = sum(it["cells"] for report in sweeps for it in report["iterations"])
    failed = sum(it["failed"] for report in sweeps for it in report["iterations"])
    problems = [line for report in sweeps for line in report["problems"]]
    factors = [factor(it["started"], it["ended"]) for it in iterations]
    walls = [it["wall_s"] * f for it, f in zip(iterations, factors)]
    end_to_end = {
        "sim_hours_per_s": statistics.median(
            it["sim_hours"] / wall for it, wall in zip(iterations, walls)
        ),
        "sweep_cpu_s": statistics.median(it["cpu_s"] * f for it, f in zip(iterations, factors)),
        "setup_s": statistics.median(
            (report["ready"] - report["launched"]) * factor(report["launched"], report["ready"])
            for report in setups
        ),
        # A process's peak only grows, so later sweeps in it would report
        # the earlier ones' leftovers: the first sweep is what a CLI call sees.
        "peak_rss_mb": iterations[0]["peak_rss_mb"],
    }
    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": failed == 0 and not problems,
        "end_to_end": end_to_end,
        "sweeps": len(iterations),
        "cells": iterations[0]["cells"],
        "raw": {
            "wall_s": statistics.median(it["wall_s"] for it in iterations),
            "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
            "setup_s": statistics.median(r["ready"] - r["launched"] for r in setups),
            "speed_factor": statistics.median(factors),
        },
    }
    if args.trace:
        traced = reports["traced"]
        if traced["counters"] != reports["measured"]["counters"]:
            problems.append(
                "program counters differ between the traced and untraced sweeps: "
                f"{traced['counters']} vs {reports['measured']['counters']}"
            )
            summary["correct"] = False
        sweep, rerun = traced["iterations"]
        # Per-layer seconds are scaled like the end-to-end ones, by the
        # speed over the traced sweep and its re-run.
        traced_factor = factor(sweep["started"], rerun["ended"])
        layers = {}
        for name, value in traced["layers"].items():
            unit = layer_unit(name)
            layers[name] = value * traced_factor if unit == "s" else (
                value / traced_factor if unit == "sim-h/s" else value
            )
        summary["layers"] = {
            "setup.import_s": statistics.median(
                (report["imported"] - report["launched"])
                * factor(report["launched"], report["imported"])
                for report in setups
            ),
            **layers,
            "trace.overhead_frac": (
                sweep["wall_s"] * factor(sweep["started"], sweep["ended"])
                / statistics.median(walls) - 1.0
            ),
        }
    return summary


def render(args, workload, summary: dict) -> List[str]:
    lines = [
        f"workload  : {workload.name} (seed {args.seed}) - {workload.why}",
        f"measured  : {summary['sweeps']} sweep(s) of {summary['cells']} cells; "
        "times in reference seconds (see perfbench/speed.py)",
        "raw       : " + ", ".join(
            f"{name} {value:.4g}" for name, value in summary["raw"].items()
        ),
    ]
    for name, value in summary["end_to_end"].items():
        unit, better = END_TO_END[name]
        lines.append(f"{name:<34} {value:>14.6g} {unit:<8} ({better} is better)")
    lines.append(
        f"{'failed_cells_frac':<34} {summary['failed'] / summary['attempted']:>14.6g} "
        f"{'fraction':<8} ({summary['failed']} of {summary['attempted']} cells; must be 0)"
    )
    for name, value in summary.get("layers", {}).items():
        lines.append(f"{name:<34} {value:>14.6g} {layer_unit(name)}")
    return lines


def result_line(args, summary: dict) -> str:
    if args.trace:
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in summary["layers"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name][0]}
            for name, value in summary["end_to_end"].items()
        }
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    })


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the spec-seed offset; 0 is the catalog")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="sweeping time to measure (at least one sweep runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced sweep and report the per-layer metrics")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite perfbench/reference/<workload>.json (default seed only)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.update_reference and workload.offset(args.seed):
        print("perfbench: --update-reference needs a seed that picks offset 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    probe = subprocess.Popen(
        [sys.executable, "-m", "perfbench.speed", str(tmp / "speed.txt")],
        cwd=ROOT, env=child_env(),
    )
    try:
        try:
            reports = measure(args, workload, tmp, probe)
        finally:
            probe.kill()
            probe.wait()
        summary = summarize(args, reports, speed.read_samples(tmp / "speed.txt"))
        if args.update_reference and summary["correct"]:
            reference = check.reference_path(workload.name)
            reference.parent.mkdir(exist_ok=True)
            shutil.copyfile(tmp / "measured.json", reference)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still has its directory there
    print("\n".join(render(args, workload, summary)))
    for problem in summary["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(result_line(args, summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
