"""Energy-savings attribution: where do the saved kWh actually come from?

``obs explain`` re-runs one grid cell **twice** — the scheme itself and
its ``no-sleep`` twin at the *same* seed (so both see the same traffic
trace) — and decomposes the twin-vs-scheme kWh delta into a savings
waterfall:

* **gross sleep savings** per device generation — the active watts not
  drawn while devices slept (``active_w × sleeping-seconds``),
* **standby draw** per generation — the sleep watts the hardware still
  burns while asleep (zero on the homogeneous paper fleet, whose model
  charges sleeping gateways nothing),
* **wake/boot penalty** per generation — the cost of waking above active
  draw (``(waking_w − active_w) × waking-seconds``; zero for hardware
  that boots at active draw, and for idealised instant transitions),
* **churn-forced wakes** — the share of the wake penalty attributable to
  wakes that immediately follow a churn event (proportional
  episode-seconds attribution from ``GatewayArray.transition_log``),
* direct category deltas for the ISP side (modems, line cards, shelf),
* a **residual** that absorbs floating-point dust and churn-membership
  ambiguity, making the waterfall sum *exactly* to the total delta.

The per-generation state-seconds come from the simulator's tracer-gated
``energy_segments`` ledger — the exact end-of-step states every energy
segment was charged with — so on churn-free scenarios the residual is
provably ≤ 1e-9 kWh (enforced by tests for the smoke and smoke-watt
families).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.access.gateway_array import STATE_WAKING
from repro.core.schemes import SchemeConfig, no_sleep
from repro.obs.tracer import SimTracer
from repro.simulation.simulator import AccessNetworkSimulator

#: Joules per kilowatt-hour.
J_PER_KWH = 3.6e6

#: ISP-side categories reported as direct charged-energy deltas.
ISP_ROWS = (
    ("isp_modem", "isp modems"),
    ("line_card", "line cards"),
    ("dslam_shelf", "dslam shelf"),
)


def _generation_watts(simulator: AccessNetworkSimulator) -> List[Tuple[str, float, float, float]]:
    """Per-generation ``(name, active_w, charged_sleep_w, waking_w)``.

    The *charged* sleep draw is what the energy model actually bills a
    sleeping device: the generation's ``sleep_w`` on heterogeneous
    fleets, and zero on the homogeneous fast path (whose
    ``user_side_power`` has no sleeping term).
    """
    if simulator._fleet_hetero:
        return [
            (
                name,
                generation.power.active_w,
                generation.power.sleep_w,
                generation.power.waking_w,
            )
            for name, generation in zip(
                simulator._generation_names, simulator.fleet.generations
            )
        ]
    device = simulator.power_model.gateway
    return [(simulator._generation_names[0], device.active_w, 0.0, device.waking_w)]


def _state_seconds(simulator: AccessNetworkSimulator) -> Tuple[List[float], List[float]]:
    """Charged per-generation (waking, sleeping-in-service) device-seconds."""
    n = len(simulator._generation_names)
    waking_s = [0.0] * n
    sleeping_s = [0.0] * n
    for start, end, counts in simulator.lines[0].energy_segments or ():
        duration = end - start
        for index, (_active, waking, sleeping) in enumerate(counts):
            if waking:
                waking_s[index] += waking * duration
            if sleeping:
                sleeping_s[index] += sleeping * duration
    return waking_s, sleeping_s


def _waking_episodes(simulator: AccessNetworkSimulator, horizon: float):
    """``(generation_index, start_s, end_s)`` of every waking episode."""
    log = simulator.gateway_array.transition_log or []
    generation = simulator.gateway_array._generation
    open_since: Dict[int, float] = {}
    episodes = []
    for ts, gateway_id, _old, new in log:
        if new == STATE_WAKING:
            open_since[gateway_id] = ts
        elif gateway_id in open_since:
            episodes.append((generation[gateway_id], open_since.pop(gateway_id), ts))
    for gateway_id, since in open_since.items():
        episodes.append((generation[gateway_id], since, horizon))
    return episodes


def _churn_fractions(
    simulator: AccessNetworkSimulator, tracer: SimTracer, horizon: float, step_s: float
) -> Tuple[List[float], int, int]:
    """Per-generation churn-attributed share of waking time.

    A waking episode counts as *churn-forced* when it starts within one
    simulation step after a churn event (flows rescued off a departing
    gateway wake their new hosts on the next decision round).  Returns
    the per-generation fraction of episode-seconds so attributed, plus
    (total, churn-forced) episode counts.
    """
    n = len(simulator._generation_names)
    episodes = _waking_episodes(simulator, horizon)
    if not episodes:
        return [0.0] * n, 0, 0
    churn_at = sorted(
        event["ts"] for event in tracer.events if event.get("cat") == "churn"
    )
    total = [0.0] * n
    forced = [0.0] * n
    forced_count = 0
    for gen_index, start, end in episodes:
        total[gen_index] += end - start
        if any(0.0 <= start - at <= step_s for at in churn_at):
            forced[gen_index] += end - start
            forced_count += 1
    fractions = [
        forced[i] / total[i] if total[i] > 0 else 0.0 for i in range(n)
    ]
    return fractions, len(episodes), forced_count


def explain_run(
    scenario,
    scheme: SchemeConfig,
    seed: int,
    step_s: float = 2.0,
    sample_interval_s: float = 60.0,
    power_model=None,
) -> Dict[str, object]:
    """Run ``scheme`` and its no-sleep twin; return the savings waterfall.

    The twin runs at the *same* seed, so both simulations replay the
    identical traffic trace and the kWh delta is purely the scheme's
    doing.  The returned payload carries the waterfall ``rows`` (signed
    kWh, positive = saved), the two absolute energies, and the residual;
    ``sum(row kwh) == delta_kwh`` exactly by construction.
    """
    kwargs = {} if power_model is None else {"power_model": power_model}
    tracer = SimTracer()
    simulator = AccessNetworkSimulator(
        scenario=scenario,
        scheme=scheme,
        step_s=step_s,
        sample_interval_s=sample_interval_s,
        seed=seed,
        tracer=tracer,
        **kwargs,
    )
    result = simulator.run()
    twin_sim = AccessNetworkSimulator(
        scenario=scenario,
        scheme=no_sleep(),
        step_s=step_s,
        sample_interval_s=sample_interval_s,
        seed=seed,
        **kwargs,
    )
    twin = twin_sim.run()

    horizon = result.duration
    watts = _generation_watts(simulator)
    waking_s, sleeping_s = _state_seconds(simulator)
    churn_fraction, episode_count, forced_count = _churn_fractions(
        simulator, tracer, horizon, step_s
    )

    rows: List[Dict[str, object]] = []

    def add(component: str, kwh: float, generation: Optional[str] = None) -> None:
        rows.append({"component": component, "generation": generation, "kwh": kwh})

    for index, (name, active_w, sleep_w, waking_w) in enumerate(watts):
        add("gross sleep savings", active_w * sleeping_s[index] / J_PER_KWH, name)
        add("standby draw", -sleep_w * sleeping_s[index] / J_PER_KWH, name)
        penalty = -(waking_w - active_w) * waking_s[index] / J_PER_KWH
        forced = penalty * churn_fraction[index]
        add("wake/boot penalty", penalty - forced, name)
        add("churn-forced wakes", forced, name)
    scheme_categories = result.energy.per_category_j
    twin_categories = twin.energy.per_category_j
    for category, label in ISP_ROWS:
        add(label, (
            twin_categories.get(category, 0.0) - scheme_categories.get(category, 0.0)
        ) / J_PER_KWH)

    delta_kwh = twin.energy.total_kwh - result.energy.total_kwh
    residual = delta_kwh - sum(row["kwh"] for row in rows)
    add("residual", residual)

    return {
        "scheme": scheme.name,
        "seed": seed,
        "step_s": step_s,
        "duration_s": horizon,
        "no_sleep_kwh": twin.energy.total_kwh,
        "scheme_kwh": result.energy.total_kwh,
        "delta_kwh": delta_kwh,
        "rows": rows,
        "residual_kwh": residual,
        "wake_episodes": episode_count,
        "churn_forced_episodes": forced_count,
    }


def render_waterfall(payload: Dict[str, object]) -> str:
    """The waterfall as a plain-text report table plus a summary block."""
    from repro.analysis import report

    table = report.format_table(
        ["component", "generation", "kWh saved"],
        [
            [row["component"], row["generation"] or "-", row["kwh"]]
            for row in payload["rows"]
        ],
        precision=6,
    )
    summary = report.render_key_values({
        "scheme": payload["scheme"],
        "no_sleep_kwh": round(payload["no_sleep_kwh"], 6),
        "scheme_kwh": round(payload["scheme_kwh"], 6),
        "delta_kwh": round(payload["delta_kwh"], 6),
        "residual_kwh": f"{payload['residual_kwh']:.3e}",
        "wake_episodes": payload["wake_episodes"],
        "churn_forced_episodes": payload["churn_forced_episodes"],
    }, title="Energy attribution vs no-sleep twin")
    return f"{table}\n\n{summary}"
