#!/usr/bin/env python3
"""Replay of the three-floor testbed deployment (Sec. 5.3, Fig. 12).

Nine 3 Mbps ADSL gateways, one BH2 laptop per line, at most three reachable
gateways per laptop and no backup — driven by the discrete-event scheduler in
``repro.testbed`` with a central status server emulating gateway sleep,
exactly like the paper's prototype.
"""

from repro.testbed.deployment import TestbedConfig
from repro.testbed.replay import TestbedReplay
from repro.traces.synthetic import generate_crawdad_like_trace


def main() -> None:
    trace = generate_crawdad_like_trace(seed=3)
    replay = TestbedReplay(trace, config=TestbedConfig(), seed=3)
    results = replay.run_comparison()

    print("minute   SoI online   BH2 online")
    soi, bh2 = results["SoI"], results["BH2"]
    for (time_s, soi_online), (_t, bh2_online) in zip(
        zip(soi.sample_times, soi.online_gateways), zip(bh2.sample_times, bh2.online_gateways)
    ):
        print(f"{time_s / 60.0:6.1f} {soi_online:12d} {bh2_online:12d}")

    print()
    for name, result in results.items():
        sleeping = replay.config.num_gateways - result.mean_online()
        print(f"{name:4s}: on average {result.mean_online():.2f} gateways online, "
              f"{sleeping:.2f} sleeping, {result.completed_flows} flows replayed")
    print("(the paper's live testbed: BH2 puts 5.46 of 9 gateways to sleep, SoI only 3.72)")


if __name__ == "__main__":
    main()
