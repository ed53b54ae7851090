"""Traffic trace substrate.

The paper's evaluation replays the CRAWDAD UCSD wireless traces (272 clients
over 40 access points during 24 hours) and characterises a 10 K-subscriber
commercial ADSL dataset.  Neither dataset can be shipped here, so this
package provides seeded synthetic generators that reproduce the published
aggregate statistics (diurnal utilisation shape, continuous light traffic,
inter-packet-gap distribution).  The package exports the trace model and
the generator the simulator replays; the ADSL utilisation model
(:mod:`repro.traces.adsl`) and the trace analysis used by the figures
(:mod:`repro.traces.analysis`) are imported as submodules.
"""

from repro.traces.models import Flow, ClientTrace, WirelessTrace, TraceStats
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator, generate_crawdad_like_trace

__all__ = [
    "Flow",
    "ClientTrace",
    "WirelessTrace",
    "TraceStats",
    "SyntheticTraceConfig",
    "SyntheticTraceGenerator",
    "generate_crawdad_like_trace",
]
