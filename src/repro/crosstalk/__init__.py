"""Crosstalk substrate: DSL physical-layer model (Sec. 6 of the paper).

The paper measures, on a real Alcatel 7302 ISAM DSLAM with 24 VDSL2 modems
and a 25-pair copper bundle, how the synchronised bit rate of the remaining
active lines grows as other lines in the bundle are powered off.  We cannot
ship the copper, so this package implements the standard far-end crosstalk
(FEXT) + Shannon-gap bit-loading model of a DSL bundle, calibrated so that
the published magnitudes hold: roughly 1.1-1.2 % extra rate per deactivated
line, ~14 % with half the lines off and ~25 % with 75 % off.
"""

from repro.crosstalk.fext import ChannelModel, FextModel, NoiseModel
from repro.crosstalk.bitloading import LineProfile, VdslBundle
from repro.crosstalk.experiments import CrosstalkExperiment, SpeedupCurve, run_figure14_experiment
from repro.crosstalk.attenuation import AttenuationSynthesizer

__all__ = [
    "ChannelModel",
    "FextModel",
    "NoiseModel",
    "LineProfile",
    "VdslBundle",
    "CrosstalkExperiment",
    "SpeedupCurve",
    "run_figure14_experiment",
    "AttenuationSynthesizer",
]
