"""Figure and table regeneration.

Each ``figure*`` function in :mod:`repro.analysis.figures` returns the data
series behind the corresponding figure of the paper as plain dictionaries
and lists, so they can be printed, asserted against in benchmarks, or fed
to any plotting library.  :mod:`repro.analysis.report` renders them as
text tables.

Import :mod:`repro.analysis.figures` as a submodule
(``from repro.analysis import figures``): the package does not load it,
because it pulls in the crosstalk, testbed and trace-analysis models, which
a sweep does not need.
"""

from repro.analysis import report

__all__ = ["report"]
