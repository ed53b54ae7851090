"""End-to-end sweep benchmark of the repro package (see perfbench/README.md)."""
