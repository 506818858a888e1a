"""Benchmark for the entharvest package; see README.md in this directory."""
