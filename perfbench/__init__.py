"""Benchmark of the cvtrust command line: workloads, checks and tracing."""
