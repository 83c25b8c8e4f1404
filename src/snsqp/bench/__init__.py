"""Benchmark problems, the experiment runner and the CLI."""
