"""Benchmark harness for netsde; run it as python3 perfbench/run.py."""
