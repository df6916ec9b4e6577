"""End-to-end and per-layer benchmark of the RTBH reproduction.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` declares the
workloads and the metrics each mode prints.
"""
