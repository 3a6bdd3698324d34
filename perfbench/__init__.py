"""The repository benchmark: three workloads over the posit training/serving stack.

Run one workload with::

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which layer
each per-layer metric belongs to.
"""
