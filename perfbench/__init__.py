"""The repository benchmark: three workloads, end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n>``; see
``perfbench/README.md`` for the workloads, metrics and layer map.
"""
