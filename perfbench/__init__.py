"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``.  See ``perfbench/README.md``.
"""
