"""The repository's benchmark: LEMP against the naive product, end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
See ``perfbench/README.md`` for what each metric measures and which layer
metric should move which end-to-end metric.
"""
