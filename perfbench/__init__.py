"""One benchmark for the whole system: four workloads, outside-in layer tracing.

Run it from the repository root::

    python3 perfbench/run.py --workload kernel-resident --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for what each workload measures and why.
"""
