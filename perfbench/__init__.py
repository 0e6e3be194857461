"""The repository benchmark: workloads, layer tracing and the runner.

Run it from the repository root::

    python3 perfbench/run.py --workload metadata_rw --seed 0 \\
        --seconds 25 --trace 0

See ``run.py`` for the metrics and ``workloads.py`` for the workloads.
"""
