"""Wall-clock benchmark of the prediction service and the simulated testbed.

Run from the repository root::

    python3 -m bench                       # every workload, one child each
    python3 -m bench --workload testbed --seed 7 --trace 1
    python3 -m bench compare BASE.json HEAD.json

See ``bench/README.md`` for the workloads, the metrics and their bounds.
Importing this package has no side effects and does not import ``repro``:
inputs are generated before the set-up clock starts.
"""
