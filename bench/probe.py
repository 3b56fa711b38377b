"""Time one set-up in a fresh process: ``python3 -m bench.probe WORKLOAD SEED``.

Prints the set-up seconds, measured exactly as a benchmark run measures
its own: from before ``repro`` is imported to the first timed request.
"""

from __future__ import annotations

import sys
import time

from bench import harness, spec


def main(argv: list[str]) -> None:
    """Set up ``WORKLOAD`` for ``SEED`` once and print how long it took."""
    workload, seed = argv
    if workload not in spec.WORKLOADS:
        raise SystemExit(f"bench.probe: unknown workload {workload!r}")
    harness.use_checkout_source()
    inputs = harness.make_inputs(workload, int(seed))
    start = time.perf_counter()
    state = harness.setup(workload, inputs)
    elapsed = time.perf_counter() - start
    harness.teardown(workload, state)
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
