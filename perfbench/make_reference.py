"""Regenerate the reference trajectories run.py checks at the default seed.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

For every workload this runs loop 0 of the default seed through
``closed_loop_simulate`` and stores its start state and plant states. Run
it only when a change alters the closed loop on purpose, and say by how
much the states moved.
"""

import json

# run pins BLAS before numpy loads, so it is imported first
from run import (BENCH, DEFAULT_SEED, WORKLOADS, harness, load,
                 reference_path, start_state)

import numpy as np


def main():
    reference_path("x").parent.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        scenario = load(workload)
        x0 = start_state(scenario, DEFAULT_SEED, 0)
        log = harness.closed_loop_simulate(scenario, x0)
        if log.failed:
            raise SystemExit(f"{workload}: {log.failure_reason}")
        doc = {"workload": workload, "seed": DEFAULT_SEED, "loop": 0,
               "x0": x0.tolist(),
               "states": np.round(log.states, 10).tolist()}
        reference_path(workload).write_text(json.dumps(doc) + "\n")
        print(f"{workload}: {log.states.shape[0]} states -> "
              f"{reference_path(workload).relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
