"""The benchmark's workloads: fixed, registered ``repro`` sweeps.

Each workload is one real registered experiment run through
``repro.experiments.runner.run_named`` (the path ``python -m repro run``
takes), cold, serial (``jobs=1``), with the result cache and the simulation
block store on and rooted in a fresh empty directory.  The sweeps are fixed
specs; the benchmark's ``--seed`` only picks the correctness-check sample.

``PREDICTED_CALLS`` is the bypass table of the benchmark doc: for each
workload, the layers that must record calls (True) and those that must
record none (False).  ``report.py`` checks it against a traced run.
"""

from __future__ import annotations

from typing import Any, Dict

WORKLOADS: Dict[str, Dict[str, Any]] = {
    # fig13 over ResNet50-L1: 3 patterns x 10 engines = 30 trials.
    "fig13-cold": {"experiment": "fig13", "options": {"max_layers": 1}},
    # scaling: 4 workloads x cores {1,16} x {row-block, 2d-cyclic} x
    # dual-socket = 16 trials; every dual-socket trial also re-arbitrates its
    # shards on the flat pool.
    "scaling-cold": {
        "experiment": "scaling",
        "options": {
            "cores": [1, 16],
            "strategies": ["row-block", "2d-cyclic"],
            "topologies": ["dual-socket"],
        },
    },
    # autotune --smoke on cores {1,2,4}: sparse-2:4, 143 mapping points.
    "autotune-cold": {
        "experiment": "autotune",
        "options": {"smoke": True, "cores": [1, 2, 4]},
    },
}

PREDICTED_CALLS: Dict[str, Dict[str, bool]] = {
    "fig13-cold": {
        "kernels.build_calls": True,
        "kernels.shard_calls": False,
        "cpu.columnar.lru_calls": True,
        "cpu.multicore.key_calls": False,
        "cpu.multicore.simulate_calls": False,
        "cpu.simulator.run_calls": True,
        "cpu.topology.arbitrate_calls": False,
        "planner.statics_calls": False,
    },
    "scaling-cold": {
        "kernels.build_calls": True,
        "kernels.shard_calls": True,
        "cpu.columnar.lru_calls": True,
        "cpu.multicore.key_calls": True,
        "cpu.multicore.simulate_calls": True,
        "cpu.simulator.run_calls": True,
        "cpu.topology.arbitrate_calls": True,
        "planner.statics_calls": False,
    },
    "autotune-cold": {
        "kernels.build_calls": True,
        "kernels.shard_calls": True,
        "cpu.columnar.lru_calls": True,
        "cpu.multicore.key_calls": True,
        "cpu.multicore.simulate_calls": True,
        "cpu.simulator.run_calls": True,
        "cpu.topology.arbitrate_calls": True,
        "planner.statics_calls": True,
    },
}
