"""Untimed output checks of one sweep, plus the ``paper_gap`` figure.

Reads the result rows a timed sweep wrote (``sweep.py --table-out``) and
checks them; ``--seed`` picks which trials are re-simulated:

* ``fig13-cold``: every row has ``simulated_fraction == 1.0``, and sampled
  trials re-simulated with ``mode="exact"`` give identical ``core_cycles``;
* ``scaling-cold``: every ``cores == 1`` row has ``single_core_match``, and
  sampled trials re-run through ``simulate_multicore(memo=False)`` give
  identical ``core_cycles``;
* ``autotune-cold``: ``bound_cycles <= cycles`` for every simulated mapping,
  and the frontier is non-empty.

``paper_gap`` comes from the paper's headline pair (VEGETA-D-1-2 vs
VEGETA-S-16-2+OF) over ResNet50-L1..L3 and the three structured patterns:
max over patterns of |ln(simulated speed-up / paper speed-up)|.  On
``fig13-cold`` the pair's ResNet50-L1 rows must also equal the timed table's.

Prints one JSON object: ``checks`` run, ``failures`` (descriptions),
``paper_gap`` and the simulated ``speedups``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from workloads import WORKLOADS

#: Trials each run re-simulates, picked by ``--seed``.
SAMPLE = 2

#: The paper's abstract speed-ups of VEGETA-S-16-2+OF over VEGETA-D-1-2.
PAPER_SPEEDUPS = {"4:4": 1.09, "2:4": 2.20, "1:4": 3.74}
PAPER_BASELINE = "VEGETA-D-1-2"
PAPER_TARGET = "VEGETA-S-16-2+OF"
#: The layers ``paper_gap`` is taken over (Table IV's first three).
PAPER_LAYERS = 3


class Checks:
    def __init__(self) -> None:
        self.count = 0
        self.failures = []

    def expect(self, ok: bool, description: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(description)


def check_fig13(rows, trials, rng, checks: Checks) -> None:
    from repro.analysis.runtime import resolve_engine, simulate_layer
    from repro.cpu.params import MachineParams
    from repro.types import SparsityPattern
    from repro.workloads.layers import get_layer

    for row in rows:
        checks.expect(
            row["simulated_fraction"] == 1.0,
            f"fig13 {row['layer']}/{row['pattern']}/{row['engine']}: "
            f"simulated_fraction {row['simulated_fraction']}",
        )
    for index in rng.sample(range(len(rows)), SAMPLE):
        row, params = rows[index], trials[index].params
        exact = simulate_layer(
            get_layer(params["layer"]),
            SparsityPattern(params["pattern"]),
            resolve_engine(params["engine"]),
            machine=MachineParams.from_dict(params["machine"]),
            max_output_tiles=params["max_output_tiles"],
            mode="exact",
        )
        checks.expect(
            exact.result.core_cycles == row["core_cycles"],
            f"fig13 trial {index}: exact {exact.result.core_cycles} "
            f"!= fast {row['core_cycles']}",
        )


def check_scaling(rows, trials, rng, checks: Checks) -> None:
    from repro.analysis.runtime import resolve_engine
    from repro.cpu.multicore import SharedMemoryParams, simulate_multicore
    from repro.cpu.params import MachineParams, get_topology
    from repro.kernels.sharding import shard_kernel
    from repro.types import GemmShape, SparsityPattern

    for row in rows:
        if row["cores"] == 1:
            checks.expect(
                row["single_core_match"] is True,
                f"scaling {row['workload']}/{row['strategy']}/{row['topology']}: "
                f"cores=1 does not match the unsharded kernel",
            )
    for index in rng.sample(range(len(rows)), SAMPLE):
        row, params = rows[index], trials[index].params
        workload = params["workload"]
        topology_name = params.get("topology", "flat")
        topology = None if topology_name == "flat" else get_topology(topology_name)
        sharded = shard_kernel(
            workload["kind"],
            GemmShape(m=workload["m"], n=workload["n"], k=workload["k"]),
            SparsityPattern(workload["pattern"]),
            int(params["cores"]),
            params["strategy"],
            topology=topology,
        )
        result = simulate_multicore(
            sharded.programs,
            machine=MachineParams.from_dict(workload["machine"]),
            engine=resolve_engine(params["engine"]),
            shared=SharedMemoryParams(**params["shared"]) if topology is None else None,
            topology=topology,
            memo=False,
        )
        checks.expect(
            result.core_cycles == row["core_cycles"],
            f"scaling trial {index}: memo=False {result.core_cycles} "
            f"!= memoized {row['core_cycles']}",
        )


def check_autotune(rows, trials, rng, checks: Checks) -> None:
    for row in rows:
        if row["simulated"]:
            checks.expect(
                row["bound_cycles"] <= row["cycles"],
                f"autotune {row['engine']}/{row['cores']}/{row['strategy']}/"
                f"{row['topology']}: bound {row['bound_cycles']} > {row['cycles']}",
            )
    checks.expect(
        any(row["on_frontier"] for row in rows), "autotune: empty frontier"
    )


CHECKERS = {
    "fig13": check_fig13,
    "scaling": check_scaling,
    "autotune": check_autotune,
}


def paper_gap(timed_rows, experiment: str, checks: Checks):
    """The headline pair's distance to the paper, and its speed-ups."""
    from repro.experiments.figures import figure13_spec
    from repro.experiments.runner import run_experiment
    from repro.workloads.layers import all_layers

    layers = [layer.name for layer in all_layers()[:PAPER_LAYERS]]
    table = run_experiment(
        figure13_spec(layers=layers, engine_names=(PAPER_BASELINE, PAPER_TARGET)),
        jobs=1,
        cache=False,
    )
    if experiment == "fig13":
        timed = {
            (row["layer"], row["pattern"], row["engine"]): row["core_cycles"]
            for row in timed_rows
        }
        for row in table.rows:
            key = (row["layer"], row["pattern"], row["engine"])
            if key in timed:
                checks.expect(
                    timed[key] == row["core_cycles"],
                    f"fig13 {key}: sweep {timed[key]} != pair {row['core_cycles']}",
                )
    speedups = {}
    for pattern, paper in PAPER_SPEEDUPS.items():
        speedups[pattern] = table.geomean_speedup(
            "core_cycles_scaled",
            pivot_column="engine",
            baseline=PAPER_BASELINE,
            target=PAPER_TARGET,
            group_by=("layer",),
            where={"pattern": pattern},
        )
    gap = max(
        abs(math.log(speedups[pattern] / paper))
        for pattern, paper in PAPER_SPEEDUPS.items()
    )
    return gap, speedups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--table", required=True, help="rows written by sweep.py")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    experiment = workload["experiment"]

    from repro.experiments import registry

    with open(args.table, encoding="utf-8") as handle:
        rows = json.load(handle)["rows"]
    trials = registry.get_experiment(experiment).build(dict(workload["options"])).trials()
    checks = Checks()
    CHECKERS[experiment](rows, trials, random.Random(args.seed), checks)
    gap, speedups = paper_gap(rows, experiment, checks)
    print(
        json.dumps(
            {
                "checks": checks.count,
                "failures": checks.failures,
                "paper_gap": gap,
                "speedups": speedups,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
