"""One cold sweep of one workload in this (fresh) process.

Run by ``run.py`` with ``PYTHONPATH=src`` and ``REPRO_CACHE_DIR`` pointing at
a fresh empty directory, so the result cache and the simulation block store
start cold.  Prints one JSON object: the set-up end time (``time.monotonic``,
which the parent subtracts its spawn time from), the sweep's host wall time
and its start and end on the same clock, the process's peak RSS, the result
table's sha256 and the store entry counts; with ``--trace-out`` also the
per-layer figures of the traced sweep.

    PYTHONPATH=src REPRO_CACHE_DIR="$(mktemp -d)" python3 perfbench/sweep.py \\
        --workload fig13-cold
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def table_digest(table) -> str:
    """Canonical sha256 of a result table (columns and rows)."""
    payload = json.dumps(
        {"columns": list(table.columns), "rows": table.rows},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def store_counts(root: Path) -> dict:
    """Entries per cache namespace, plus quarantined files."""
    counts = {}
    if root.exists():
        for namespace in sorted(root.iterdir()):
            pattern = "*.bad" if namespace.name == "_quarantine" else "*.json"
            counts[namespace.name] = sum(1 for _ in namespace.rglob(pattern))
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="trace the sweep; write its spans here")
    parser.add_argument("--table-out", help="write the result rows here (JSON)")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    name, options = workload["experiment"], workload["options"]

    # Set-up: import repro, register the built-in experiments, build the spec.
    import repro  # noqa: F401
    from repro.experiments import registry, runner

    spec = registry.get_experiment(name).build(dict(options))
    spec.trials()
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    # Import every repro module before the timer starts, traced or not (the
    # tracer needs them all bound), so both kinds of sweep time the same work.
    import spans

    spans.import_all_repro_modules()
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        spans.install(tracer)

    sweep_start = time.monotonic()
    started = time.perf_counter()
    table = runner.run_named(name, dict(options), jobs=1)
    wall_s = time.perf_counter() - started
    sweep_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cache_root = Path(os.environ["REPRO_CACHE_DIR"])
    result = {
        "setup_end": setup_end,
        "sweep_start": sweep_start,
        "sweep_end": sweep_end,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": table_digest(table),
        "trials": table.meta["trials"],
        "failed": table.meta["failed"],
        "retried": table.meta["retried"],
        "store": store_counts(cache_root),
    }
    if tracer is not None:
        metrics = spans.layer_metrics(tracer, wall_s)
        metrics["experiments.cache.quarantined"] = result["store"].get("_quarantine", 0)
        metrics["experiments.runner.trials"] = table.meta["trials"]
        metrics["experiments.runner.failed"] = table.meta["failed"]
        metrics["experiments.runner.retried"] = table.meta["retried"]
        metrics["planner.prune_ratio"] = (
            table.rows[0]["prune_ratio"] if name == "autotune" and table.rows else 0.0
        )
        result["layers"] = metrics
        spans.write_chrome_trace(tracer, started, args.trace_out)
    if args.table_out:
        with open(args.table_out, "w", encoding="utf-8") as handle:
            json.dump({"columns": list(table.columns), "rows": table.rows}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
