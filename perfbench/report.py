"""Run every workload, print all metrics, and check the bypass predictions.

    python3 perfbench/report.py [--seconds 30] [--seed 1]

For each workload this runs ``run.py`` twice, untraced (end-to-end metrics)
and traced (per-layer metrics), then prints the end-to-end metrics with
their units and one per-layer table with a column per workload.  It is also
the benchmark's self-test: it exits non-zero unless every run is correct,
every traced run attributes at least 95% of its wall time to a layer
below the root runner span, and
every layer records calls exactly on the workloads ``PREDICTED_CALLS``
names (``workloads.py``), and the traced run's table digest equals the
untraced run's.  ``run.py`` itself checks, inside every run, that all sweeps
agree on the digest and write equal store entries (hermetic cold runs).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import PREDICTED_CALLS, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: float, trace: int):
    """One ``run.py`` run: its result object and its sweeps' table digests."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        sys.exit(f"run.py {workload} --trace {trace} failed:\n{completed.stderr}")
    summary_path = ROOT / ".perfbench-out" / f"{workload}.trace{trace}.summary.json"
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    for failure in summary["failures"]:
        print(f"{workload}: FAILED: {failure}")
    return json.loads(completed.stdout.strip().splitlines()[-1]), set(summary["digests"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    problems = []
    results = {}
    for workload in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            result, sweep_digests = run(workload, args.seed, args.seconds, trace)
            results[workload, trace] = result
            digests |= sweep_digests
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed")
        print(f"{workload} table sha256: {' '.join(sorted(digests))}")
        if len(digests) != 1:
            problems.append(f"{workload}: traced and untraced tables differ")

    print("\nend-to-end (medians over the run's cold sweeps)")
    for workload in WORKLOADS:
        metrics = results[workload, 0]["metrics"]
        cells = "  ".join(
            f"{name}={metric['value']:.4g} {metric['unit']}"
            for name, metric in metrics.items()
        )
        print(f"  {workload:14s} {cells}")

    print("\nper layer (traced sweeps)")
    names = list(results[next(iter(WORKLOADS)), 1]["metrics"])
    print(f"  {'metric':36s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for name in names:
        unit = results[next(iter(WORKLOADS)), 1]["metrics"][name]["unit"]
        values = [results[w, 1]["metrics"][name]["value"] for w in WORKLOADS]
        row = "".join(
            f"{int(value):>16d}" if unit == "count" else f"{value:>16.6g}" for value in values
        )
        print(f"  {name:36s} {unit:6s}{row}")

    for workload, predictions in PREDICTED_CALLS.items():
        metrics = results[workload, 1]["metrics"]
        for name, expected in predictions.items():
            calls = metrics[name]["value"]
            if (calls > 0) != expected:
                problems.append(
                    f"{workload}: {name} = {calls}, predicted "
                    f"{'calls' if expected else 'none'}"
                )
        share = metrics["attributed_share"]["value"]
        if share < 0.95:
            problems.append(f"{workload}: attributed share {share:.3f} < 0.95")

    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
