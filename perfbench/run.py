"""End-to-end sweep benchmark of the ``repro`` simulator stack.

    python3 perfbench/run.py --workload fig13-cold --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (``src/repro`` must be there; it
exits with code 2 and no result otherwise).  Every sweep is one cold,
serial ``run_named`` of a fixed registered experiment in its own fresh
process, with the result cache and simulation block store rooted in a fresh
empty directory (see ``workloads.py``).  Sweeps repeat until ``--seconds``
is used up (at least ``MIN_SWEEPS``), and the figures reported are medians
over them.  ``--seed`` picks the trials the untimed checks re-simulate.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (host time of the
sweep), ``setup_s`` (process spawn to a built spec), ``peak_rss_mb`` and
``paper_gap``.  The run and its children are pinned to one CPU, and every
time reported is scaled to a reference speed of that CPU, measured while
the child ran (``hostspeed.py``); each sweep's raw time is printed with it.
``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer metrics of the traced ones (``spans.py``), writing
the first traced sweep's spans as Chrome trace-event JSON to
``.perfbench-out/<workload>.trace.json``.  Every run writes its sweeps'
table digests and its failures to
``.perfbench-out/<workload>.trace<0|1>.summary.json`` (read by ``report.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from hostspeed import HostProbe, pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SWEEPS = 3
#: Set-up-only processes after every untraced sweep, on top of the sweep's
#: own set-up, so the set-up median rests on more samples than the (few,
#: long) sweeps give, spread over the whole window as the sweeps are.
SETUPS_PER_SWEEP = 2
#: No new sweep starts after this many seconds, whatever ``--seconds`` says.
HARD_STOP_S = 110.0
CHILD_TIMEOUT_S = 120.0
MIN_ATTRIBUTED_SHARE = 0.95


def child_env(cache_dir: Optional[Path]) -> Dict[str, str]:
    """A clean environment: no inherited REPRO_* knobs, one thread."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    env.update(
        REPRO_JOBS="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(script: str, arguments: List[str], cache_dir: Optional[Path]) -> Dict[str, Any]:
    """Run one benchmark child process; returns its JSON line plus timing."""
    spawned_at = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(HERE / script), *arguments],
        cwd=ROOT,
        env=child_env(cache_dir),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.monotonic() - spawned_at
    if completed.returncode != 0:
        raise RuntimeError(
            f"{script} {' '.join(arguments)} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    result["spawned_at"] = spawned_at
    if "setup_end" in result:
        result["setup_s"] = result["setup_end"] - spawned_at
    return result


class Run:
    """One benchmark run: its sweeps, checks and failure accounting."""

    def __init__(self, workload: str, work: Path, probe: HostProbe) -> None:
        self.workload = workload
        self.work = work
        self.probe = probe
        self.sweeps: List[Dict[str, Any]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setups: List[Dict[str, Any]] = []
        self.table: Optional[Path] = None

    def expect(self, ok: bool, description: str, operations: int = 1) -> None:
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.failures.append(description)

    def scale_setup(self, child: Dict[str, Any]) -> None:
        slowdown = self.probe.slowdown(child["spawned_at"], child["setup_end"])
        child["setup_ref_s"] = child["setup_s"] / slowdown

    def setup(self) -> None:
        """One set-up-only process: spawn to a built spec."""
        child = run_child("sweep.py", ["--workload", self.workload, "--setup-only"], None)
        self.scale_setup(child)
        self.setups.append(child)

    def sweep(self, traced: bool, trace_out: Optional[Path]) -> None:
        """One cold sweep in a fresh process, with a fresh cache root."""
        index = len(self.sweeps)
        cache_dir = self.work / f"cache-{index}"
        table = self.work / f"table-{index}.json"
        arguments = ["--workload", self.workload]
        if self.table is None:
            arguments += ["--table-out", str(table)]
        if traced:
            arguments += ["--trace-out", str(trace_out or self.work / f"spans-{index}.json")]
        try:
            result = run_child("sweep.py", arguments, cache_dir)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as error:
            self.expect(False, f"sweep {index} crashed: {error}")
            return
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if self.table is None:
            self.table = table
        result["traced"] = traced
        result["slowdown"] = self.probe.slowdown(result["sweep_start"], result["sweep_end"])
        result["wall_ref_s"] = result["wall_s"] / result["slowdown"]
        self.scale_setup(result)
        self.sweeps.append(result)
        self.attempted += result["trials"] - result["failed"]
        self.expect(
            not result["failed"],
            f"sweep {index}: {result['failed']} trial(s) failed",
            result["failed"],
        )

    def consistency_checks(self) -> None:
        """Every sweep of a run must agree: same table, same store writes."""
        digests = {sweep["digest"] for sweep in self.sweeps}
        self.expect(len(digests) == 1, f"table digests differ across sweeps: {digests}")
        stores = {json.dumps(sweep["store"], sort_keys=True) for sweep in self.sweeps}
        self.expect(
            len(stores) == 1,
            f"cold sweeps wrote different store entries (not hermetic): {stores}",
        )


def sweep_loop(run: Run, seconds: float, traced_pairs: bool) -> None:
    """Repeat sweeps (or untraced/traced pairs) until the window is used.

    A round starts while at least half of the longest round so far still
    fits, so on average the window is used in full.
    """
    started = time.monotonic()
    deadline = started + seconds
    longest = 0.0
    rounds = 0
    while True:
        round_started = time.monotonic()
        if traced_pairs:
            run.sweep(False, None)
            first_trace = OUT / f"{run.workload}.trace.json" if rounds == 0 else None
            run.sweep(True, first_trace)
        else:
            run.sweep(False, None)
            for _ in range(SETUPS_PER_SWEEP):
                run.setup()
        rounds += 1
        longest = max(longest, time.monotonic() - round_started)
        now = time.monotonic()
        enough = rounds >= (1 if traced_pairs else MIN_SWEEPS)
        if run.failures and not run.sweeps:
            return
        if enough and (now + longest / 2 > deadline or now - started > HARD_STOP_S):
            return


def end_to_end_metrics(run: Run, check: Dict[str, Any]) -> Dict[str, float]:
    sweeps = run.sweeps
    return {
        "wall_s": statistics.median([sweep["wall_ref_s"] for sweep in sweeps]),
        "setup_s": statistics.median([child["setup_ref_s"] for child in sweeps + run.setups]),
        "peak_rss_mb": statistics.median([sweep["peak_rss_mb"] for sweep in sweeps]),
        "paper_gap": check["paper_gap"],
    }


def per_layer_metrics(run: Run, units: Dict[str, str]) -> Dict[str, float]:
    traced = [sweep for sweep in run.sweeps if sweep["traced"]]
    plain = [sweep for sweep in run.sweeps if not sweep["traced"]]
    for sweep in traced:
        share = sweep["layers"]["attributed_share"]
        run.expect(
            share >= MIN_ATTRIBUTED_SHARE,
            f"traced sweep attributes only {share:.3f} of its wall time",
        )
    counts = {
        json.dumps(
            {name: value for name, value in sweep["layers"].items() if units[name] == "count"},
            sort_keys=True,
        )
        for sweep in traced
    }
    run.expect(len(counts) == 1, "traced sweeps disagree on layer counts")
    # Times are scaled to the reference host speed like wall_s; counts and
    # ratios are taken as they are.
    metrics = {
        name: statistics.median(
            [
                sweep["layers"][name] / (sweep["slowdown"] if units[name] == "s" else 1.0)
                for sweep in traced
            ]
        )
        for name in traced[0]["layers"]
    }
    metrics["trace_overhead_s"] = statistics.median(
        [sweep["wall_ref_s"] for sweep in traced]
    ) - statistics.median([sweep["wall_ref_s"] for sweep in plain])
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind like an exception: subprocess.run kills and reaps the
    # running child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    pin_to_one_cpu()
    probe = HostProbe()
    probe.start()
    run = Run(args.workload, work, probe)
    try:
        # The first set-up byte-compiles and pages in the sources: untimed.
        run_child("sweep.py", ["--workload", args.workload, "--setup-only"], None)
        sweep_loop(run, args.seconds, traced_pairs=bool(args.trace))
        if not any(sweep["traced"] == bool(args.trace) for sweep in run.sweeps):
            print(json.dumps({"error": run.failures}), file=sys.stderr)
            return 1
        run.consistency_checks()
        check = run_child(
            "check.py",
            ["--workload", args.workload, "--seed", str(args.seed), "--table", str(run.table)],
            work / "check-cache",
        )
        run.attempted += check["checks"]
        run.failed += len(check["failures"])
        run.failures += check["failures"]
        if args.trace:
            values = per_layer_metrics(run, units)
        else:
            values = end_to_end_metrics(run, check)
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)

    for sweep in run.sweeps:
        print(
            f"sweep traced={int(sweep['traced'])} wall_s={sweep['wall_ref_s']:.4f} "
            f"raw_wall_s={sweep['wall_s']:.4f} slowdown={sweep['slowdown']:.4f} "
            f"setup_s={sweep['setup_ref_s']:.4f} peak_rss_mb={sweep['peak_rss_mb']:.1f} "
            f"digest={sweep['digest']}"
        )
    print(f"paper speed-ups {json.dumps(check['speedups'])}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    summary = {
        "digests": sorted({sweep["digest"] for sweep in run.sweeps}),
        "failures": run.failures,
    }
    summary_path = OUT / f"{args.workload}.trace{args.trace}.summary.json"
    summary_path.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
