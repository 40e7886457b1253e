"""Tests for the simulator benchmark: payload shape, paths, regression gate."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.bench import (
    DEFAULT_BENCH_PATH,
    DEFAULT_MULTICORE_WORKLOADS,
    DEFAULT_WORKLOADS,
    QUICK_MULTICORE_WORKLOADS,
    QUICK_WORKLOADS,
    SPEEDUP_FLOORS,
    compare_benchmarks,
    select_workloads,
)
from repro.errors import ConfigurationError


class TestDefaultPath:
    def test_anchored_to_repo_root_not_cwd(self):
        # `repro bench` must write into the repository root regardless of the
        # CWD (the repo root is the directory holding pyproject.toml).
        path = Path(DEFAULT_BENCH_PATH)
        assert path.name == "BENCH_simulator.json"
        assert path.is_absolute()
        assert (path.parent / "pyproject.toml").exists()


class TestQuickSuite:
    def test_quick_workloads_are_subsets_of_the_default_suite(self):
        # `--quick --check` compares by name against the committed full-suite
        # baseline, so every quick workload must exist there.
        default_names = {workload.name for workload in DEFAULT_WORKLOADS}
        assert QUICK_WORKLOADS and {w.name for w in QUICK_WORKLOADS} <= default_names
        default_multicore = {w.name for w in DEFAULT_MULTICORE_WORKLOADS}
        assert QUICK_MULTICORE_WORKLOADS
        assert {w.name for w in QUICK_MULTICORE_WORKLOADS} <= default_multicore


def payload(single=(), multicore=()):
    return {
        "workloads": [
            {"name": name, "fast_ops_per_sec": value} for name, value in single
        ],
        "multicore_workloads": [
            {"name": name, "memo_ops_per_sec": value} for name, value in multicore
        ],
    }


class TestCompare:
    def test_equal_payloads_pass(self):
        current = payload([("a", 1000.0)], [("m", 500.0)])
        assert compare_benchmarks(current, current) == []

    def test_large_drop_is_flagged(self):
        baseline = payload([("a", 1000.0)], [("m", 500.0)])
        current = payload([("a", 600.0)], [("m", 500.0)])
        regressions = compare_benchmarks(current, baseline)
        assert len(regressions) == 1 and "a" in regressions[0]

    def test_multicore_drop_is_flagged(self):
        baseline = payload([("a", 1000.0)], [("m", 500.0)])
        current = payload([("a", 1000.0)], [("m", 100.0)])
        regressions = compare_benchmarks(current, baseline)
        assert len(regressions) == 1 and "m" in regressions[0]

    def test_small_drop_and_improvement_pass(self):
        baseline = payload([("a", 1000.0), ("b", 1000.0)])
        current = payload([("a", 800.0), ("b", 2000.0)])
        assert compare_benchmarks(current, baseline) == []

    def test_non_overlapping_names_are_ignored(self):
        baseline = payload([("full-suite-only", 1e9)])
        current = payload([("quick-only", 1.0)])
        assert compare_benchmarks(current, baseline) == []

    def test_speedup_floor_is_enforced(self):
        # A workload with an absolute speedup floor regresses when it falls
        # below the floor even if its wall-clock throughput held steady.
        name, floor = next(iter(SPEEDUP_FLOORS.items()))
        current = payload([(name, 1000.0)])
        current["workloads"][0]["speedup"] = floor / 2.0
        regressions = compare_benchmarks(current, payload([(name, 1000.0)]))
        assert len(regressions) == 1
        assert name in regressions[0] and "floor" in regressions[0]
        current["workloads"][0]["speedup"] = floor + 1.0
        assert compare_benchmarks(current, payload([(name, 1000.0)])) == []

    def test_floor_names_exist_in_default_suite(self):
        default_names = {workload.name for workload in DEFAULT_WORKLOADS}
        assert set(SPEEDUP_FLOORS) <= default_names


class TestSelectWorkloads:
    def test_filters_both_suites_by_name(self):
        spgemm = next(w for w in DEFAULT_WORKLOADS if w.kind == "spgemm")
        mc = DEFAULT_MULTICORE_WORKLOADS[0]
        single, multicore = select_workloads(
            [spgemm.name, mc.name], DEFAULT_WORKLOADS, DEFAULT_MULTICORE_WORKLOADS
        )
        assert [w.name for w in single] == [spgemm.name]
        assert [w.name for w in multicore] == [mc.name]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            select_workloads(
                ["no-such-workload"], DEFAULT_WORKLOADS, DEFAULT_MULTICORE_WORKLOADS
            )
        assert "no-such-workload" in str(excinfo.value)


class TestCheckCli:
    def test_check_gates_on_committed_baseline(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--shape", "64x64x128", "--out", str(out)]) == 0
        measured = json.loads(out.read_text())

        same = tmp_path / "baseline-same.json"
        same.write_text(json.dumps(measured))
        assert (
            main(["bench", "--shape", "64x64x128", "--out", str(out), "--check", str(same)])
            == 0
        )

        inflated = json.loads(out.read_text())
        for row in inflated["workloads"]:
            row["fast_ops_per_sec"] *= 100.0
        bad = tmp_path / "baseline-fast.json"
        bad.write_text(json.dumps(inflated))
        assert (
            main(["bench", "--shape", "64x64x128", "--out", str(out), "--check", str(bad)])
            == 1
        )


class TestColdRepeats:
    def test_every_repeat_replays_the_cache_outcomes(self, monkeypatch):
        import numpy as np

        import repro.cpu.columnar as columnar
        from repro.analysis.bench import _best_time
        from repro.cpu.params import CacheParams

        replays = []
        original = columnar.lru_outcome_bits

        def counted(ids, num_sets, associativity):
            replays.append(len(ids))
            return original(ids, num_sets, associativity)

        monkeypatch.setattr(columnar, "lru_outcome_bits", counted)
        builder = columnar.TraceBuilder()
        for line in (0, 2, 4, 0, 2, 4):
            builder.vector_load(0, line * 64, 64)
        trace = builder.finish()
        # Direct-mapped, two sets: lines 0, 2, 4 all collide, so it evicts.
        level = CacheParams(name="L1D", capacity_bytes=128, associativity=1)
        expected = original(np.array([0, 2, 4, 0, 2, 4]), 2, 1)

        def run():
            return trace.level_outcomes(level)

        hits, _ = _best_time(run, min_seconds=float("inf"), max_repeats=3, traces=(trace,))
        assert np.array_equal(hits, expected)
        assert len(replays) == 3
        _best_time(run, min_seconds=float("inf"), max_repeats=3)
        assert len(replays) == 3  # the last repeat's outcomes were kept
