"""Cross-validation of the simulator's steady-state fast path.

The acceptance contract for the fast path is that it matches ``mode="exact"``
bit for bit — cycles, memory counters, engine busy cycles and instruction
mix — on every machine, while skipping the bulk of the steady-state work;
traces too small, too irregular or without a columnar form run exact.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import isa
from repro.core.engine import get_engine
from repro.core.registers import treg
from repro.cpu.columnar import ColumnarTrace, TraceBuilder
from repro.cpu.fastsim import (
    _starts_from_signatures,
    build_segments,
    op_signature,
    run_fast,
)
from repro.cpu.params import (
    CacheParams,
    MachineParams,
    MemoryParams,
    default_machine,
    memory_bound_machine,
)
from repro.cpu.simulator import CycleApproximateSimulator
from repro.cpu.trace import scalar_op, tile_op, vector_fma, vector_load
from repro.errors import SimulationError
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import GemmShape, SparsityPattern


def _compare(program, engine, machine=None, hint=True):
    simulator = CycleApproximateSimulator(machine=machine, engine=engine)
    exact = simulator.run(program.trace, mode="exact")
    fast = simulator.run(
        program.trace, block_starts=program.block_starts if hint else None
    )
    assert fast.core_cycles == exact.core_cycles
    assert fast.memory_counters == exact.memory_counters
    assert fast.engine_busy_cycles == exact.engine_busy_cycles
    assert fast.trace_summary == exact.trace_summary
    assert fast.tile_compute_ops == exact.tile_compute_ops
    return exact, fast


class _Program:
    """A bare trace in the shape of a kernel program (no block hints)."""

    def __init__(self, trace):
        self.trace = trace
        self.block_starts = None


def _block_starts(trace):
    """Anchor-detected block starts of a trace (columnar or op list)."""
    return _starts_from_signatures(ColumnarTrace.from_ops(trace).signature_ids())


#: Machines of the fast==exact matrix.  The memory-bound machine has no
#: ideal prefetch and a 256 KB L2 the kernels below overflow, so its L2
#: evicts; the never-evicting L2 is one fully associative set larger than
#: the footprint; the 128 B L2 line makes the L2 stream coarser than L1's.
MATRIX_MACHINES = {
    "default": default_machine(),
    "membound": memory_bound_machine(),
    "no-prefetch": dataclasses.replace(default_machine(), prefetch_into_l2=False),
    "l2-never-evicts": dataclasses.replace(
        memory_bound_machine(),
        l2=CacheParams(
            name="L2", capacity_bytes=4 * 1024 * 1024, associativity=65536, hit_latency=14
        ),
    ),
    "l2-128B-line": dataclasses.replace(
        memory_bound_machine(),
        l2=CacheParams(name="L2", capacity_bytes=256 * 1024, line_bytes=128, hit_latency=14),
    ),
}

MATRIX_SHAPE = GemmShape(128, 128, 512)


def _matrix_kernel(name):
    if name == "dense":
        return build_dense_gemm_kernel(MATRIX_SHAPE), get_engine("VEGETA-D-1-2")
    if name == "spmm-2:4-of":
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        return build_spmm_kernel(MATRIX_SHAPE, SparsityPattern.SPARSE_2_4), engine
    engine = get_engine("VEGETA-S-16-2").with_output_forwarding().with_spgemm()
    return build_spgemm_kernel(MATRIX_SHAPE, SparsityPattern.SPARSE_2_4), engine


class TestFastEqualsExactMatrix:
    """fast == exact bit for bit on every machine, with or without prefetch."""

    @pytest.mark.parametrize("machine", sorted(MATRIX_MACHINES))
    @pytest.mark.parametrize("kernel", ["dense", "spmm-2:4-of", "spgemm-2:4"])
    def test_machine_kernel(self, machine, kernel):
        program, engine = _matrix_kernel(kernel)
        exact, fast = _compare(program, engine, machine=MATRIX_MACHINES[machine])
        assert fast.fast_blocks_skipped > 0

    def test_memory_bound_dense_kernel(self):
        # The single-core gemm-membound kernel of the scaling experiment.
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        exact, fast = _compare(program, engine, machine=memory_bound_machine())
        assert fast.core_cycles == 410149
        assert fast.memory_counters["dram_line_requests"] > 0
        assert fast.fast_blocks_skipped > 0

    def test_dram_line_count_is_part_of_the_input_word(self):
        # Two-line loads of equal delay: (DRAM, DRAM) in the first phase,
        # (L2, DRAM) in the second (the first line was loaded by the first
        # phase and evicted from the one-line L1).  Only the DRAM line count
        # tells the phases apart, and it sets the DRAM-channel throughput,
        # so the fast path must not extend a first-phase jump into the
        # second phase.
        machine = MachineParams(
            l1=CacheParams(name="L1D", capacity_bytes=64, associativity=1),
            l2=CacheParams(name="L2", capacity_bytes=64 * 1024, hit_latency=14),
            memory=MemoryParams(dram_bandwidth_gbps=12.0),
            prefetch_into_l2=False,
        )
        builder = TraceBuilder()
        for phase_line in (0, 1):
            for block in range(120):
                builder.vector_load(0, (4 * block + phase_line) * 64, 128)
                builder.branch("loop")
        exact, fast = _compare(_Program(builder.finish()), None, machine=machine)
        assert fast.fast_blocks_skipped > 0


class TestFastMatchesExactOnKernels:
    """Tier-1 kernel traces: fast path bit-identical to the exact scoreboard."""

    def test_dense_optimized_kernel(self):
        program = build_dense_gemm_kernel(GemmShape(256, 256, 1024))
        _compare(program, get_engine("VEGETA-D-1-2"))

    def test_dense_on_every_dense_engine(self):
        program = build_dense_gemm_kernel(GemmShape(128, 128, 1024))
        for name in ("VEGETA-D-1-1", "VEGETA-D-1-2", "VEGETA-D-16-1"):
            _compare(program, get_engine(name))

    def test_dense_listing1_variant(self):
        program = build_dense_gemm_kernel(GemmShape(128, 128, 512), variant="listing1")
        _compare(program, get_engine("VEGETA-D-1-2"))

    def test_dense_odd_tile_grid(self):
        # 13x13 C tiles: the last block row/column use smaller blocks, so the
        # trace holds several distinct periodic segments.
        program = build_dense_gemm_kernel(GemmShape(208, 208, 512))
        _compare(program, get_engine("VEGETA-D-1-2"))

    def test_spmm_2_4_kernel(self):
        program = build_spmm_kernel(GemmShape(256, 256, 1024), SparsityPattern.SPARSE_2_4)
        _compare(program, get_engine("VEGETA-S-16-2"))

    def test_spmm_kernels_with_output_forwarding(self):
        engine = get_engine("VEGETA-S-16-2").with_output_forwarding()
        for pattern in (SparsityPattern.SPARSE_2_4, SparsityPattern.SPARSE_1_4):
            program = build_spmm_kernel(GemmShape(256, 256, 1024), pattern)
            _compare(program, engine)

    def test_detection_without_builder_hints(self):
        program = build_spmm_kernel(GemmShape(256, 256, 1024), SparsityPattern.SPARSE_2_4)
        _compare(program, get_engine("VEGETA-S-16-2"), hint=False)

    def test_vector_kernel_without_hints(self):
        program = build_vector_gemm_kernel(GemmShape(64, 64, 256))
        _compare(program, None, hint=False)

    def test_no_prefetch_machine(self):
        machine = dataclasses.replace(default_machine(), prefetch_into_l2=False)
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        _compare(program, get_engine("VEGETA-D-1-2"), machine=machine)

    def test_unit_engine_clock_ratio(self):
        core = dataclasses.replace(
            default_machine().core, matrix_engine_frequency_ghz=2.0
        )
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        _compare(program, get_engine("VEGETA-D-1-2"), machine=MachineParams(core=core))

    def test_structural_pressure_machine(self):
        core = dataclasses.replace(default_machine().core, rob_entries=8)
        program = build_dense_gemm_kernel(GemmShape(256, 256, 512))
        _compare(program, get_engine("VEGETA-D-1-2"), machine=MachineParams(core=core))

    def test_fast_path_actually_skips(self, monkeypatch):
        # On a long uniform kernel the fast path must not fall back to
        # stepping every op: the proven steady state lets it jump.
        from repro.cpu.simulator import SimulatorState

        program = build_dense_gemm_kernel(GemmShape(256, 256, 1024))
        stepped = 0

        class CountingState(SimulatorState):
            def step(self, op):
                nonlocal stepped
                stepped += 1
                return super().step(op)

        monkeypatch.setattr("repro.cpu.fastsim.SimulatorState", CountingState)
        result = run_fast(
            default_machine(), get_engine("VEGETA-D-1-2"), program.trace, program.block_starts
        )
        assert result is not None
        assert stepped < len(program.trace) / 2


class TestSmallTraceEquivalence:
    """Traces with nothing to skip must be bit-identical to exact mode."""

    def test_tiny_gemm_trace(self):
        trace = [
            tile_op(isa.tile_load_t(treg(4), 0x1000)),
            tile_op(isa.tile_load_t(treg(5), 0x2000)),
        ] + [tile_op(isa.tile_gemm(treg(i % 4), treg(4), treg(5))) for i in range(6)]
        simulator = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2"))
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace, mode="fast")
        assert fast.core_cycles == exact.core_cycles
        assert fast.memory_counters == exact.memory_counters

    def test_small_kernel_identical(self):
        program = build_dense_gemm_kernel(GemmShape(32, 32, 64))
        simulator = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2"))
        exact = simulator.run(program.trace, mode="exact")
        fast = simulator.run(program.trace, block_starts=program.block_starts)
        assert fast.core_cycles == exact.core_cycles

    def test_repeated_vector_fmas(self):
        trace = [vector_fma(0, (1,)) for _ in range(100)]
        simulator = CycleApproximateSimulator()
        assert (
            simulator.run(trace, mode="fast").core_cycles
            == simulator.run(trace, mode="exact").core_cycles
        )


class TestEdgeContracts:
    """Pinned contracts for degenerate traces (both modes)."""

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_empty_trace_takes_zero_time(self, mode):
        result = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2")).run(
            [], mode=mode
        )
        assert result.core_cycles == 0
        assert result.runtime_seconds == 0.0
        assert result.instructions == 0
        assert result.ipc == 0.0
        assert result.tile_compute_ops == 0

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_single_op_trace(self, mode):
        result = CycleApproximateSimulator().run([scalar_op()], mode=mode)
        assert result.core_cycles == 1
        assert result.instructions == 1

    @pytest.mark.parametrize("mode", ["fast", "exact"])
    def test_single_load_trace(self, mode):
        result = CycleApproximateSimulator().run([vector_load(0, 0x1000)], mode=mode)
        assert result.core_cycles > 1
        assert result.memory_counters["total_requests"] == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            CycleApproximateSimulator(mode="warp")
        with pytest.raises(SimulationError):
            CycleApproximateSimulator().run([scalar_op()], mode="warp")

    def test_compute_without_engine_rejected_in_fast_mode(self):
        trace = [tile_op(isa.tile_gemm(treg(0), treg(1), treg(2)))]
        with pytest.raises(SimulationError):
            CycleApproximateSimulator(engine=None).run(trace, mode="fast")


class TestPeriodicityHelpers:
    def test_signature_ignores_addresses(self):
        a = tile_op(isa.tile_load_t(treg(1), 0x1000, "load A"))
        b = tile_op(isa.tile_load_t(treg(1), 0x9000, "load A"))
        c = tile_op(isa.tile_load_t(treg(2), 0x1000, "load A"))
        assert op_signature(a) == op_signature(b)
        assert op_signature(a) != op_signature(c)

    def test_block_starts_find_builder_blocks(self):
        program = build_dense_gemm_kernel(GemmShape(128, 128, 256))
        starts = _block_starts(list(program.trace))
        assert starts is not None
        # The detected anchors recur with the builder's block period.
        expected_period = program.block_starts[1] - program.block_starts[0]
        assert starts[1] - starts[0] == expected_period
        assert len(starts) == len(program.block_starts)

    def test_block_starts_reject_irregular_traces(self):
        trace = [scalar_op(f"unique-{i}") for i in range(32)]
        assert _block_starts(trace) is None

    def test_build_segments_splits_on_length_change(self):
        signatures = np.zeros(75, dtype=np.int64)
        bounds, segments = build_segments([0, 10, 20, 30, 45, 60], 75, signatures)
        assert bounds[-1] == 75
        assert segments == [(0, 3), (3, 3)]

    def test_run_fast_returns_none_without_periodicity(self):
        trace = [scalar_op(f"u{i}") for i in range(16)]
        assert run_fast(default_machine(), None, trace) is None

    def test_trace_without_columnar_form_runs_exact(self):
        # A three-source FMA does not fit the columnar encoding, so the fast
        # path has no signature ids or script and defers to the exact loop.
        trace = [vector_fma(0, (1, 2, 3)) for _ in range(64)]
        assert run_fast(default_machine(), None, trace) is None
        simulator = CycleApproximateSimulator()
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace)
        assert fast.core_cycles == exact.core_cycles
        assert fast.trace_summary == exact.trace_summary
        assert fast.fast_blocks_stepped == fast.fast_blocks_skipped == 0

    def test_signature_ids_are_deterministic(self):
        # Regression: hash()-based signatures made anchor selection depend on
        # PYTHONHASHSEED.  Ids must be assigned in first-appearance order.
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        ids = ColumnarTrace.from_ops(list(program.trace)).signature_ids()
        assert ids[0] == 0
        seen = set()
        expected_next = 0
        for value in ids:
            if value not in seen:
                assert value == expected_next  # first appearance gets the next id
                seen.add(value)
                expected_next += 1

    def test_detection_is_stable_across_hash_seeds(self):
        import os
        import subprocess
        import sys

        script = (
            "from repro.cpu.columnar import ColumnarTrace\n"
            "from repro.cpu.fastsim import _starts_from_signatures\n"
            "from repro.kernels.gemm import build_dense_gemm_kernel\n"
            "from repro.types import GemmShape\n"
            "ops = list(build_dense_gemm_kernel(GemmShape(64, 64, 256)).trace)\n"
            "print(_starts_from_signatures(ColumnarTrace.from_ops(ops).signature_ids()))\n"
        )
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src_dir},
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestHintValidation:
    """Builder hints are validated; bad hints degrade gracefully."""

    def _blocks_of_different_composition(self):
        # Two interleaved equal-length block flavours: same length (3 ops),
        # different scalar/branch mix — a lying hint must not corrupt the
        # instruction-mix summary.
        from repro.cpu.trace import branch_op

        trace = []
        starts = []
        for index in range(12):
            starts.append(len(trace))
            if index % 2 == 0:
                trace.extend([scalar_op("a"), scalar_op("a"), branch_op("a")])
            else:
                trace.extend([scalar_op("a"), branch_op("a"), branch_op("a")])
        return trace, tuple(starts)

    def test_lying_hint_falls_back_to_exact(self):
        trace, starts = self._blocks_of_different_composition()
        simulator = CycleApproximateSimulator()
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace, block_starts=starts)
        assert fast.core_cycles == exact.core_cycles
        assert fast.trace_summary == exact.trace_summary

    def test_lying_hint_inside_skipped_span_is_caught(self):
        # Mismatching blocks that sit entirely between the simulated anchors
        # must still be detected (via the skipped-span spot-check), not
        # silently accounted as copies of the segment head.
        from repro.cpu.trace import vector_fma

        trace = []
        starts = []
        for index in range(30):
            starts.append(len(trace))
            if 8 <= index < 28:
                trace.extend([vector_fma(0, (1,)), vector_fma(0, (1,)), vector_fma(0, (1,))])
            else:
                trace.extend([scalar_op("x"), scalar_op("x"), scalar_op("x")])
        simulator = CycleApproximateSimulator()
        exact = simulator.run(trace, mode="exact")
        fast = simulator.run(trace, block_starts=tuple(starts))
        assert fast.core_cycles == exact.core_cycles
        assert fast.trace_summary == exact.trace_summary

    def test_malformed_hints_are_ignored(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        simulator = CycleApproximateSimulator(engine=get_engine("VEGETA-D-1-2"))
        exact = simulator.run(program.trace, mode="exact")
        for bad in ((5, 3, 1), (0, 10, 10**9), (-3, 0, 5)):
            fast = simulator.run(program.trace, block_starts=bad)
            assert fast.core_cycles == exact.core_cycles
            assert fast.trace_summary == exact.trace_summary
