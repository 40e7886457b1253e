"""Tests for the analytic pre-filter statics.

The load-bearing property is *soundness*: ``bound_cycles`` must never exceed
the simulated makespan of the same mapping, on compute-rich and
bandwidth-starved machines alike, because the dominance pruning in
:mod:`repro.planner.autotune` is only frontier-preserving when the bound is a
true lower bound.

The statics are aggregated from per-block reductions of one unsharded build;
:func:`reference_statics` derives the same fields by walking every core's
sharded trace, and the exactness tests pin the two equal field for field.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.roofline import EngineRoofline, effective_throughput_tflops
from repro.analysis.runtime import resolve_engine
from repro.cpu.multicore import _footprint_line_array, simulate_multicore
from repro.cpu.params import default_machine, get_topology, memory_bound_machine
from repro.cpu.trace import summarize_trace
from repro.errors import KernelError
from repro.kernels.sharding import build_kernel, shard_kernel
from repro.kernels.tiling import TileGrid
from repro.planner.experiment import (
    AUTOTUNE_ENGINES,
    AUTOTUNE_SMOKE_TOPOLOGIES,
    AUTOTUNE_STRATEGIES,
)
from repro.planner.prefilter import (
    KernelBlocks,
    MappingStatics,
    _shared_capacity_bytes,
    mapping_statics,
)
from repro.planner.space import enumerate_mappings, select_kernel
from repro.types import GemmShape, SparsityPattern

MACHINES = {
    "default": default_machine(),
    "membound": memory_bound_machine(),
}

ENGINE_NAMES = (
    "VEGETA-D-1-2",
    "VEGETA-S-4-2",
    "VEGETA-S-16-2+OF",
    "VEGETA-S-16-2+OF+SPGEMM",
    "AMX-like",
    "SME-like",
)


def reference_statics(sharded, machine, engine, topology=None) -> MappingStatics:
    """The statics of a sharded mapping, by walking every core's trace."""
    resolved_topology = topology if topology is not None else get_topology("flat")
    line_bytes = machine.l1.line_bytes

    summaries = [summarize_trace(program.trace) for program in sharded.programs]
    traffic_bytes = sum(summary.memory_bytes for summary in summaries)
    tile_instructions = sum(summary.tile_total for summary in summaries)
    max_core_compute_instructions = max(
        (summary.tile_compute for summary in summaries), default=0
    )

    tiles = sharded.tiles_per_core
    total_tiles = sum(tiles)
    mean_tiles = total_tiles / len(tiles) if tiles else 0.0
    load_imbalance = max(tiles) / mean_tiles if mean_tiles else 1.0

    footprints = [
        _footprint_line_array(program.trace, line_bytes)
        for program in sharded.programs
    ]
    max_core_lines = max((len(lines) for lines in footprints), default=0)
    combined_lines = len(np.unique(np.concatenate(footprints))) if footprints else 0
    max_core_footprint_bytes = max_core_lines * line_bytes
    combined_footprint_bytes = combined_lines * line_bytes

    issue_cycles = max(engine.issue_interval, engine.busy_cycles_per_instruction)
    compute_bound_cycles = (
        max_core_compute_instructions * issue_cycles * machine.core.engine_clock_ratio
    )
    if machine.prefetch_into_l2:
        memory_bound_cycles = 0
    else:
        root_lines_per_cycle = resolved_topology.lines_per_cycle(machine)
        memory_bound_cycles = (
            int(math.ceil(combined_lines / root_lines_per_cycle))
            if root_lines_per_cycle > 0 and math.isfinite(root_lines_per_cycle)
            else 0
        )

    executed = sharded.pattern
    sparse_aware = engine.sparse and executed is not SparsityPattern.DENSE_4_4
    density = 1.0 / executed.compression_ratio if sparse_aware else 1.0
    roofline = EngineRoofline(
        name=engine.name,
        peak_gflops=engine.total_macs * 2 * machine.core.matrix_engine_frequency_ghz,
        sparse_aware=sparse_aware,
    )
    roofline_tflops = effective_throughput_tflops(
        roofline,
        density,
        shape=sharded.shape,
        bandwidth_gbps=machine.memory.dram_bandwidth_gbps,
    )
    return MappingStatics(
        tile_instructions=tile_instructions,
        max_core_compute_instructions=max_core_compute_instructions,
        traffic_bytes=traffic_bytes,
        load_imbalance=load_imbalance,
        max_core_footprint_bytes=max_core_footprint_bytes,
        combined_footprint_bytes=combined_footprint_bytes,
        fits_private_l2=max_core_footprint_bytes <= machine.l2.capacity_bytes,
        fits_shared_capacity=(
            combined_footprint_bytes <= _shared_capacity_bytes(resolved_topology)
        ),
        compute_bound_cycles=compute_bound_cycles,
        memory_bound_cycles=memory_bound_cycles,
        roofline_tflops=roofline_tflops,
    )


def build_mapping(engine_name, pattern, shape, cores, strategy, topology_name):
    engine = resolve_engine(engine_name)
    kernel, executed = select_kernel(engine, pattern)
    topology = None if topology_name == "flat" else get_topology(topology_name)
    sharded = shard_kernel(
        kernel,
        shape,
        executed,
        cores,
        strategy,
        topology=topology,
        geometry=engine.geometry,
    )
    return engine, sharded, topology


def kernel_blocks(kind, shape, pattern, geometry):
    """The per-block statics of one unsharded build."""
    return KernelBlocks(kind, build_kernel(kind, shape, pattern, geometry=geometry))


def sharded_statics(sharded, machine, engine, topology):
    """``mapping_statics`` of the mapping ``sharded`` was built for."""
    blocks = kernel_blocks(sharded.kind, sharded.shape, sharded.pattern, engine.geometry)
    return mapping_statics(
        blocks, sharded.cores, sharded.strategy, machine, engine, topology
    )


class TestExactStatics:
    def test_traffic_is_the_sum_of_per_core_trace_bytes(self):
        engine, sharded, topology = build_mapping(
            "VEGETA-S-4-2",
            SparsityPattern.SPARSE_2_4,
            GemmShape(64, 64, 256),
            4,
            "row-block",
            "flat",
        )
        statics = sharded_statics(sharded, MACHINES["default"], engine, topology)
        assert statics.traffic_bytes == sum(
            summarize_trace(program.trace).memory_bytes
            for program in sharded.programs
        )

    def test_even_partition_has_unit_imbalance(self):
        engine, sharded, topology = build_mapping(
            "SME-like",
            SparsityPattern.DENSE_4_4,
            GemmShape(128, 128, 128),
            4,
            "2d-cyclic",
            "flat",
        )
        statics = sharded_statics(sharded, MACHINES["default"], engine, topology)
        assert statics.load_imbalance == 1.0

    def test_uneven_partition_reports_imbalance(self):
        # 3 cores over a 4x4 output grid: shares of 6/5/5 tiles.
        engine, sharded, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 64),
            3,
            "row-block",
            "flat",
        )
        statics = sharded_statics(sharded, MACHINES["default"], engine, topology)
        assert statics.load_imbalance > 1.0

    def test_combined_footprint_not_less_than_any_core(self):
        engine, sharded, topology = build_mapping(
            "VEGETA-S-4-2",
            SparsityPattern.SPARSE_2_4,
            GemmShape(128, 128, 256),
            4,
            "column-block",
            "dual-socket",
        )
        statics = sharded_statics(sharded, MACHINES["default"], engine, topology)
        assert statics.combined_footprint_bytes >= statics.max_core_footprint_bytes
        assert statics.max_core_footprint_bytes > 0


class TestBoundStructure:
    def test_memory_bound_is_zero_under_ideal_prefetch(self):
        machine = MACHINES["default"]
        assert machine.prefetch_into_l2
        engine, sharded, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 128),
            2,
            "row-block",
            "flat",
        )
        statics = sharded_statics(sharded, machine, engine, topology)
        assert statics.memory_bound_cycles == 0
        assert statics.bound_cycles == statics.compute_bound_cycles

    def test_memory_bound_active_on_bandwidth_starved_machine(self):
        machine = MACHINES["membound"]
        assert not machine.prefetch_into_l2
        engine, sharded, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 128),
            2,
            "row-block",
            "flat",
        )
        statics = sharded_statics(sharded, machine, engine, topology)
        assert statics.memory_bound_cycles > 0

    def test_compute_bound_scales_with_the_most_loaded_core(self):
        engine, sharded, topology = build_mapping(
            "VEGETA-D-1-2",
            SparsityPattern.DENSE_4_4,
            GemmShape(64, 64, 128),
            2,
            "row-block",
            "flat",
        )
        machine = MACHINES["default"]
        statics = sharded_statics(sharded, machine, engine, topology)
        issue = max(engine.issue_interval, engine.busy_cycles_per_instruction)
        assert statics.compute_bound_cycles == (
            statics.max_core_compute_instructions
            * issue
            * machine.core.engine_clock_ratio
        )


class TestBoundSoundness:
    @given(
        engine_name=st.sampled_from(ENGINE_NAMES),
        machine_name=st.sampled_from(sorted(MACHINES)),
        pattern=st.sampled_from(
            [SparsityPattern.DENSE_4_4, SparsityPattern.SPARSE_2_4]
        ),
        mn_tiles=st.integers(min_value=2, max_value=4),
        k_tiles=st.integers(min_value=1, max_value=3),
        cores=st.sampled_from([1, 2, 4]),
        strategy=st.sampled_from(["row-block", "column-block", "2d-cyclic"]),
        topology_name=st.sampled_from(["flat", "dual-socket"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_bound_never_exceeds_simulated_cycles(
        self,
        engine_name,
        machine_name,
        pattern,
        mn_tiles,
        k_tiles,
        cores,
        strategy,
        topology_name,
    ):
        machine = MACHINES[machine_name]
        shape = GemmShape(m=mn_tiles * 32, n=mn_tiles * 32, k=k_tiles * 128)
        engine, sharded, topology = build_mapping(
            engine_name, pattern, shape, cores, strategy, topology_name
        )
        statics = sharded_statics(sharded, machine, engine, topology)
        result = simulate_multicore(
            sharded.programs,
            machine=machine,
            engine=engine,
            topology=topology,
            memo=False,
        )
        assert statics.bound_cycles <= result.core_cycles


#: (kernel, operand pattern, engine): every builder and every tile geometry.
KERNEL_CASES = (
    ("gemm", SparsityPattern.DENSE_4_4, "VEGETA-D-1-2"),
    ("gemm", SparsityPattern.DENSE_4_4, "AMX-like"),
    ("gemm", SparsityPattern.DENSE_4_4, "SME-like"),
    ("spmm", SparsityPattern.SPARSE_2_4, "VEGETA-S-4-2"),
    ("spmm", SparsityPattern.SPARSE_1_4, "VEGETA-S-16-2+OF"),
    ("spgemm", SparsityPattern.SPARSE_2_4, "VEGETA-S-16-2+OF+SPGEMM"),
    ("spgemm", SparsityPattern.SPARSE_1_4, "VEGETA-S-16-2+OF+SPGEMM"),
)


class TestBlockStaticsEqualTraceStatics:
    """Block-derived statics must equal the sharded-trace reference exactly."""

    @given(
        case=st.sampled_from(KERNEL_CASES),
        machine_name=st.sampled_from(sorted(MACHINES)),
        # Odd tile counts clamp the dense 2x2 edge blocks and leave a
        # single-row interleaved pair; one-tile grids idle most cores.
        tiles_m=st.integers(min_value=1, max_value=5),
        tiles_n=st.integers(min_value=1, max_value=5),
        tiles_k=st.integers(min_value=1, max_value=3),
        cores=st.integers(min_value=1, max_value=9),
        strategy=st.sampled_from(AUTOTUNE_STRATEGIES),
        topology_name=st.sampled_from(["flat", "dual-socket", "chiplet"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_statics_equal_the_reference(
        self, case, machine_name, tiles_m, tiles_n, tiles_k, cores, strategy, topology_name
    ):
        kind, pattern, engine_name = case
        engine = resolve_engine(engine_name)
        machine = MACHINES[machine_name]
        grid = TileGrid(
            shape=GemmShape(1, 1, 1),
            pattern=SparsityPattern.DENSE_4_4 if kind == "gemm" else pattern,
            geometry=engine.geometry,
        )
        shape = GemmShape(
            m=tiles_m * grid.tile_m, n=tiles_n * grid.tile_n, k=tiles_k * grid.tile_k
        )
        topology = None if topology_name == "flat" else get_topology(topology_name)
        sharded = shard_kernel(
            kind, shape, pattern, cores, strategy, topology=topology, geometry=engine.geometry
        )
        blocks = kernel_blocks(kind, shape, pattern, engine.geometry)
        assert mapping_statics(
            blocks, cores, strategy, machine, engine, topology
        ) == reference_statics(sharded, machine, engine, topology)

    def test_idle_cores_and_single_row_pairs(self):
        # Three tile rows give interleaved pairs (0, 1) and (2,); with one
        # tile column that is two cells for eight cores.
        engine = resolve_engine("VEGETA-S-4-2")
        shape = GemmShape(48, 16, 128)
        sharded = shard_kernel("spmm", shape, SparsityPattern.SPARSE_2_4, 8, "2d-cyclic")
        assert sum(1 for tiles in sharded.tiles if not tiles) == 6
        blocks = kernel_blocks("spmm", shape, SparsityPattern.SPARSE_2_4, engine.geometry)
        machine = MACHINES["default"]
        statics = mapping_statics(blocks, 8, "2d-cyclic", machine, engine)
        assert statics == reference_statics(sharded, machine, engine)
        assert statics.load_imbalance == 2 / (3 / 8)

    def test_truncated_build_is_rejected(self):
        program = build_kernel(
            "gemm", GemmShape(64, 64, 64), SparsityPattern.DENSE_4_4, max_output_tiles=4
        )
        with pytest.raises(KernelError, match="untruncated"):
            mapping_statics(
                KernelBlocks("gemm", program),
                2,
                "row-block",
                MACHINES["default"],
                resolve_engine("VEGETA-D-1-2"),
            )


class TestSmokeCatalog:
    def test_every_smoke_candidate_matches_the_reference(self):
        # The autotune --smoke catalog on cores {1, 2, 4}: the sparse-2:4
        # workload, the full engine axis, every strategy, flat and dual-socket.
        machine = MACHINES["default"]
        pattern = SparsityPattern.SPARSE_2_4
        shape = GemmShape(256, 256, 1024)
        engines = {name: resolve_engine(name) for name in AUTOTUNE_ENGINES}
        space = enumerate_mappings(
            pattern, engines, (1, 2, 4), AUTOTUNE_STRATEGIES, AUTOTUNE_SMOKE_TOPOLOGIES
        )
        assert len(space.candidates) == 143
        kernels, shards = {}, {}
        for candidate in space.candidates:
            engine = resolve_engine(candidate.engine)
            executed = SparsityPattern(candidate.executed)
            topology = (
                None if candidate.topology == "flat" else get_topology(candidate.topology)
            )
            kernel_key = (candidate.kernel, engine.geometry.name, candidate.executed)
            if kernel_key not in kernels:
                kernels[kernel_key] = kernel_blocks(
                    candidate.kernel, shape, executed, engine.geometry
                )
            shard_key = kernel_key + (
                candidate.cores,
                candidate.strategy,
                candidate.topology,
            )
            if shard_key not in shards:
                shards[shard_key] = shard_kernel(
                    candidate.kernel,
                    shape,
                    executed,
                    candidate.cores,
                    candidate.strategy,
                    topology=topology,
                    geometry=engine.geometry,
                )
            statics = mapping_statics(
                kernels[kernel_key],
                candidate.cores,
                candidate.strategy,
                machine,
                engine,
                topology,
            )
            assert statics == reference_statics(
                shards[shard_key], machine, engine, topology
            ), candidate
        assert len(kernels) == 5
        assert len(shards) == 65
