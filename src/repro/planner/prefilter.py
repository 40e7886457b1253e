"""Analytic pre-filter statics for mapping candidates.

Everything here is computed *without* running the cycle simulator and
without building a per-core shard.  The planner builds each kernel once,
unsharded (one build per kernel, tile geometry and executed pattern), and
:class:`KernelBlocks` reduces that trace block by block.  A mapping's
statics are aggregates of those per-block values over its partition
(:func:`repro.kernels.sharding.partition_kernel`).  This is exact: every
sharded program is the concatenation of the unsharded builder's blocks for
that core's cells, and no block's ops depend on where it sits (SpGEMM's
issue-alignment padding is relative to the block start).  So traffic and
tile-instruction counts are sums over blocks, a core's output tiles are
the sum of its blocks' tiles, a core's footprint is the union of its
blocks' line sets, and the combined footprint is the whole kernel's.  The
tests pin every field to a reference that walks the sharded traces.

* **Exact objectives** — shared-memory traffic (the sum of every core's
  trace ``memory_bytes``) and static load imbalance (max/mean output tiles
  per core) are properties of the partition, not of the timing model, so
  the pre-filter knows two of the three Pareto objectives exactly.
* **A sound cycle lower bound** — no mapping can finish faster than its
  most-loaded core can initiate its tile *compute* instructions
  (``computes x issue-interval``, converted to core cycles by the
  engine clock ratio), nor — on machines without ideal L2 prefetch —
  faster than the topology root can stream the combined distinct operand
  footprint.  Both bounds hold for every arbitration outcome, which is
  what makes dominance pruning against them sound (see
  :mod:`repro.planner.autotune`); the property tests pin
  ``bound_cycles <= simulated cycles`` across the catalog.
* **Search-ordering heuristics** — cache-fit flags (per-core footprint vs
  private L2, combined footprint vs the topology's shared capacity) and a
  roofline throughput estimate reusing :mod:`repro.analysis.roofline`.
  These order the search so strong incumbents are simulated early; they
  never discard a candidate on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.roofline import EngineRoofline, effective_throughput_tflops
from ..core.engine import EngineConfig
from ..cpu.columnar import KIND_CODES, OPCODES_BY_CODE
from ..cpu.params import MachineParams, get_topology
from ..cpu.topology import TopologyNode
from ..cpu.trace import TraceOpKind
from ..errors import KernelError
from ..kernels.program import KernelProgram
from ..kernels.sharding import KernelPartition, partition_kernel
from ..types import SparsityPattern

_KIND_TILE = KIND_CODES[TraceOpKind.TILE]
#: Is the opcode with this code a tile compute?
_IS_COMPUTE = np.array([opcode.is_compute for opcode in OPCODES_BY_CODE])


@dataclass(frozen=True)
class MappingStatics:
    """Simulation-free statics of one sharded mapping."""

    #: Tile instructions (loads + computes + stores) across all cores.
    tile_instructions: int
    #: Tile *compute* instructions of the most-loaded core — only computes
    #: occupy the matrix-engine pipeline (loads/stores overlap through the
    #: memory system), so only they floor the makespan.
    max_core_compute_instructions: int
    #: Exact shared-memory traffic: sum of per-core trace memory bytes.
    traffic_bytes: int
    #: Exact static load imbalance: max/mean output tiles per core (idle
    #: cores count toward the mean).
    load_imbalance: float
    #: Largest per-core distinct operand footprint in bytes.
    max_core_footprint_bytes: int
    #: Distinct operand footprint of all cores combined, in bytes.
    combined_footprint_bytes: int
    #: Does every core's footprint fit its private L2?
    fits_private_l2: bool
    #: Does the combined footprint fit the topology's shared caches?
    fits_shared_capacity: bool
    #: Issue-rate makespan floor in core cycles (sound lower bound).
    compute_bound_cycles: int
    #: Bandwidth makespan floor in core cycles (0 under ideal prefetch).
    memory_bound_cycles: int
    #: Roofline throughput estimate (ordering heuristic, effectual TFLOPS).
    roofline_tflops: float

    @property
    def bound_cycles(self) -> int:
        """The sound cycle lower bound the dominance pruning tests against."""
        return max(self.compute_bound_cycles, self.memory_bound_cycles)


@dataclass(frozen=True)
class _BlockReductions:
    """One unsharded build reduced block by block, at one line size."""

    #: Kernel totals; every partition's per-core sums add up to them.
    traffic_bytes: int
    tile_instructions: int
    #: Tile computes of every block, in emission order.
    computes: np.ndarray
    #: The distinct (block, line) pairs: ``lines`` indexes the footprint.
    spans: np.ndarray
    lines: np.ndarray
    #: Distinct lines of the whole kernel (the combined footprint).
    footprint_lines: int


@dataclass(frozen=True)
class _PartitionStatics:
    """The engine-independent statics of one partition of one kernel."""

    max_core_compute_instructions: int
    load_imbalance: float
    max_core_lines: int


class KernelBlocks:
    """Per-block statics of one unsharded kernel build.

    ``program`` is the whole ``kind`` kernel as
    :func:`repro.kernels.sharding.build_kernel` emits it without ``blocks``:
    its ``block_starts`` cut the trace into the block-grid cells in
    row-major order.  The reductions run on first use, inside
    :func:`mapping_statics`, and are kept, as is the engine-independent
    part of every partition's statics: the engines that share a partition
    share its aggregation.
    """

    def __init__(self, kind: str, program: KernelProgram) -> None:
        self.kind = kind
        self.program = program
        self._reductions: Dict[int, _BlockReductions] = {}
        self._partitions: Dict[Tuple, _PartitionStatics] = {}

    def _reduce(self, line_bytes: int) -> _BlockReductions:
        reductions = self._reductions.get(line_bytes)
        if reductions is None:
            trace = self.program.trace
            starts = self.program.block_starts
            columns = trace.columns
            tile = columns["kind"] == _KIND_TILE
            compute = tile & _IS_COMPUTE[np.where(tile, columns["opcode"], 0)]
            summary = trace.summarize()
            spans, lines, footprint_lines = trace.span_lines(starts, line_bytes)
            reductions = _BlockReductions(
                traffic_bytes=summary.memory_bytes,
                tile_instructions=summary.tile_total,
                computes=np.add.reduceat(compute.astype(np.int64), starts),
                spans=spans,
                lines=lines,
                footprint_lines=footprint_lines,
            )
            self._reductions[line_bytes] = reductions
        return reductions

    def _aggregate(self, partition: KernelPartition, line_bytes: int) -> _PartitionStatics:
        key = (partition.blocks, line_bytes)
        statics = self._partitions.get(key)
        if statics is not None:
            return statics
        owners = partition.block_owners()
        if len(owners) != len(self.program.block_starts):
            raise KernelError(
                f"{self.program.label}: {len(self.program.block_starts)} blocks "
                f"built, but the partition covers {len(owners)}; price mappings "
                "from the whole, untruncated kernel"
            )
        reductions = self._reduce(line_bytes)
        cores = partition.cores
        core_computes = np.zeros(cores, dtype=np.int64)
        np.add.at(core_computes, owners, reductions.computes)

        tiles = partition.tiles_per_core
        mean_tiles = sum(tiles) / len(tiles)
        load_imbalance = max(tiles) / mean_tiles if mean_tiles else 1.0

        # A core's footprint is the union of its blocks' line sets.
        touched = np.zeros((cores, reductions.footprint_lines), dtype=bool)
        touched[owners[reductions.spans], reductions.lines] = True
        statics = _PartitionStatics(
            max_core_compute_instructions=int(core_computes.max()),
            load_imbalance=load_imbalance,
            max_core_lines=int(touched.sum(axis=1).max()),
        )
        self._partitions[key] = statics
        return statics


def _shared_capacity_bytes(topology: TopologyNode) -> int:
    """Total capacity of the topology's shared cache nodes."""
    return sum(
        node.capacity_bytes
        for _, node in topology.walk()
        if node.capacity_bytes is not None
    )


def mapping_statics(
    blocks: KernelBlocks,
    cores: int,
    strategy: str,
    machine: MachineParams,
    engine: EngineConfig,
    topology: Optional[TopologyNode] = None,
) -> MappingStatics:
    """Compute the pre-filter statics of one mapping of ``blocks``' kernel.

    The mapping shards the kernel over ``cores`` with ``strategy`` against
    ``topology`` (the arguments of :func:`repro.kernels.sharding.shard_kernel`);
    ``topology=None`` is the flat partition on the flat shared pool (the
    ``"flat"`` preset's parameters are used for root bandwidth and shared
    capacity).
    """
    resolved_topology = topology if topology is not None else get_topology("flat")
    line_bytes = machine.l1.line_bytes
    program = blocks.program
    partition = partition_kernel(
        blocks.kind,
        program.shape,
        program.pattern,
        cores,
        strategy,
        topology=topology,
        geometry=program.geometry,
    )
    statics = blocks._aggregate(partition, line_bytes)
    reductions = blocks._reduce(line_bytes)
    combined_lines = reductions.footprint_lines
    max_core_compute_instructions = statics.max_core_compute_instructions
    max_core_footprint_bytes = statics.max_core_lines * line_bytes
    combined_footprint_bytes = combined_lines * line_bytes

    # The engine pipeline initiates compute instructions no faster than one
    # per issue interval (the max stage occupancy; loads and stores overlap
    # through the memory system and never enter the pipeline), and the
    # engine clock runs slower than the core clock, so the most-loaded
    # core's compute count floors the makespan regardless of memory
    # behaviour.
    issue_cycles = max(engine.issue_interval, engine.busy_cycles_per_instruction)
    compute_bound_cycles = (
        max_core_compute_instructions * issue_cycles * machine.core.engine_clock_ratio
    )

    # Every distinct line of the combined footprint is a compulsory miss
    # somewhere, and compulsory misses pay the full path to the topology
    # root (shared caches only absorb capacity misses), so the root's line
    # rate floors the makespan — but only when the machine cannot hide
    # private DRAM latency behind ideal L2 prefetch.
    if machine.prefetch_into_l2:
        memory_bound_cycles = 0
    else:
        root_lines_per_cycle = resolved_topology.lines_per_cycle(machine)
        memory_bound_cycles = (
            int(math.ceil(combined_lines / root_lines_per_cycle))
            if root_lines_per_cycle > 0 and math.isfinite(root_lines_per_cycle)
            else 0
        )

    executed = program.pattern
    sparse_aware = engine.sparse and executed is not SparsityPattern.DENSE_4_4
    density = 1.0 / executed.compression_ratio if sparse_aware else 1.0
    roofline = EngineRoofline(
        name=engine.name,
        # One MAC is two FLOPs; the engine array runs at the matrix clock.
        peak_gflops=engine.total_macs * 2 * machine.core.matrix_engine_frequency_ghz,
        sparse_aware=sparse_aware,
    )
    roofline_tflops = effective_throughput_tflops(
        roofline,
        density,
        shape=program.shape,
        bandwidth_gbps=machine.memory.dram_bandwidth_gbps,
    )

    return MappingStatics(
        tile_instructions=reductions.tile_instructions,
        max_core_compute_instructions=max_core_compute_instructions,
        traffic_bytes=reductions.traffic_bytes,
        load_imbalance=statics.load_imbalance,
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
