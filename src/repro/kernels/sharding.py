"""Multi-core sharding of the tiled kernels.

One GEMM/SPMM/SPGEMM problem is split across N simulated cores by
partitioning the kernel's *block grid* — the builder's register-blocking unit
(a 2x2 group of C tiles for the dense kernel, an interleaved row-pair x one
tile column for the sparse kernels) — with one of the
:data:`~repro.kernels.tiling.PARTITION_STRATEGIES`.  Partitioning whole
blocks keeps every per-core program a valid instance of its builder: the
core's trace is exactly what the single-core builder would emit for its share
of blocks, so the one-core shard is bit-identical to the unsharded kernel and
the union of all shards covers the output-tile grid exactly once.

:func:`shard_kernel` runs in two steps.  :func:`partition_kernel` is the
cheap one: it places the cores, assigns the block-grid cells and records
which output tiles each core owns, without building anything — the
planner prices its mapping candidates from it (and from one unsharded
build per kernel, see :mod:`repro.planner.prefilter`).  The per-core builds
follow only for the mappings that are actually simulated.

The per-core programs are then simulated together by
:func:`repro.cpu.multicore.simulate_multicore`, which adds the shared-L3 /
DRAM bandwidth arbitration the private per-core simulators cannot see.
Because the builders emit columnar traces
(:class:`repro.cpu.columnar.ColumnarTrace`), the per-core programs carry
content-derived simulation keys: the address-shifted shards of one kernel
collapse into a few signature-equivalence classes, of which the multi-core
simulator runs one representative each (see the block-signature
memoization notes in ``repro.cpu.multicore``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cpu.multicore import memoization_enabled
from ..cpu.topology import TopologyNode, place_cores
from ..errors import KernelError
from ..types import DEFAULT_GEOMETRY, GemmShape, SparsityPattern, TileGeometry
from .gemm import build_dense_gemm_kernel, dense_block_grid
from .program import KernelProgram
from .spgemm import build_spgemm_kernel
from .spmm import build_spmm_kernel
from .tiling import TileGrid, interleaved_block_rows, partition_grid

#: Kernel kinds the sharding layer knows how to build.
SHARDABLE_KERNELS = ("gemm", "spmm", "spgemm")


def _check_kernel(kind: str, geometry: TileGeometry) -> None:
    """Reject kernel kinds and geometries the sharding layer cannot build."""
    if kind not in SHARDABLE_KERNELS:
        raise KernelError(
            f"unknown kernel kind {kind!r}; expected one of {SHARDABLE_KERNELS}"
        )
    if kind != "gemm" and geometry != DEFAULT_GEOMETRY:
        raise KernelError(
            f"the {kind} kernel builder is VEGETA-only; "
            f"geometry {geometry.name!r} can only shard the dense kernel"
        )


#: The most recently built kernel, keyed by every :func:`build_kernel`
#: argument (at most one entry, bounding what is held between calls).
#: Sweeps build equal kernels back to back — fig13's engines sharing one
#: layer kernel, a scaling workload's ``cores=1`` shards and its
#: single-core baseline, a shard's idle cores — and those calls share one
#: program: its trace, its lazily materialised ops and its per-trace cache
#: outcomes are built once.  Programs are never modified after
#: construction, which is what makes the sharing safe.
_KERNEL_MEMO: Dict[tuple, KernelProgram] = {}


def build_kernel(
    kind: str,
    shape: GemmShape,
    pattern: SparsityPattern,
    *,
    blocks: Optional[Sequence[Tuple[int, int]]] = None,
    include_loop_overhead: bool = True,
    max_output_tiles: Optional[int] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelProgram:
    """Build the ``kind`` kernel, or only the block-grid cells in ``blocks``.

    ``blocks=None`` emits the whole, unsharded kernel; the arguments mean
    what they mean for :func:`shard_kernel`.  A call with the same
    arguments as the previous one returns the previous program
    (``REPRO_NO_MEMO=1`` always builds afresh).
    """
    _check_kernel(kind, geometry)
    key = (
        kind,
        shape,
        pattern,
        None if blocks is None else tuple(tuple(cell) for cell in blocks),
        include_loop_overhead,
        max_output_tiles,
        geometry,
    )
    memo = memoization_enabled()
    program = _KERNEL_MEMO.get(key) if memo else None
    if program is None:
        if kind == "gemm":
            program = build_dense_gemm_kernel(
                shape,
                include_loop_overhead=include_loop_overhead,
                max_output_tiles=max_output_tiles,
                blocks=blocks,
                geometry=geometry,
            )
        else:
            builder = build_spmm_kernel if kind == "spmm" else build_spgemm_kernel
            program = builder(
                shape,
                pattern,
                include_loop_overhead=include_loop_overhead,
                max_output_tiles=max_output_tiles,
                blocks=blocks,
            )
        if memo:
            _KERNEL_MEMO.clear()
            _KERNEL_MEMO[key] = program
    return program


@dataclass(frozen=True)
class KernelPartition:
    """Which block-grid cells each core owns: :func:`shard_kernel` minus builds.

    ``block_rows[r]`` / ``block_cols[c]`` are the output-tile rows / columns
    that block-grid row ``r`` / column ``c`` covers, deduplicated, so a
    clamped edge block or a single-row interleaved pair counts each of its
    tiles once.  ``blocks[c]`` is core ``c``'s cells in emission order.
    """

    #: The grid pattern: dense for ``gemm``, the operand pattern otherwise.
    pattern: SparsityPattern
    block_rows: Tuple[Tuple[int, ...], ...]
    block_cols: Tuple[Tuple[int, ...], ...]
    blocks: Tuple[Tuple[Tuple[int, int], ...], ...]
    locality: Tuple[str, ...] = ()
    domains: Tuple[int, ...] = ()

    @property
    def cores(self) -> int:
        """Number of simulated cores the kernel is partitioned over."""
        return len(self.blocks)

    @property
    def tiles(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Output-tile coordinates each core's cells cover."""
        return tuple(
            tuple(
                (i, j)
                for row, col in cells
                for i in self.block_rows[row]
                for j in self.block_cols[col]
            )
            for cells in self.blocks
        )

    @property
    def tiles_per_core(self) -> Tuple[int, ...]:
        """Output tiles owned by each core (the static load balance)."""
        return tuple(
            sum(len(self.block_rows[row]) * len(self.block_cols[col]) for row, col in cells)
            for cells in self.blocks
        )

    def block_owners(self) -> np.ndarray:
        """The owning core of every block, in unsharded emission order.

        The builders emit the whole kernel's blocks row-major over the block
        grid, so block ``r * len(block_cols) + c`` is cell ``(r, c)``.
        """
        width = len(self.block_cols)
        owners = np.empty(len(self.block_rows) * width, dtype=np.intp)
        for core, cells in enumerate(self.blocks):
            owners[[row * width + col for row, col in cells]] = core
        return owners


def partition_kernel(
    kind: str,
    shape: GemmShape,
    pattern: SparsityPattern,
    cores: int,
    strategy: str = "row-block",
    *,
    topology: Optional[TopologyNode] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> KernelPartition:
    """Partition one kernel's block grid across ``cores``; build nothing.

    The cells, locality paths, domains and tiles are exactly those of
    :func:`shard_kernel` with the same arguments (which calls this first).
    """
    _check_kernel(kind, geometry)
    grid_pattern = SparsityPattern.DENSE_4_4 if kind == "gemm" else pattern
    grid = TileGrid(shape=shape, pattern=grid_pattern, geometry=geometry)
    if kind == "gemm":
        row_pairs, col_pairs = dense_block_grid(grid)
        block_rows = tuple(tuple(dict.fromkeys(pair)) for pair in row_pairs)
        block_cols = tuple(tuple(dict.fromkeys(pair)) for pair in col_pairs)
    else:
        block_rows = tuple(interleaved_block_rows(grid.tiles_m))
        block_cols = tuple((j,) for j in range(grid.tiles_n))
    locality: Tuple[str, ...] = ()
    domains: Tuple[int, ...] = ()
    group_size: Optional[int] = None
    if topology is not None:
        placement = place_cores(topology, cores)
        locality = placement.paths
        domains = placement.leaf_index
        common = math.gcd(*placement.domain_sizes())
        # A one-core common domain size carries no alignment information —
        # aligning to it would only perturb the process grid, so the flat
        # factorization stands.
        group_size = common if common > 1 else None
    assignments = partition_grid(
        len(block_rows), len(block_cols), cores, strategy, group_size=group_size
    )
    return KernelPartition(
        pattern=grid_pattern,
        block_rows=block_rows,
        block_cols=block_cols,
        blocks=tuple(tuple(cells) for cells in assignments),
        locality=locality,
        domains=domains,
    )


@dataclass(frozen=True)
class ShardedKernel:
    """The per-core decomposition of one kernel.

    ``programs[c]`` is core ``c``'s :class:`KernelProgram` (possibly with an
    empty trace when the partition left the core idle), ``blocks[c]`` its
    block-grid cells and ``tiles[c]`` the output-tile coordinates those cells
    cover.  ``tiles`` always partitions the full padded output-tile grid.
    """

    kind: str
    shape: GemmShape
    pattern: SparsityPattern
    strategy: str
    programs: Tuple[KernelProgram, ...]
    blocks: Tuple[Tuple[Tuple[int, int], ...], ...]
    tiles: Tuple[Tuple[Tuple[int, int], ...], ...]
    #: Per-core locality path when sharded against a topology (e.g.
    #: ``"socket0/l3-00"``), empty otherwise.
    locality: Tuple[str, ...] = ()
    #: Per-core leaf-domain index matching ``locality``.
    domains: Tuple[int, ...] = ()

    @property
    def cores(self) -> int:
        """Number of simulated cores the kernel was sharded over."""
        return len(self.programs)

    @property
    def tiles_per_core(self) -> Tuple[int, ...]:
        """Output tiles owned by each core (the static load balance)."""
        return tuple(len(core_tiles) for core_tiles in self.tiles)

    @property
    def domain_count(self) -> int:
        """Distinct leaf locality domains the cores were placed on."""
        return len(set(self.domains)) if self.domains else 1


def shard_kernel(
    kind: str,
    shape: GemmShape,
    pattern: SparsityPattern,
    cores: int,
    strategy: str = "row-block",
    *,
    include_loop_overhead: bool = True,
    max_output_tiles: Optional[int] = None,
    topology: Optional[TopologyNode] = None,
    geometry: TileGeometry = DEFAULT_GEOMETRY,
) -> ShardedKernel:
    """Shard one kernel's output-tile grid across ``cores`` simulated cores.

    ``kind`` selects the builder (``"gemm"`` / ``"spmm"`` / ``"spgemm"``);
    ``pattern`` is the A pattern for SPMM and the joint operand pattern for
    SPGEMM (ignored for the dense kernel).  With ``cores=1`` the single
    program is bit-identical to the unsharded builder output.

    ``topology`` makes the partition hierarchy-aware: cores are placed on
    the topology's leaf locality domains
    (:func:`repro.cpu.topology.place_cores`, contiguous index bands), each
    core's ``locality`` path and ``domains`` index are recorded on the
    shard, and the 2D-cyclic process grid is aligned so whole process rows
    pack inside one domain — a socket's shards then share their A-operand
    footprint, which the per-domain shared-cache model rewards.  The band
    strategies already keep each domain's shards adjacent, so their cell
    assignment is unchanged; with ``topology=None`` every strategy is
    bit-identical to the flat partition.

    ``geometry`` shards the dense kernel for a foreign tile geometry (the
    AMX-like / SME-like backends): the block grid, per-core builds and the
    resulting traces all use that geometry's tile sizes.  The sparse
    builders are VEGETA-only, so a non-default geometry on ``spmm`` /
    ``spgemm`` is an error rather than a silently mis-partitioned grid.
    """
    partition = partition_kernel(
        kind, shape, pattern, cores, strategy, topology=topology, geometry=geometry
    )
    programs: List[KernelProgram] = []
    for core, cells in enumerate(partition.blocks):
        program = build_kernel(
            kind,
            shape,
            pattern,
            blocks=cells,
            include_loop_overhead=include_loop_overhead,
            max_output_tiles=max_output_tiles,
            geometry=geometry,
        )
        # A labelled copy: the built program may be shared through the
        # kernel memo, so it is never relabelled in place.
        programs.append(replace(program, label=f"{program.label}@core{core}/{cores}"))
    return ShardedKernel(
        kind=kind,
        shape=shape,
        pattern=partition.pattern,
        strategy=strategy,
        programs=tuple(programs),
        blocks=partition.blocks,
        tiles=partition.tiles,
        locality=partition.locality,
        domains=partition.domains,
    )
