"""Steady-state fast path for the cycle-approximate simulator.

The kernel generators emit traces that are overwhelmingly periodic: the same
output-tile block (C loads, the K loop of A/B loads + tile computes, C
stores, plus the scalar/branch loop overhead) repeats with nothing but the
memory addresses changing.  Simulating every repetition with the event-driven
scoreboard is what forced the Figure 13 flow to truncate traces to a couple
of output tiles and extrapolate (``simulated_fraction``).

This module removes that bottleneck without giving up fidelity.  The cache
level that serves each line access is a pure function of the line-address
sequence: the L1 outcome is an exact LRU replay of the whole line stream,
the L2 outcome an exact LRU replay of the L1-miss stream (or, under the
paper's prefetch-into-L2 assumption, an L2 hit by construction), and every
L2 miss goes to DRAM.  The columnar trace computes these outcomes once per
trace and cache geometry and shares them with the memoization key
(:meth:`~repro.cpu.columnar.ColumnarTrace.level_outcomes`,
:meth:`~repro.cpu.columnar.ColumnarTrace.miss_outcomes`).  With the
outcomes scripted (:class:`repro.cpu.memory.ScriptedHierarchy`), each
simulator step becomes a function of (state, per-op input word), where the
input word packs the op's timing signature — including the per-op
``feed_overhead`` of the dual-sparsity metadata intersection — with its
request's scripted delay, line count and DRAM line count.  Given the L2-port
and DRAM clocks the state already carries, those three numbers fix the
request's completion and both clock updates.

At every block boundary the state is digested into a canonical
shift-normalized form (:meth:`repro.cpu.simulator.SimulatorState.shift_digest`);
a digest match against a boundary ``q`` blocks earlier plus element-wise
equality of the input words over the span to be skipped *proves, by
induction over the step function*, that the next ``K`` periods replay
shifted by a constant ``K * delta`` — so they are skipped in closed form,
with counters advanced by exact prefix sums rather than extrapolated deltas.
Intermediate landing boundaries are marked as well, so chained jumps
(including a final jump to the very end of a segment) need no re-validation
blocks in between.  Fast therefore equals exact bit for bit on every
machine.

Super-periods up to :data:`MAX_SUPER_PERIOD` blocks are searched: a block
whose op count is not a multiple of the issue width only repeats its issue
alignment every ``issue_width`` blocks, and the dual N:M metadata streams of
the SpGEMM kernels impose their own (layout-driven) cache super-period on
top.  Traces with no periodic structure, and traces with no columnar form,
get None from :func:`run_fast` and run through the exact path unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.engine import EngineConfig
from .columnar import KIND_CODES, ColumnarTrace
from .memory import LEVEL_DRAM, ScriptedHierarchy
from .params import MachineParams
from .simulator import SimulationResult, SimulatorState
from .trace import TraceOp, TraceOpKind, TraceSummary

#: Segments shorter than this are simply simulated exactly.
MIN_BLOCKS_TO_SKIP = 4

#: An anchor signature must repeat at least this often to define periodicity.
MIN_ANCHOR_REPEATS = 3

#: Upper bound on blocks skipped per proven steady-state jump.  Every jump is
#: proven exact, so the cap only bounds the boundary marks recorded per jump;
#: longer steady spans are covered by chained jumps.
MAX_SKIP_BLOCKS = 512

#: Largest super-period (in blocks) considered for the steady state.  Sized
#: to cover both the issue-width alignment period and the metadata/cache-set
#: super-period of the dual N:M streams in the SpGEMM kernels (whose padded
#: layouts repeat their L1-set pattern every ``tiles_n`` = 16 blocks).
MAX_SUPER_PERIOD = 16

_TILE_CODE = KIND_CODES[TraceOpKind.TILE]


def op_signature(op: TraceOp) -> tuple:
    """Timing-relevant identity of a trace op, excluding its memory address.

    Two ops with equal signatures exercise the same scheduling path through
    the simulator (same kind, registers, access size, latency class and —
    for tile computes — the same per-op feed overhead); periodic kernels
    repeat signature sequences exactly while the addresses stride forward.
    The fast path reads these signatures as the ids of
    :meth:`~repro.cpu.columnar.ColumnarTrace.signature_ids`, which are
    tested against interning this function's tuples op by op.
    """
    tile = op.tile
    if tile is None:
        return (op.kind, op.dst_reg, op.src_regs, op.nbytes, op.label)
    return (
        op.kind,
        tile.opcode,
        tile.dst,
        tile.src_a,
        tile.src_b,
        tile.memory.nbytes if tile.memory is not None else 0,
        op.label,
        tile.feed_overhead,
    )


def _starts_from_signatures(signatures: np.ndarray) -> Optional[List[int]]:
    """Anchor-based periodic block starts from a signature array, or None."""
    if len(signatures) < 2 * MIN_ANCHOR_REPEATS:
        return None
    values, counts = np.unique(signatures, return_counts=True)
    repeated = counts >= MIN_ANCHOR_REPEATS
    if not repeated.any():
        return None
    candidates = values[repeated]
    anchor = candidates[np.argmin(counts[repeated])]
    occurrences = np.flatnonzero(signatures == anchor)
    if len(occurrences) < MIN_ANCHOR_REPEATS:
        return None
    return occurrences.tolist()


def build_segments(
    block_starts: Sequence[int], trace_length: int, signatures: np.ndarray
) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Group consecutive identical blocks into uniform segments.

    Returns ``(bounds, segments)`` where ``bounds`` has one entry per block
    start plus the trace length, and each segment is ``(first_block, count)``.
    Two neighbouring blocks belong to the same segment when they have equal
    length and byte-identical signature content (signatures include per-op
    feed overheads, so blocks whose overhead sequences differ element-wise
    are never merged).
    """
    bounds = list(block_starts) + [trace_length]
    num_blocks = len(block_starts)
    lengths = [bounds[index + 1] - bounds[index] for index in range(num_blocks)]

    def same(index: int) -> bool:
        if lengths[index] != lengths[index + 1] or lengths[index] <= 0:
            return False
        a, b = bounds[index], bounds[index + 1]
        return bool(
            np.array_equal(signatures[a : a + lengths[index]], signatures[b : b + lengths[index]])
        )

    segments: List[Tuple[int, int]] = []
    index = 0
    while index < num_blocks:
        end = index
        while end + 1 < num_blocks and same(end):
            end += 1
        segments.append((index, end - index + 1))
        index = end + 1
    return bounds, segments


# -- scripted oracle ---------------------------------------------------------------


class _OracleScript:
    """Whole-trace precomputation backing the fast path.

    ``levels`` is the per-line level script the :class:`ScriptedHierarchy`
    replays (its counters follow from the consumed prefix of the script).
    ``inputs`` packs, per op, everything the simulator's step function reads
    besides the machine state: the content signature id (kind, opcode,
    registers, label, per-op feed overhead) together with the scripted
    delay, line count and DRAM line count of the op's request.  The
    cumulative arrays turn any skipped span's line, request, byte and
    compute counts into O(1) prefix-sum differences, bit-identical to
    stepping the span.
    """

    __slots__ = (
        "levels",
        "inputs",
        "line_offset",
        "requests_cum",
        "bytes_cum",
        "computes_cum",
    )

    def __init__(
        self,
        levels: bytes,
        inputs: np.ndarray,
        line_offset: np.ndarray,
        requests_cum: np.ndarray,
        bytes_cum: np.ndarray,
        computes_cum: np.ndarray,
    ) -> None:
        self.levels = levels
        self.inputs = inputs
        self.line_offset = line_offset
        self.requests_cum = requests_cum
        self.bytes_cum = bytes_cum
        self.computes_cum = computes_cum


def _build_oracle(
    machine: MachineParams, columnar: ColumnarTrace, signatures: np.ndarray
) -> Optional[_OracleScript]:
    """Precompute the scripted outcomes and packed input words, or None.

    Within one request the L2 port delivers line ``j`` at ``port + j`` and
    the ``k``-th DRAM line leaves the channel at ``dram + k * line_cycles``,
    so the request completes at ``max(cycle, port + delay,
    dram + (dram_lines - 1) * line_cycles + dram_latency)`` with ``delay =
    max_j(j + latency_j)``, and the two clocks advance by ``lines`` and
    ``dram_lines * line_cycles``.  (delay, lines, dram_lines) per op is
    therefore all the step function reads of the memory script.
    """
    cols = columnar.columns
    line_bytes = machine.l1.line_bytes
    addresses = cols["address"]
    mem_mask = addresses >= 0
    nbytes = cols["nbytes"].astype(np.int64)
    n = len(cols)

    counts = np.zeros(n, dtype=np.int64)
    if mem_mask.any():
        addr = addresses[mem_mask].astype(np.int64)
        first = addr // line_bytes
        last = (addr + nbytes[mem_mask] - 1) // line_bytes
        counts[mem_mask] = last - first + 1
        if counts[mem_mask].min(initial=1) <= 0:
            return None  # zero-byte request: let the exact path raise

    hit_bits = columnar.level_outcomes(machine.l1)
    levels = (~hit_bits).astype(np.int8)  # LEVEL_L1 on a hit, LEVEL_L2 otherwise
    latency = np.where(hit_bits, machine.l1.hit_latency, machine.l2.hit_latency)
    dram_counts = None

    line_offset = np.concatenate(([0], np.cumsum(counts)))
    total = int(line_offset[-1])
    delay = np.zeros(n, dtype=np.int64)
    if total:
        counts_mem = counts[mem_mask]
        starts_mem = np.cumsum(counts_mem) - counts_mem
        if not machine.prefetch_into_l2:
            dram = np.zeros(total, dtype=bool)
            dram[~hit_bits] = ~columnar.miss_outcomes(machine.l1, machine.l2)
            levels[dram] = LEVEL_DRAM
            latency[dram] = machine.memory.dram_latency_cycles
            dram_counts = np.zeros(n, dtype=np.int64)
            dram_counts[mem_mask] = np.add.reduceat(dram.astype(np.int64), starts_mem)
        within = np.arange(total, dtype=np.int64) - np.repeat(starts_mem, counts_mem)
        delay[mem_mask] = np.maximum.reduceat(within + latency, starts_mem)

    # Mixed-radix packing: injective within the trace, which is all the
    # span comparisons need.
    delay_radix = int(delay.max(initial=0)) + 1
    lines_radix = int(counts.max(initial=0)) + 1
    if n * delay_radix * lines_radix * lines_radix >= 2**62:
        return None
    inputs = (signatures * delay_radix + delay) * lines_radix + counts
    if dram_counts is not None:
        inputs = inputs * lines_radix + dram_counts
    is_compute = (cols["kind"] == _TILE_CODE) & ~mem_mask
    return _OracleScript(
        levels=levels.tobytes(),
        inputs=inputs,
        line_offset=line_offset,
        requests_cum=np.concatenate(([0], np.cumsum(mem_mask))),
        bytes_cum=np.concatenate(([0], np.cumsum(np.where(mem_mask, nbytes, 0)))),
        computes_cum=np.concatenate(([0], np.cumsum(is_compute))),
    )


def _run_oracle(
    machine: MachineParams,
    engine: Optional[EngineConfig],
    columnar: ColumnarTrace,
    script: _OracleScript,
    bounds: List[int],
    segments: List[Tuple[int, int]],
) -> SimulationResult:
    """Digest-locked fast path over scripted memory outcomes.

    Soundness of every jump: a boundary digest match proves
    ``state(b) == shift(state(b - q), delta)`` (the digest is a canonical
    shift-normal form of everything :meth:`SimulatorState.step` can read),
    and the input-word equality over the skipped span proves, by induction
    on the step function, that each of the next ``K`` periods replays under
    that shift — so ``state.shift(K * delta, ...)`` lands on the exact state
    and the prefix-sum counters equal the stepped counters bit-for-bit.
    """
    state = SimulatorState(machine, engine, retain_pipeline_history=False)
    state.memory.hierarchy = ScriptedHierarchy(
        script.levels,
        machine.l1.hit_latency,
        machine.l2.hit_latency,
        machine.memory.dram_latency_cycles,
    )
    summary = TraceSummary()
    inputs = script.inputs
    max_super_period = MAX_SUPER_PERIOD
    max_skip_blocks = MAX_SKIP_BLOCKS
    stepped = 0
    skipped = 0

    def simulate_span(start: int, end: int) -> None:
        source = columnar.ops_span(start, end)
        step = state.step
        for index in range(start, end):
            step(source[index])

    # Warm-up prefix before the first detected block.
    simulate_span(0, bounds[0])
    _merge_summary(summary, columnar.summarize_span(0, bounds[0]))

    for first_block, count in segments:
        segment_start = bounds[first_block]
        segment_end = bounds[first_block + count]
        period = bounds[first_block + 1] - bounds[first_block]
        if count < MIN_BLOCKS_TO_SKIP:
            simulate_span(segment_start, segment_end)
            _merge_summary(summary, columnar.summarize_span(segment_start, segment_end))
            stepped += count
            continue
        # All blocks of a segment are signature-identical (segments are
        # always signature-verified in full), so skipped repetitions
        # summarize as copies of the segment head.
        _merge_summary(
            summary, columnar.summarize_span(segment_start, segment_start + period), count
        )

        #: block index within the segment -> (shift digest, issue cycle).
        boundaries: Dict[int, Tuple[tuple, int]] = {}
        index = 0
        while index < count:
            digest = state.shift_digest()
            cycle = state.issue_cycle
            boundaries[index] = (digest, cycle)
            jumped = False
            for q in range(1, min(max_super_period, index) + 1):
                mark = boundaries.get(index - q)
                if mark is None or mark[0] != digest:
                    continue
                delta = cycle - mark[1]
                if delta <= 0:
                    continue
                if state.pipeline is not None and delta % state.ratio:
                    continue  # unreachable: the digest pins the clock phase
                limit = min((count - index) // q, max_skip_blocks // q)
                if limit <= 0:
                    continue
                qp = q * period
                start = segment_start + index * period
                # One-period probe first (cheap), then scan the full span;
                # the first mismatching op caps the jump at whole periods.
                if not np.array_equal(
                    inputs[start : start + qp], inputs[start - qp : start]
                ):
                    continue
                periods = limit
                if limit > 1:
                    span = limit * qp
                    tail = np.flatnonzero(
                        inputs[start + qp : start + span]
                        != inputs[start : start + span - qp]
                    )
                    if len(tail):
                        periods = 1 + int(tail[0]) // qp
                end = start + periods * qp
                computes = int(script.computes_cum[end] - script.computes_cum[start])
                engine_delta = (periods * delta) // state.ratio if state.pipeline else 0
                state.shift(periods * delta, computes, engine_delta)
                state.memory.skip_span(
                    requests=int(script.requests_cum[end] - script.requests_cum[start]),
                    nbytes=int(script.bytes_cum[end] - script.bytes_cum[start]),
                    lines=int(script.line_offset[end] - script.line_offset[start]),
                )
                # Mark every intermediate landing: the states there are the
                # same digest shifted by k * delta, so a later boundary can
                # chain its own jump off them without re-stepping q blocks.
                for k in range(1, periods + 1):
                    boundaries[index + k * q] = (digest, cycle + k * delta)
                skipped += periods * q
                index += periods * q
                jumped = True
                break
            if jumped:
                continue
            start = segment_start + index * period
            simulate_span(start, start + period)
            stepped += 1
            index += 1
            if len(boundaries) > 8 * max_super_period:
                floor = index - max_super_period
                for key in [key for key in boundaries if key < floor]:
                    del boundaries[key]

    core_cycles = max(state.last_completion, state.issue_cycle + 1)
    return state.result(
        summary,
        core_cycles,
        fast_blocks_stepped=stepped,
        fast_blocks_skipped=skipped,
    )


def _valid_block_starts(block_starts: Sequence[int], trace_length: int) -> bool:
    """Structural sanity of a hint: strictly increasing indices inside the trace."""
    previous = -1
    for start in block_starts:
        if not isinstance(start, int) or start <= previous or start >= trace_length:
            return False
        previous = start
    return True


def _merge_summary(total: TraceSummary, part: TraceSummary, scale: int = 1) -> None:
    """Accumulate ``scale`` copies of ``part`` into ``total``."""
    total.total += scale * part.total
    total.tile_compute += scale * part.tile_compute
    total.tile_load += scale * part.tile_load
    total.tile_store += scale * part.tile_store
    total.vector_fma += scale * part.vector_fma
    total.vector_load += scale * part.vector_load
    total.vector_store += scale * part.vector_store
    total.scalar += scale * part.scalar
    total.branch += scale * part.branch
    total.memory_bytes += scale * part.memory_bytes
    for opcode, count in part.by_opcode.items():
        total.by_opcode[opcode] = total.by_opcode.get(opcode, 0) + scale * count


def run_fast(
    machine: MachineParams,
    engine: Optional[EngineConfig],
    trace: Sequence[TraceOp],
    block_starts: Optional[Sequence[int]] = None,
) -> Optional[SimulationResult]:
    """Fast-path simulation; None when the trace has no columnar form or period.

    ``block_starts`` comes from the kernel builders when available; it only
    saves the anchor search, as every segment is verified against the
    trace's signature ids in full, and an invalid hint falls back to anchor
    detection over the same array.  Plain op lists are wrapped with
    :meth:`ColumnarTrace.from_ops` first.
    """
    columnar = ColumnarTrace.from_ops(trace)
    if not columnar.has_columns:
        return None
    n = len(columnar)
    signatures = columnar.signature_ids()
    if (
        block_starts is None
        or len(block_starts) < MIN_ANCHOR_REPEATS
        or not _valid_block_starts(block_starts, n)
    ):
        block_starts = _starts_from_signatures(signatures)
        if block_starts is None:
            return None
    bounds, segments = build_segments(block_starts, n, signatures)
    script = _build_oracle(machine, columnar, signatures)
    if script is None:
        return None
    return _run_oracle(machine, engine, columnar, script, bounds, segments)
