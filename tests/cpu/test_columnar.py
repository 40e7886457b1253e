"""Tests for the columnar trace representation and its vectorised views."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import isa
from repro.core.engine import get_engine
from repro.core.registers import treg
from repro.cpu.cache import Cache, CacheHierarchy
from repro.cpu.columnar import (
    ColumnarTrace,
    TraceBuilder,
    _level_evicts,
    _sorted_unique,
    lru_outcome_bits,
)
from repro.cpu.fastsim import op_signature
from repro.cpu.params import CacheParams, MachineParams, default_machine
from repro.cpu.simulator import CycleApproximateSimulator
from repro.errors import SimulationError
from repro.cpu.trace import (
    TraceOp,
    TraceOpKind,
    summarize_trace,
    trace_memory_footprint,
    tile_op,
    vector_fma,
)
from repro.kernels.gemm import build_dense_gemm_kernel
from repro.kernels.spgemm import build_spgemm_kernel
from repro.kernels.spmm import build_spmm_kernel
from repro.kernels.vector import build_vector_gemm_kernel
from repro.types import GemmShape, SparsityPattern


def all_programs():
    shape = GemmShape(64, 64, 256)
    return [
        build_dense_gemm_kernel(shape),
        build_dense_gemm_kernel(shape, variant="listing1"),
        build_spmm_kernel(shape, SparsityPattern.SPARSE_2_4),
        build_spmm_kernel(shape, SparsityPattern.SPARSE_1_4),
        build_spgemm_kernel(shape, SparsityPattern.SPARSE_2_4),
        build_vector_gemm_kernel(GemmShape(16, 64, 64)),
    ]


class TestColumnarParity:
    """The columnar views agree with the op-by-op reference computations."""

    @pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.label)
    def test_materialised_ops_roundtrip(self, program):
        # Re-materialising from columns alone reproduces the op objects the
        # legacy builders would have produced, field for field.
        trace = program.trace
        assert trace.has_columns
        rebuilt = ColumnarTrace(columns=trace.columns, labels=trace.labels)
        assert list(rebuilt) == list(trace)

    @pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.label)
    def test_signature_ids_match_interning(self, program):
        ops = list(program.trace)
        table = {}
        expected = []
        for op in ops:
            key = op_signature(op)
            expected.append(table.setdefault(key, len(table)))
        assert np.array_equal(program.trace.signature_ids(), np.array(expected))

    @pytest.mark.parametrize("program", all_programs(), ids=lambda p: p.label)
    def test_summaries_and_footprints(self, program):
        ops = list(program.trace)
        assert program.trace.summarize() == summarize_trace(ops)
        assert program.trace.summarize_span(3, 41) == summarize_trace(ops[3:41])
        assert program.trace.memory_regions() == sorted(
            {
                (op.tile.memory.address, op.tile.memory.nbytes)
                if op.kind is TraceOpKind.TILE and op.tile.memory is not None
                else (op.address, op.nbytes)
                for op in ops
                if (op.kind is TraceOpKind.TILE and op.tile.memory is not None)
                or op.address is not None
            }
        )

    def test_from_ops_equals_builder_columns(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        converted = ColumnarTrace.from_ops(list(program.trace))
        assert np.array_equal(converted.columns, program.trace.columns)
        assert converted.labels == program.trace.labels


class TestDeterministicIds:
    def test_first_appearance_order(self):
        ids = build_dense_gemm_kernel(GemmShape(64, 64, 128)).trace.signature_ids()
        seen = set()
        expected_next = 0
        for value in ids:
            if value not in seen:
                assert value == expected_next
                seen.add(value)
                expected_next += 1


class TestGracefulFallback:
    def test_inexpressible_op_keeps_sequence_behaviour(self):
        # A three-source FMA does not fit the two-register columns; the trace
        # must still behave as a sequence, with the vectorised views off.
        ops = [vector_fma(0, (1, 2, 3)), vector_fma(0, (1, 2, 3))]
        trace = ColumnarTrace.from_ops(ops)
        assert not trace.has_columns
        assert list(trace) == ops
        assert len(trace) == 2

    def test_labelled_tile_op_falls_back(self):
        # Builders never label the TraceOp wrapper of a tile instruction;
        # foreign traces that do cannot be expressed columnar.
        op = tile_op(isa.tile_load_t(treg(0), 0x100, "load"), label="wrapper")
        trace = ColumnarTrace.from_ops([op])
        assert not trace.has_columns
        assert trace[0] == op


class TestLazyMaterialisation:
    def test_ops_span_fills_only_the_span(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        trace = ColumnarTrace(
            columns=program.trace.columns, labels=program.trace.labels
        )
        buffer = trace.ops_span(10, 20)
        assert all(isinstance(op, TraceOp) for op in buffer[10:20])
        assert buffer[0] is None and buffer[25] is None
        # Full materialisation still works afterwards and agrees.
        assert trace.ops()[10:20] == buffer[10:20]

    def test_pickle_ships_columns_not_ops(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        trace = program.trace
        trace.ops()  # populate the cache
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._ops is None
        assert list(clone) == list(trace)


class TestLruOutcomeReplay:
    def test_matches_cache_model_on_random_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            num_sets = int(rng.integers(2, 16))
            associativity = int(rng.integers(1, 5))
            ids = rng.integers(0, num_sets * associativity * 3, size=300)
            cache = Cache(
                CacheParams(
                    name="t",
                    capacity_bytes=num_sets * associativity * 64,
                    associativity=associativity,
                    line_bytes=64,
                )
            )
            reference = np.array([cache.access(int(i) * 64) for i in ids])
            assert np.array_equal(
                reference, lru_outcome_bits(ids, num_sets, associativity)
            )


def _line_trace(lines):
    """A trace of one-line vector loads touching ``lines`` in order."""
    builder = TraceBuilder()
    for line in lines:
        builder.vector_load(0, int(line) * 64, 64)
    return builder.finish()


def _level(num_sets, associativity, name="L1D"):
    return CacheParams(
        name=name,
        capacity_bytes=num_sets * associativity * 64,
        associativity=associativity,
        line_bytes=64,
    )


class TestLevelOutcomeCache:
    @pytest.mark.parametrize("evicting", [False, True])
    @given(
        num_sets=st.sampled_from([1, 2, 4, 8]),
        associativity=st.integers(1, 4),
        draws=st.lists(st.integers(0, 10**6), max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_stream_equals_lru_replay(
        self, evicting, num_sets, associativity, draws
    ):
        capacity = num_sets * associativity
        if evicting:
            # Any stream, plus one more distinct line in set 0 than it holds.
            lines = [d % (4 * capacity) for d in draws]
            lines += [num_sets * tag for tag in range(associativity + 1)]
        else:
            # At most `associativity` distinct lines per set: never evicts.
            lines = [d % capacity for d in draws]
        ids = np.asarray(lines, dtype=np.int64)
        reference = lru_outcome_bits(ids, num_sets, associativity)
        level = _level(num_sets, associativity)
        # The eviction check lets a non-evicting level skip the replay;
        # unchecked, the outcomes come from the replay.
        evicts = _level_evicts(level, ids)
        assert evicts is evicting
        checked = _line_trace(lines)
        assert np.array_equal(checked.level_outcomes(level, evicts), reference)
        replayed = _line_trace(lines)
        assert np.array_equal(replayed.level_outcomes(level), reference)
        # Served from the cache the second time, unchanged.
        assert np.array_equal(replayed.level_outcomes(level), reference)

    def test_cache_key_includes_geometry(self):
        lines = [0, 2, 0, 2, 4, 0, 6, 2]
        trace = _line_trace(lines)
        ids = np.asarray(lines, dtype=np.int64)
        direct = trace.level_outcomes(_level(2, 1))
        two_way = trace.level_outcomes(_level(4, 2))
        assert np.array_equal(direct, lru_outcome_bits(ids, 2, 1))
        assert np.array_equal(two_way, lru_outcome_bits(ids, 4, 2))
        assert not np.array_equal(direct, two_way)

    def test_pickle_round_trip_drops_the_caches(self):
        program = build_dense_gemm_kernel(GemmShape(64, 64, 128))
        trace = program.trace
        machine = default_machine()
        key = trace.simulation_key(machine, program.block_starts)
        trace.level_outcomes(machine.l1)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._level_hits == {} and clone._address_digests == {}
        assert clone.simulation_key(machine, program.block_starts) == key

    def test_non_evicting_level_skips_the_replay(self, monkeypatch):
        import repro.cpu.columnar as columnar

        def forbidden(ids, num_sets, associativity):
            raise AssertionError("replayed a level that cannot evict")

        lines = [0, 1, 0, 1, 2]
        monkeypatch.setattr(columnar, "lru_outcome_bits", forbidden)
        level = _level(4, 1)
        assert _level_evicts(level, np.asarray(lines)) is False
        hits = _line_trace(lines).level_outcomes(level, evicts=False)
        assert hits.tolist() == [False, False, True, True, False]

    def test_memo_key_and_oracle_share_one_replay(self, monkeypatch):
        import repro.cpu.columnar as columnar

        calls = []

        def counted(ids, num_sets, associativity):
            calls.append(len(ids))
            return lru_outcome_bits(ids, num_sets, associativity)

        monkeypatch.setattr(columnar, "lru_outcome_bits", counted)
        # A 1 KiB L1 evicts on this footprint, so the replay cannot be skipped.
        machine = MachineParams(l1=_level(8, 2))
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        engine = get_engine("VEGETA-D-1-2")
        simulator = CycleApproximateSimulator(machine=machine, engine=engine)
        key = program.trace.simulation_key(machine, program.block_starts)
        first = simulator.run(program.trace, block_starts=program.block_starts)
        assert program.trace.simulation_key(machine, program.block_starts) == key
        second = simulator.run(program.trace, block_starts=program.block_starts)
        assert len(calls) == 1
        assert first == second
        fresh = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        exact = CycleApproximateSimulator(
            machine=machine, engine=engine, mode="exact"
        ).run(fresh.trace)
        assert first.core_cycles == exact.core_cycles
        assert first.memory_counters == exact.memory_counters

    @given(
        l2_line_bytes=st.sampled_from([64, 128]),
        draws=st.lists(st.integers(0, 10**6), max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_l2_stream_matches_the_hierarchy(self, l2_line_bytes, draws):
        # The L2 outcome of every L1 miss, replayed on the L1-miss stream at
        # L2-line granularity, is the level CacheHierarchy serves it from.
        l1 = _level(2, 2)
        l2 = CacheParams(
            name="L2",
            capacity_bytes=4 * 2 * l2_line_bytes,
            associativity=2,
            line_bytes=l2_line_bytes,
        )
        lines = [d % 64 for d in draws] + list(range(0, 64, 4))
        trace = _line_trace(lines)
        l1_hits = trace.level_outcomes(l1)
        l2_hits = trace.miss_outcomes(l1, l2)
        hierarchy = CacheHierarchy(l1, l2, dram_latency=200)
        served = [hierarchy.access_line(line * 64).level for line in lines]
        assert [level == "L1" for level in served] == l1_hits.tolist()
        assert [level == "L2" for level in served if level != "L1"] == l2_hits.tolist()

    def test_memo_key_and_oracle_share_the_l2_replay(self, monkeypatch):
        import repro.cpu.columnar as columnar

        calls = []

        def counted(ids, num_sets, associativity):
            calls.append(len(ids))
            return lru_outcome_bits(ids, num_sets, associativity)

        monkeypatch.setattr(columnar, "lru_outcome_bits", counted)
        # Without the ideal prefetch both levels evict on this footprint, so
        # the key and the oracle each need one replay per level.
        machine = MachineParams(
            l1=_level(8, 2),
            l2=CacheParams(name="L2", capacity_bytes=16 * 1024, hit_latency=14),
            prefetch_into_l2=False,
        )
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        engine = get_engine("VEGETA-D-1-2")
        program.trace.simulation_key(machine, program.block_starts)
        fast = CycleApproximateSimulator(machine=machine, engine=engine).run(
            program.trace, block_starts=program.block_starts
        )
        assert len(calls) == 2
        exact = CycleApproximateSimulator(machine=machine, engine=engine).run(
            program.trace, mode="exact"
        )
        assert fast.core_cycles == exact.core_cycles
        assert fast.memory_counters == exact.memory_counters
        assert fast.memory_counters["dram_line_requests"] > 0


class TestSimulationKey:
    def test_rebuilt_kernel_shares_key(self):
        machine = default_machine()
        first = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        second = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        assert first.trace.simulation_key(machine, first.block_starts) == (
            second.trace.simulation_key(machine, second.block_starts)
        )

    def test_key_sees_structural_differences(self):
        machine = default_machine()
        base = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        other = build_dense_gemm_kernel(GemmShape(64, 64, 512))
        assert base.trace.simulation_key(machine, base.block_starts) != (
            other.trace.simulation_key(machine, other.block_starts)
        )

    def test_key_includes_block_hints(self):
        machine = default_machine()
        program = build_dense_gemm_kernel(GemmShape(64, 64, 256))
        with_hints = program.trace.simulation_key(machine, program.block_starts)
        without = program.trace.simulation_key(machine, None)
        assert with_hints != without

    def test_empty_trace_has_a_key(self):
        empty = TraceBuilder().finish()
        assert empty.simulation_key(default_machine(), None) is not None


class TestSortedUnique:
    @given(
        st.lists(
            st.one_of(
                st.integers(-4, 4),
                st.integers(-(2**63), 2**63 - 1),
            ),
            max_size=300,
        )
    )
    @example([])
    @example([-3, 7, -3, 0, 7, 7])
    @settings(max_examples=200, deadline=None)
    def test_equals_np_unique(self, values):
        array = np.asarray(values, dtype=np.int64)
        result = _sorted_unique(array)
        expected = np.unique(array)
        assert result.dtype == expected.dtype == np.int64
        assert result.tolist() == expected.tolist()


class TestAccessBounds:
    """Memory accesses must fit the packed ``(address, nbytes)`` region word."""

    @pytest.mark.parametrize("emit", ["vector_load", "vector_store"])
    @pytest.mark.parametrize("nbytes", [8192, 8200, -1])
    def test_unpackable_size_is_rejected_at_emission(self, emit, nbytes):
        builder = TraceBuilder()
        with pytest.raises(SimulationError, match="packing bound"):
            getattr(builder, emit)(0, 4096, nbytes)
        assert len(builder) == 0

    @pytest.mark.parametrize("emit", ["vector_load", "vector_store"])
    def test_negative_address_is_still_rejected(self, emit):
        with pytest.raises(SimulationError, match="negative memory address"):
            getattr(TraceBuilder(), emit)(0, -64)

    @pytest.mark.parametrize("emit", ["vector_load", "vector_store"])
    def test_largest_packable_size_keeps_its_region(self, emit):
        builder = TraceBuilder()
        getattr(builder, emit)(0, 4096, 8191)
        trace = builder.finish()
        assert trace.memory_regions() == [(4096, 8191)]
        assert trace_memory_footprint(list(trace.ops())) == [(4096, 8191)]

    def test_oversized_tile_access_is_rejected(self):
        # 64 rows x 256 B tiles move 16 KiB per load, past the 8 KiB field.
        from repro.types import TileGeometry

        builder = TraceBuilder(TileGeometry(name="wide", rows=64, row_bytes=256))
        with pytest.raises(SimulationError, match="packing bound"):
            builder.tile_load_t(treg(0), 4096)
        with pytest.raises(SimulationError, match="packing bound"):
            builder.tile_store_t(4096, treg(0))
        assert len(builder) == 0
