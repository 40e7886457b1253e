"""Outside-in tracing of the ``repro`` layers, from the benchmark's own files.

Nothing under ``src/`` is edited: :func:`install` wraps the public entry
point of each layer in every ``repro`` module namespace (and class) that
bound it by name, e.g. ``repro.cpu.fastsim`` does
``from .columnar import lru_outcome_bits`` so both ``repro.cpu.columnar``
and ``repro.cpu.fastsim`` get the wrapper.  Each call records one span
(name, start, end, parent); a layer's self time is its spans' duration
minus the part their child spans cover.  Counters are taken at the same
boundaries, from the call's arguments and return value.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> [(module, qualified name)] of the entry points it wraps.
#: The root span is the whole ``run_named`` call, so the runner's self time
#: is the sweep's glue (spec expansion, cache keys, trial bodies).
ROOT_LAYER = "experiments.runner"
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    ROOT_LAYER: [("repro.experiments.runner", "run_named")],
    "kernels.build": [
        ("repro.kernels.gemm", "build_dense_gemm_kernel"),
        ("repro.kernels.spmm", "build_spmm_kernel"),
        ("repro.kernels.spgemm", "build_spgemm_kernel"),
    ],
    "kernels.shard": [("repro.kernels.sharding", "shard_kernel")],
    "cpu.columnar.lru": [("repro.cpu.columnar", "lru_outcome_bits")],
    "cpu.multicore.key": [("repro.cpu.multicore", "simulation_cache_key")],
    "cpu.multicore.simulate": [
        ("repro.cpu.multicore", "simulate_multicore"),
        ("repro.cpu.multicore", "simulate_program_cached"),
    ],
    "cpu.simulator": [("repro.cpu.simulator", "CycleApproximateSimulator.run")],
    "cpu.fastsim": [("repro.cpu.fastsim", "run_fast")],
    "cpu.topology.resolve": [("repro.cpu.topology", "resolve_traffic")],
    "cpu.topology.arbitrate": [("repro.cpu.topology", "arbitrate_topology")],
    "planner.statics": [("repro.planner.prefilter", "mapping_statics")],
    "experiments.cache": [
        ("repro.experiments.cache", "ResultCache.get"),
        ("repro.experiments.cache", "ResultCache.put"),
    ],
}


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1), in start order.
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """True when a span of layer ``name`` is open on the stack."""
        return any(self.spans[index][0] == name for index in self._stack)

    def wrap(self, layer: str, qualname: str, function: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(qualname)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        totals: Dict[str, float] = {}
        for name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                parent_name = self.spans[parent][0]
                totals[parent_name] -= end - start
        return totals

    def calls(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for name, _, _, _ in self.spans:
            result[name] = result.get(name, 0) + 1
        return result

    def chrome_trace(self, origin: float) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- counters taken at the layer boundaries ------------------------------------


def _observe_build(tracer: Tracer, args, kwargs, program) -> None:
    tracer.count("kernels.ops_built", len(program.trace))


def _observe_lru(tracer: Tracer, args, kwargs, result) -> None:
    ids = args[0] if args else kwargs["ids"]
    tracer.count("cpu.columnar.lru_refs", len(ids))


def _observe_multicore(tracer: Tracer, args, kwargs, result) -> None:
    programs = args[0] if args else kwargs["programs"]
    tracer.count("cpu.multicore.programs", len(programs))


def _observe_program_cached(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("cpu.multicore.programs", 1)


def _observe_simulator(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside("cpu.multicore.simulate"):
        tracer.count("cpu.multicore.private_simulations", 1)


def _observe_fastsim(tracer: Tracer, args, kwargs, result) -> None:
    if result is None:
        tracer.count("cpu.fastsim.fallbacks", 1)
        return
    tracer.count("cpu.fastsim.stepped", result.fast_blocks_stepped)
    tracer.count("cpu.fastsim.skipped", result.fast_blocks_skipped)


def _observe_cache_get(tracer: Tracer, args, kwargs, row) -> None:
    tracer.count("experiments.cache.gets", 1)
    if row is not None:
        tracer.count("experiments.cache.hits", 1)


def _observe_cache_put(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("experiments.cache.puts", 1)


_OBSERVERS: Dict[str, Callable] = {
    "build_dense_gemm_kernel": _observe_build,
    "build_spmm_kernel": _observe_build,
    "build_spgemm_kernel": _observe_build,
    "lru_outcome_bits": _observe_lru,
    "simulate_multicore": _observe_multicore,
    "simulate_program_cached": _observe_program_cached,
    "CycleApproximateSimulator.run": _observe_simulator,
    "run_fast": _observe_fastsim,
    "ResultCache.get": _observe_cache_get,
    "ResultCache.put": _observe_cache_put,
}


# -- installation ---------------------------------------------------------------


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so every by-name binding exists."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point wherever it is bound.

    Call :func:`import_all_repro_modules` first, so every binding exists.
    """
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for layer, targets in LAYERS.items():
        for module_name, qualname in targets:
            owner: Any = sys.modules[module_name]
            attribute = qualname
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
            wrapper = tracer.wrap(layer, qualname, original)
            if "." in qualname:
                setattr(owner, attribute, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)


def write_chrome_trace(tracer: Tracer, origin: float, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.chrome_trace(origin), handle)


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, Optional[float]]:
    """The per-layer figures of one traced sweep (wall_s: the traced sweep)."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    stepped = counts.get("cpu.fastsim.stepped", 0)
    skipped = counts.get("cpu.fastsim.skipped", 0)
    programs = counts.get("cpu.multicore.programs", 0)
    private = counts.get("cpu.multicore.private_simulations", 0)
    # The root span is run_named itself, whose duration is about wall_s: its
    # self time (the runner's glue) is left out, so time spent in an entry
    # point no wrapper covers shows up as unattributed.
    attributed = sum(
        seconds for layer, seconds in self_s.items() if layer != ROOT_LAYER
    )
    return {
        "kernels.build_calls": calls.get("kernels.build", 0),
        "kernels.build_self_s": self_s.get("kernels.build", 0.0),
        "kernels.ops_built": counts.get("kernels.ops_built", 0),
        "kernels.shard_calls": calls.get("kernels.shard", 0),
        "kernels.shard_self_s": self_s.get("kernels.shard", 0.0),
        "cpu.columnar.lru_calls": calls.get("cpu.columnar.lru", 0),
        "cpu.columnar.lru_self_s": self_s.get("cpu.columnar.lru", 0.0),
        "cpu.columnar.lru_refs": counts.get("cpu.columnar.lru_refs", 0),
        "cpu.multicore.key_calls": calls.get("cpu.multicore.key", 0),
        "cpu.multicore.key_self_s": self_s.get("cpu.multicore.key", 0.0),
        "cpu.multicore.simulate_calls": calls.get("cpu.multicore.simulate", 0),
        "cpu.multicore.simulate_self_s": self_s.get("cpu.multicore.simulate", 0.0),
        "cpu.multicore.private_simulations": private,
        "cpu.multicore.memo_hit_ratio": 1.0 - ratio(private, programs) if programs else 0.0,
        "cpu.simulator.run_calls": calls.get("cpu.simulator", 0),
        "cpu.simulator.self_s": self_s.get("cpu.simulator", 0.0),
        "cpu.fastsim.self_s": self_s.get("cpu.fastsim", 0.0),
        "cpu.fastsim.coverage": ratio(skipped, stepped + skipped),
        "cpu.fastsim.fallbacks": counts.get("cpu.fastsim.fallbacks", 0),
        "cpu.topology.resolve_self_s": self_s.get("cpu.topology.resolve", 0.0),
        "cpu.topology.arbitrate_self_s": self_s.get("cpu.topology.arbitrate", 0.0),
        "cpu.topology.arbitrate_calls": calls.get("cpu.topology.arbitrate", 0),
        "planner.statics_calls": calls.get("planner.statics", 0),
        "planner.statics_self_s": self_s.get("planner.statics", 0.0),
        "experiments.cache.gets": counts.get("experiments.cache.gets", 0),
        "experiments.cache.hits": counts.get("experiments.cache.hits", 0),
        "experiments.cache.puts": counts.get("experiments.cache.puts", 0),
        "experiments.cache.self_s": self_s.get("experiments.cache", 0.0),
        "experiments.runner.self_s": self_s.get("experiments.runner", 0.0),
        "traced_wall_s": wall_s,
        "attributed_share": ratio(attributed, wall_s),
        "unattributed_s": wall_s - attributed,
    }
