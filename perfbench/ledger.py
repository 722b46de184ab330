"""Per-layer timing from outside the program.

The traced run wraps chosen public functions and methods of each layer
module (``TARGETS``) with a timer.  A wrapper is installed at *every*
place the program looks the name up: a module-level function is
replaced in each ``repro`` module that binds it (``repro.core.scheduler``
imports ``modulo_max`` and ``row_dots`` by name), a method is replaced
on its class.  The wrappers only observe; the benchmark fails the run if
the traced schedule differs from the untraced one.

For each wrapped name the ledger keeps its call count and the time of
its outermost calls.  For each layer it keeps the calls and time of the
outermost calls into the layer, and the layer's self time: time inside
the layer minus the time its wrapped callees in other layers took.
Trivial accessors (``FrameTable.lo`` and friends) stay unwrapped, so
their time shows up as self time of whoever calls them.  Layer times are
plain wall times; the speed sampler's slices (``speed.py``, about 3% of
CPU time, spread evenly) count towards the layer they interrupt.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: Per layer: the defining module and the qualified names wrapped in it.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("ir.systemio", "repro.ir.systemio", ("loads",)),
    (
        "core.scheduler",
        "repro.core.scheduler",
        ("ModuloSystemScheduler.schedule",),
    ),
    (
        "scheduling.state",
        "repro.scheduling.state",
        ("BlockState.commit_reduce_effect", "BlockState.placement_deltas"),
    ),
    ("scheduling.timeframes", "repro.scheduling.timeframes", ("FrameTable.reduce",)),
    (
        "scheduling.distribution",
        "repro.scheduling.distribution",
        ("BlockDistributions.refresh", "combine_rows"),
    ),
    ("core.modulo", "repro.core.modulo", ("modulo_max", "modulo_max_rows")),
    (
        "scheduling.kernels",
        "repro.scheduling.kernels",
        ("DeltaBatch.__init__", "row_dots", "row_self_dots", "batched_occupancy_rows"),
    ),
    (
        "scheduling.scoreboard",
        "repro.scheduling.scoreboard",
        (
            "SelectionScoreboard.rescore_set",
            "SelectionScoreboard.store",
            "SelectionScoreboard.fold",
        ),
    ),
    (
        "scheduling.selection_cache",
        "repro.scheduling.selection_cache",
        (
            "BlockSelectionCache.invalidate_ops",
            "BlockSelectionCache.invalidate_after_commit",
            "BlockSelectionCache.invalidate_type",
        ),
    ),
    ("analysis.bounds", "repro.analysis.bounds", ("area_lower_bound",)),
    (
        "analysis.absint",
        "repro.analysis.absint.analyze",
        (
            "analyze_problem",
            "analyze_schedule",
            "interval_pool_bound",
            "forced_process_bound",
        ),
    ),
    ("parallel.engine", "repro.parallel.engine", ("ExplorationEngine.sweep",)),
    ("core.verify", "repro.core.verify", ("verify",)),
    ("analysis.static", "repro.analysis.static.certifier", ("certify",)),
    ("analysis.static", "repro.analysis.static.checker", ("check_certificate",)),
)


class Ledger:
    """Call counts, outermost times and self times, keyed by name and layer."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.layer_calls: Dict[str, int] = defaultdict(int)
        self.layer_seconds: Dict[str, float] = defaultdict(float)
        self.layer_self: Dict[str, float] = defaultdict(float)
        #: Sum of ``len(result)`` per name, for names that return a set.
        self.returned: Dict[str, int] = defaultdict(int)
        self._active: Dict[str, int] = defaultdict(int)
        self._layer_active: Dict[str, int] = defaultdict(int)
        #: One entry per open wrapped call: time its wrapped callees took.
        self._stack: List[float] = []

    def snapshot(self) -> Dict[str, float]:
        """Current per-name seconds, for measuring a stretch as a delta."""
        return dict(self.seconds)

    def wrap(self, layer: str, key: str, fn: Callable, count_result: bool) -> Callable:
        perf_counter = time.perf_counter
        stack = self._stack
        active = self._active
        layer_active = self._layer_active
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = active[key] == 0
            layer_outer = layer_active[layer] == 0
            active[key] += 1
            layer_active[layer] += 1
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                covered = stack.pop()
                active[key] -= 1
                layer_active[layer] -= 1
                if stack:
                    stack[-1] += elapsed
                ledger.calls[key] += 1
                ledger.layer_self[layer] += elapsed - covered
                if outer:
                    ledger.seconds[key] += elapsed
                if layer_outer:
                    ledger.layer_calls[layer] += 1
                    ledger.layer_seconds[layer] += elapsed
            if count_result:
                ledger.returned[key] += len(result)
            return result

        return wrapper


#: Targets whose return value is a set; the ledger sums its sizes.
COUNT_RESULTS = ("FrameTable.reduce",)


def _binding_modules(extra_modules: Sequence[object]) -> list:
    repro_modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    return repro_modules + list(extra_modules)


def install(ledger: Ledger, extra_modules: Sequence[object] = ()) -> None:
    """Wrap every target wherever it is bound.

    Bindings are searched in every loaded ``repro`` module and in
    ``extra_modules`` (the benchmark's own modules that import a target
    by name).  Raises ``RuntimeError`` if a module still binds an
    original afterwards, so a name the program looks up in a second
    place can never silently record zero calls.
    """
    originals: List[Tuple[str, object]] = []
    for layer, module_name, qualnames in TARGETS:
        module = importlib.import_module(module_name)
        for qualname in qualnames:
            owner_name, _, attr = qualname.rpartition(".")
            wrap_result = qualname in COUNT_RESULTS
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapped = ledger.wrap(layer, qualname, original, wrap_result)
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = ledger.wrap(layer, qualname, original, wrap_result)
            originals.append((qualname, original))
            for bound_in in _binding_modules(extra_modules):
                for name, value in list(vars(bound_in).items()):
                    if value is original:
                        setattr(bound_in, name, wrapped)
    for qualname, original in originals:
        for bound_in in _binding_modules(extra_modules):
            for name, value in vars(bound_in).items():
                if value is original:
                    raise RuntimeError(
                        f"{bound_in.__name__}.{name} still binds the "
                        f"unwrapped {qualname}"
                    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    ledger: Ledger,
    verdict_seconds: Dict[str, float],
    counters: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``verdict_seconds`` holds the per-name seconds spent on the final
    schedule's verdict (a ledger delta), so ``verify.s``/``certify.s``/
    ``check.s`` add up to the traced ``verdict_s``.
    """
    calls, seconds = ledger.calls, ledger.seconds
    reduces = calls["FrameTable.reduce"]
    hits = counters.get("force_cache_hits", 0)
    misses = counters.get("force_cache_misses", 0)
    rescored = counters.get("selection_rescored", 0)
    skipped = counters.get("selection_skipped", 0)
    return {
        "systemio.loads_s": seconds["loads"],
        "scheduler.self_s": ledger.layer_self["core.scheduler"],
        "state.commit_calls": calls["BlockState.commit_reduce_effect"],
        "state.commit_s": seconds["BlockState.commit_reduce_effect"],
        "state.placement_deltas_calls": calls["BlockState.placement_deltas"],
        "state.placement_deltas_s": seconds["BlockState.placement_deltas"],
        "timeframes.reduce_calls": reduces,
        "timeframes.reduce_s": seconds["FrameTable.reduce"],
        "timeframes.changed_ops_per_reduce": ratio(
            ledger.returned["FrameTable.reduce"], reduces
        ),
        "distribution.refresh_s": seconds["BlockDistributions.refresh"],
        "distribution.combine_rows_calls": calls["combine_rows"],
        "distribution.combine_rows_s": seconds["combine_rows"],
        "modulo.calls": ledger.layer_calls["core.modulo"],
        "modulo.s": ledger.layer_seconds["core.modulo"],
        "kernels.calls": ledger.layer_calls["scheduling.kernels"],
        "kernels.s": ledger.layer_seconds["scheduling.kernels"],
        "scoreboard.calls": ledger.layer_calls["scheduling.scoreboard"],
        "scoreboard.s": ledger.layer_seconds["scheduling.scoreboard"],
        "scoreboard.rescore_set_s": seconds["SelectionScoreboard.rescore_set"],
        "scoreboard.store_s": seconds["SelectionScoreboard.store"],
        "scoreboard.rescored_ratio": ratio(rescored, rescored + skipped),
        "selection_cache.invalidate_calls": ledger.layer_calls[
            "scheduling.selection_cache"
        ],
        "selection_cache.invalidate_s": ledger.layer_seconds[
            "scheduling.selection_cache"
        ],
        "selection_cache.hit_ratio": ratio(hits, hits + misses),
        "bounds.calls": calls["area_lower_bound"],
        "bounds.s": seconds["area_lower_bound"],
        "absint.calls": ledger.layer_calls["analysis.absint"],
        "absint.s": ledger.layer_seconds["analysis.absint"],
        "verify.s": verdict_seconds.get("verify", 0.0),
        "certify.s": verdict_seconds.get("certify", 0.0),
        "check.s": verdict_seconds.get("check_certificate", 0.0),
        "counters.force_evaluations": counters.get("force_evaluations", 0),
        "counters.modulo_max_transforms": counters.get("modulo_max_transforms", 0),
        "counters.distribution_rebuilds": counters.get("distribution_rebuilds", 0),
        "counters.force_cache_misses": misses,
        "counters.frame_reductions": counters.get("frame_reductions", 0),
    }


def delta(
    after: Dict[str, float], before: Dict[str, float], keys: Sequence[str]
) -> Dict[str, float]:
    return {key: after.get(key, 0.0) - before.get(key, 0.0) for key in keys}

