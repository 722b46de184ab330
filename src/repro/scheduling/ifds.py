"""Improved Force-Directed Scheduling (Verhaegh et al., IFDS).

The IFDS refines classic FDS in two ways the paper relies on (§4):

* **Gradual time-frame reduction** — instead of pinning an operation to a
  single step, every iteration only *shrinks one frame by one step*.  For
  each mobile operation the forces of a tentative placement at the two
  outermost ends of its frame are computed; with more than two feasible
  steps the difference is halved (``eta = 1/2``) as a rough estimate for
  the interior placements.  The operation with the largest weighted force
  difference has its frame shortened at the side with the *higher* force,
  removing the worst neighborhood solution.
* **Global spring constants** — per-type weights (typically area costs)
  entering the force sums; see :mod:`repro.scheduling.forces`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..ir.process import Block
from ..obs import SCHEDULER_ITERATIONS, as_tracer, get_logger
from ..obs.events import EVENT_DEGRADE, EVENT_REDUCTION
from ..obs.metrics import CANDIDATES_SCANNED, FRAMES_REMAINING, REDUCTION_SCORE
from ..resources.library import ResourceLibrary
from ..validation.budget import RunBudget
from .fallback import degraded_block_schedule, frames_state_hash
from .forces import DEFAULT_LOOKAHEAD, placement_force
from .schedule import BlockSchedule
from .selection_cache import BlockSelectionCache
from .state import BlockState

_log = get_logger(__name__)


@dataclass(frozen=True)
class ReductionChoice:
    """One gradual-reduction decision: which frame shrinks, at which side."""

    op_id: str
    shrink_low_side: bool
    force_low: float
    force_high: float
    score: float


def evaluate_reduction(
    state: BlockState,
    op_id: str,
    *,
    lookahead: float = DEFAULT_LOOKAHEAD,
    weights: Optional[Mapping[str, float]] = None,
) -> ReductionChoice:
    """Evaluate the IFDS reduction candidate for one mobile operation."""
    lo, hi = state.frames.frame(op_id)
    force_low = placement_force(
        state, op_id, lo, lookahead=lookahead, weights=weights
    )
    force_high = placement_force(
        state, op_id, hi, lookahead=lookahead, weights=weights
    )
    eta = 1.0 if hi - lo + 1 <= 2 else 0.5
    score = eta * abs(force_low - force_high)
    # Shrink at the side with the higher force (drop the worst placement);
    # on a (numerical) tie, drop the late side, biasing toward early starts.
    shrink_low_side = force_low > force_high + 1e-12
    return ReductionChoice(
        op_id=op_id,
        shrink_low_side=shrink_low_side,
        force_low=force_low,
        force_high=force_high,
        score=score,
    )


class ImprovedForceDirectedScheduler:
    """Time-constrained IFDS for a single block.

    The per-operation :class:`ReductionChoice` evaluations are memoized
    in a :class:`BlockSelectionCache` between iterations and only the
    dirty set of each committed reduction is re-evaluated, two scalar
    ``placement_force`` calls per operation; decisions are identical to
    the brute-force scan.

    ``budget`` optionally bounds the run; on exhaustion the block is
    rescheduled by the list-scheduling fallback and the result is tagged
    ``degraded=True`` instead of the run continuing unbounded.
    """

    def __init__(
        self,
        library: ResourceLibrary,
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        weights: Optional[Mapping[str, float]] = None,
        budget: Optional[RunBudget] = None,
        tracer=None,
    ) -> None:
        self.library = library
        self.lookahead = lookahead
        self.weights = weights
        self.budget = budget
        self.tracer = as_tracer(tracer)

    def schedule(self, block: Block) -> BlockSchedule:
        """Schedule one block; returns a validated :class:`BlockSchedule`."""
        tracer = self.tracer
        state = BlockState(block, self.library)
        cache = BlockSelectionCache(state)
        tracker = self.budget.tracker() if self.budget is not None else None
        iterations = 0
        with tracer.activate(), tracer.span("ifds", block=block.name):
            while True:
                mobile = state.frames.unfixed()
                if not mobile:
                    break
                if tracker is not None:
                    reason = tracker.tick(frames_state_hash(state, mobile))
                    if reason is not None:
                        _log.warning(
                            "IFDS budget exhausted on block %r: %s; "
                            "degrading to list scheduling",
                            block.name,
                            reason,
                        )
                        if tracer.enabled:
                            tracer.event(
                                EVENT_DEGRADE,
                                reason=reason,
                                block=block.name,
                                iteration=iterations,
                                fallback="list_scheduling",
                            )
                        return degraded_block_schedule(
                            block, self.library, reason, iterations=iterations
                        )
                iterations += 1
                best: Optional[ReductionChoice] = None
                for op_id in mobile:
                    choice = cache.get(op_id)
                    if choice is None:
                        choice = evaluate_reduction(
                            state,
                            op_id,
                            lookahead=self.lookahead,
                            weights=self.weights,
                        )
                        cache.put(op_id, choice)
                    if best is None or choice.score > best.score + 1e-12:
                        best = choice
                assert best is not None
                lo, hi = state.frames.frame(best.op_id)
                if best.shrink_low_side:
                    effect = state.commit_reduce_effect(best.op_id, lo + 1, hi)
                else:
                    effect = state.commit_reduce_effect(best.op_id, lo, hi - 1)
                cache.invalidate_after_commit(effect)
                if tracer.enabled:
                    tracer.count(SCHEDULER_ITERATIONS)
                    tracer.observe(REDUCTION_SCORE, best.score)
                    tracer.observe(CANDIDATES_SCANNED, len(mobile))
                    tracer.set_gauge(
                        FRAMES_REMAINING, len(state.frames.unfixed())
                    )
                    tracer.event(
                        EVENT_REDUCTION,
                        iteration=iterations,
                        block=block.name,
                        op=best.op_id,
                        side="low" if best.shrink_low_side else "high",
                        score=round(best.score, 9),
                        candidates=len(mobile),
                    )
        _log.debug("IFDS scheduled block %r in %d iterations", block.name, iterations)
        schedule = BlockSchedule(
            graph=block.graph,
            library=self.library,
            starts=state.frames.as_schedule(),
            deadline=block.deadline,
            iterations=iterations,
        )
        schedule.validate()
        return schedule
