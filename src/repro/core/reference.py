"""Brute-force reference of the coupled scheduler (the test oracle).

:class:`ReferenceScheduler` makes the same decisions as
:class:`~repro.core.scheduler.ModuloSystemScheduler` the slow, obvious
way.  Every iteration it

* recomputes the coupling state from the block distributions: the
  modulo-max transform ``Q`` of every (block, shared type) (eq. 7), the
  process maxima ``M`` (eq. 9) and the system sums ``S`` (§5.2);
* evaluates both frame ends of every mobile operation of every block
  with :meth:`BlockState.placement_deltas` and the modified force F'
  (§5.3);
* commits the reduction with the largest ``eta * |F_low - F_high|``,
  folded in scan order with the ``1e-12`` hysteresis of the engine.

There are no caches, kernels, scoreboard, tracer or budget: nothing
survives from one iteration to the next except the frames themselves.
The engine's batched dots may differ from these scalar dots in the last
ulp, so the two agree decision for decision, not bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import SchedulingError
from ..ir.process import SystemSpec
from ..resources.assignment import ResourceAssignment
from ..resources.library import ResourceLibrary
from ..scheduling.forces import DEFAULT_LOOKAHEAD, hooke_force
from ..scheduling.schedule import BlockSchedule
from ..scheduling.state import BlockState
from .modulo import modulo_max
from .periods import PeriodAssignment
from .result import SystemSchedule

__all__ = ["Decision", "ReferenceRun", "ReferenceScheduler", "CouplingSnapshot"]

#: One committed reduction: ``(process, block, op, side)``, side being
#: ``"low"`` (the frame's low end moved up) or ``"high"``.
Decision = Tuple[str, str, str, str]


@dataclass
class ReferenceRun:
    """The final schedule plus every decision that led to it."""

    schedule: SystemSchedule
    decisions: List[Decision]


class CouplingSnapshot:
    """``Q``, ``M`` and ``S`` of every shared type, from scratch.

    ``blocks`` lists ``(process name, state)`` in scan order.
    """

    def __init__(
        self,
        blocks: List[Tuple[str, BlockState]],
        assignment: ResourceAssignment,
        periods: PeriodAssignment,
    ) -> None:
        self.blocks = blocks
        self.assignment = assignment
        self.periods = periods
        self.q: Dict[Tuple[int, str], np.ndarray] = {}
        self.m: Dict[Tuple[str, str], np.ndarray] = {}
        self.s: Dict[str, np.ndarray] = {}
        self.members: Dict[str, List[int]] = {}
        for index, (owner, _state) in enumerate(blocks):
            self.members.setdefault(owner, []).append(index)
        for type_name in assignment.global_types:
            period = periods.period(type_name)
            total = np.zeros(period, dtype=float)
            for process_name in assignment.group(type_name):
                process_max = np.zeros(period, dtype=float)
                for index in self.members.get(process_name, ()):
                    dist = blocks[index][1].dist
                    if type_name in dist.type_names:
                        q = modulo_max(dist.array(type_name), period)
                        self.q[(index, type_name)] = q
                        process_max = np.maximum(process_max, q)
                self.m[(process_name, type_name)] = process_max
                total = total + process_max
            self.s[type_name] = total

    def is_shared(self, process_name: str, type_name: str) -> bool:
        return self.assignment.shares_globally(type_name, process_name)

    def other_blocks_max(self, index: int, type_name: str) -> np.ndarray:
        """Eq. 9's maximum over the same-process siblings of block ``index``."""
        result = np.zeros(self.periods.period(type_name), dtype=float)
        for other in self.members[self.blocks[index][0]]:
            q = self.q.get((other, type_name))
            if other != index and q is not None:
                result = np.maximum(result, q)
        return result


class ReferenceScheduler:
    """Brute-force coupled IFDS; same arguments as the engine's."""

    def __init__(
        self,
        library: ResourceLibrary,
        *,
        lookahead: float = DEFAULT_LOOKAHEAD,
        weights: Optional[Mapping[str, float]] = None,
        periodical_alignment: bool = True,
        global_balancing: bool = True,
    ) -> None:
        self.library = library
        self.lookahead = lookahead
        self.weights = dict(weights) if weights is not None else None
        self.periodical_alignment = periodical_alignment
        self.global_balancing = global_balancing

    def force(
        self, snapshot: CouplingSnapshot, index: int, op_id: str, start: int
    ) -> float:
        """Modified force F' (§5.3) of placing ``op_id`` of block ``index``
        at ``start``.

        Local types (and every type without periodical alignment) push on
        the block's own distribution.  A shared type pushes on its
        modulo-max transform: against the block's own ``Q`` without
        global balancing, against the system sum ``S`` with it.
        """
        process_name, state = snapshot.blocks[index]
        total = 0.0
        for type_name, delta in state.placement_deltas(op_id, start).items():
            weight = 1.0 if self.weights is None else float(
                self.weights.get(type_name, 1.0)
            )
            base = state.dist.array(type_name)
            if self.periodical_alignment and snapshot.is_shared(
                process_name, type_name
            ):
                period = snapshot.periods.period(type_name)
                q_new = modulo_max(base + delta, period)
                if self.global_balancing:
                    m_new = np.maximum(
                        snapshot.other_blocks_max(index, type_name), q_new
                    )
                    delta = m_new - snapshot.m[(process_name, type_name)]
                    base = snapshot.s[type_name]
                else:
                    base = snapshot.q[(index, type_name)]
                    delta = q_new - base
            total += weight * hooke_force(base, delta, self.lookahead)
        return total

    def schedule(
        self,
        system: SystemSpec,
        assignment: ResourceAssignment,
        periods: Optional[PeriodAssignment] = None,
    ) -> ReferenceRun:
        started = time.perf_counter()
        if periods is None:
            if assignment.global_types:
                raise SchedulingError(
                    "a PeriodAssignment is required when global types exist"
                )
            periods = PeriodAssignment({})
        assignment.validate(system)
        periods.validate(assignment)
        system.validate(self.library.latency_of)
        names = [(process.name, block.name) for process, block in system.iter_blocks()]
        blocks = [
            (process.name, BlockState(block, self.library))
            for process, block in system.iter_blocks()
        ]

        decisions: List[Decision] = []
        while True:
            snapshot = CouplingSnapshot(blocks, assignment, periods)
            best_score: Optional[float] = None
            best: Optional[Tuple[int, str, bool]] = None
            for index, (_process, state) in enumerate(blocks):
                for op_id in state.frames.unfixed():
                    lo, hi = state.frames.frame(op_id)
                    force_low = self.force(snapshot, index, op_id, lo)
                    force_high = self.force(snapshot, index, op_id, hi)
                    eta = 1.0 if hi - lo + 1 <= 2 else 0.5
                    score = eta * abs(force_low - force_high)
                    if best_score is None or score > best_score + 1e-12:
                        best_score = score
                        best = (index, op_id, force_low > force_high + 1e-12)
            if best is None:
                break
            index, op_id, shrink_low = best
            state = blocks[index][1]
            lo, hi = state.frames.frame(op_id)
            if shrink_low:
                state.commit_reduce(op_id, lo + 1, hi)
            else:
                state.commit_reduce(op_id, lo, hi - 1)
            process_name, block_name = names[index]
            decisions.append(
                (process_name, block_name, op_id, "low" if shrink_low else "high")
            )

        block_schedules: Dict[Tuple[str, str], BlockSchedule] = {}
        for (process_name, block_name), (_process, state) in zip(names, blocks):
            sched = BlockSchedule(
                graph=state.graph,
                library=self.library,
                starts=state.frames.as_schedule(),
                deadline=state.deadline,
            )
            sched.validate()
            block_schedules[(process_name, block_name)] = sched
        result = SystemSchedule(
            system=system,
            library=self.library,
            assignment=assignment,
            periods=periods,
            block_schedules=block_schedules,
            iterations=len(decisions),
            wall_time=time.perf_counter() - started,
        )
        result.validate()
        return ReferenceRun(schedule=result, decisions=decisions)
