"""Force reuse: the engine's persistent forces against the reference.

The engine keeps every operation's frame-end forces across iterations
and recomputes only what a commit invalidated; the brute-force
reference recomputes everything every iteration.  Reuse must change
*when* forces are computed, never *which* reduction wins.  Pinned over
the paper workload, a guarded/conditional workload and 20 seeded random
systems, plus the reference's own force against the single-block
kernel when nothing is shared.
"""

import pytest

from repro.core.periods import PeriodAssignment
from repro.core.reference import CouplingSnapshot, ReferenceScheduler
from repro.ir.process import Block
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.forces import placement_force
from repro.scheduling.state import BlockState
from repro.workloads import mode_switching_filter, random_dfg

LIBRARY = default_library()


class TestPaperSystemParity:
    def test_paper_system_identical_decisions_and_schedule(
        self, assert_agree, paper_case, paper_engine
    ):
        *factories, options = paper_case
        counters = assert_agree(*factories, engine_run=paper_engine, **options)
        # The engine must actually reuse forces, not recompute them.
        assert counters.get("force_cache_hits", 0) > 0


class TestGuardedWorkloadParity:
    def test_mode_switching_system(
        self, assert_agree, single_block_system, all_global
    ):
        """Guarded ops (mutually exclusive paths) go through the same
        dirty-set rules as unconditional ones."""

        def build_system():
            return single_block_system(
                "modal",
                [mode_switching_filter(taps, name=f"g{i}") for i, taps in enumerate((3, 4))],
            )

        build_assignment, periods = all_global(build_system, 3)
        assert_agree(build_system, LIBRARY, build_assignment, periods)


class TestRandomPopulationParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_system(self, seed, assert_agree, single_block_system, all_global):
        def build_system():
            return single_block_system(
                f"rand{seed}",
                [random_dfg(8, seed=100 * seed + index) for index in range(3)],
            )

        build_assignment, periods = all_global(build_system, 4)
        assert_agree(build_system, LIBRARY, build_assignment, periods)


class TestLocalForceDelegation:
    def test_scheduler_force_matches_shared_kernel_without_globals(self):
        """With no global types the reference's modified force must equal
        :func:`repro.scheduling.forces.placement_force` — the classic
        local Hooke force of the single-block schedulers."""
        graph = random_dfg(10, seed=7)
        deadline = graph.critical_path_length(LIBRARY.latency_of) + 5
        block = Block(name="main", graph=graph, deadline=deadline)
        state = BlockState(block, LIBRARY)
        reference = ReferenceScheduler(LIBRARY)
        snapshot = CouplingSnapshot(
            [("p0", state)],
            ResourceAssignment.all_local(LIBRARY),
            PeriodAssignment({}),
        )
        for op_id in state.frames.unfixed():
            lo, hi = state.frames.frame(op_id)
            for step in (lo, hi):
                via_reference = reference.force(snapshot, 0, op_id, step)
                via_kernel = placement_force(
                    state, op_id, step, lookahead=reference.lookahead
                )
                assert via_reference == via_kernel
