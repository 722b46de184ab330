"""Batched force kernels against the reference's scalar forces.

The engine evaluates every candidate batch with array kernels — the
:class:`~repro.scheduling.kernels.DeltaBatch` rows, guarded ops
included — and the reference with one
:meth:`~repro.scheduling.state.BlockState.placement_deltas` call per
frame end.  The kernels must change *how* forces are computed, never
their value beyond the last ulp, nor *which* reduction wins.  Pinned
force for force on the paper workload, and decision for decision on a
guarded workload, 20 seeded systems that mix guarded and unguarded
processes, and every alignment/balancing mode.
"""

import pytest

from repro.core.reference import CouplingSnapshot, ReferenceScheduler
from repro.resources.library import default_library
from repro.scheduling.forces import area_weights
from repro.scheduling.state import BlockState
from repro.workloads import mode_switching_filter, random_dfg

LIBRARY = default_library()

#: Every how many iterations the whole candidate table is checked; the
#: winner's two forces are checked at every iteration.
TABLE_STRIDE = 25


class TestPaperSystemParity:
    def test_paper_system_identical_decisions_and_schedule(self, paper_case, paper_rescan):
        """Replay the engine's decisions on fresh block states and check
        its audited forces against :meth:`ReferenceScheduler.force`."""
        build_system, library, build_assignment, periods, options = paper_case
        decisions, engine, _counters, trail = paper_rescan
        system, assignment = build_system(), build_assignment()
        blocks = [
            (process.name, BlockState(block, library))
            for process, block in system.iter_blocks()
        ]
        index_of = {
            (process.name, block.name): index
            for index, (process, block) in enumerate(system.iter_blocks())
        }
        reference = ReferenceScheduler(library, **options)
        audits = trail.decisions
        assert len(audits) == len(decisions) > 0
        checked = 0
        for iteration, audit in enumerate(audits):
            snapshot = CouplingSnapshot(blocks, assignment, periods)
            table = audit.candidates if iteration % TABLE_STRIDE == 0 else (audit,)
            for candidate in table:
                index = index_of[(candidate.process, candidate.block)]
                lo, hi = blocks[index][1].frames.frame(candidate.op)
                assert candidate.force_low == pytest.approx(
                    reference.force(snapshot, index, candidate.op, lo),
                    rel=1e-9, abs=1e-9,
                )
                assert candidate.force_high == pytest.approx(
                    reference.force(snapshot, index, candidate.op, hi),
                    rel=1e-9, abs=1e-9,
                )
                checked += 1
            state = blocks[index_of[(audit.process, audit.block)]][1]
            assert state.frames.frame(audit.op) == audit.frame_before
            state.commit_reduce(audit.op, *audit.frame_after)
        assert checked > len(audits)
        assert [(a.process, a.block, a.op, a.side) for a in audits] == decisions
        assert {
            key: state.frames.as_schedule()
            for key, (_process, state) in zip(index_of, blocks)
        } == {key: sched.starts for key, sched in engine.block_schedules.items()}


class TestGuardedWorkloadParity:
    def test_mode_switching_system(self, assert_agree, single_block_system, all_global):
        """Guarded footprints evaluate through the batched rows,
        under area weights and a tighter deadline."""

        def build_system():
            return single_block_system(
                "modal",
                [mode_switching_filter(taps, name=f"g{i}") for i, taps in enumerate((2, 5))],
                slack=3,
            )

        build_assignment, periods = all_global(build_system, 4)
        assert_agree(
            build_system, LIBRARY, build_assignment, periods,
            weights=area_weights(LIBRARY),
        )


class TestRandomPopulationParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_system(self, seed, assert_agree, single_block_system, all_global):
        """Two random processes share every type with a modal one."""

        def build_system():
            return single_block_system(
                f"mixed{seed}",
                [random_dfg(6, seed=100 * seed + index) for index in range(2)]
                + [mode_switching_filter(2 + seed % 3, name=f"m{seed}")],
                slack=3,
            )

        build_assignment, periods = all_global(build_system, 3)
        assert_agree(build_system, LIBRARY, build_assignment, periods)


class TestModificationTogglesParity:
    """Every alignment/balancing mode, not just the full modification."""

    @pytest.mark.parametrize(
        "alignment,balancing",
        [(True, True), (True, False), (False, False)],
    )
    def test_toggle_parity(
        self, alignment, balancing, assert_agree, single_block_system, all_global
    ):
        def build_system():
            return single_block_system(
                "toggles",
                [random_dfg(8, seed=4242 + index) for index in range(3)],
            )

        build_assignment, periods = all_global(build_system, 4)
        assert_agree(
            build_system,
            LIBRARY,
            build_assignment,
            periods,
            periodical_alignment=alignment,
            global_balancing=balancing,
        )
