"""The dirty-cone scoreboard against full rescans and the reference.

A scan of the engine rescores only the entries the last commit
perturbed — the committed block, its same-process siblings and the
subscribers of every balanced type whose system sum moved — and keeps
every other entry's stored scores.  That must change *how much work* a
scan does, never *which* reduction wins.  Pinned against the engine's
own full rescan (candidate capture rescores every entry) on the paper
workload, and against the brute-force reference on guarded systems with
and without sibling blocks, 20 seeded multi-block systems, two scenario
corpus instances and a hypothesis campaign over generated systems.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.periods import PeriodAssignment
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.workloads import corpus_system, mode_switching_filter, random_dfg

LIBRARY = default_library()


class TestPaperSystemParity:
    def test_paper_system_identical_decisions_and_schedule(
        self, paper_engine, paper_rescan
    ):
        board, board_result, counters = paper_engine
        rescan, rescan_result, rescan_counters, _trail = paper_rescan
        assert board == rescan, "reduction sequences diverged"
        assert {
            key: sched.starts for key, sched in board_result.block_schedules.items()
        } == {key: sched.starts for key, sched in rescan_result.block_schedules.items()}
        assert board_result.total_area() == rescan_result.total_area()
        # The scoreboard must actually skip entries, not just agree; the
        # rescan must skip none.
        assert counters.get("selection_skipped", 0) > 0
        assert rescan_counters.get("selection_skipped", 0) == 0


class TestGuardedWorkloadParity:
    @pytest.mark.parametrize("siblings", [False, True])
    def test_mode_switching_system(
        self, siblings, assert_agree, multi_block_system, all_global
    ):
        """Guarded footprints follow the same dirty-cone rule as
        unconditional ones, including across same-process siblings."""
        taps = [(3, 2), (5, 4)] if siblings else [(3,), (5,)]

        def build_system():
            return multi_block_system(
                "modal",
                [
                    [mode_switching_filter(t, name=f"g{p}{b}") for b, t in enumerate(ts)]
                    for p, ts in enumerate(taps)
                ],
            )

        build_assignment, periods = all_global(build_system, 4)
        assert_agree(build_system, LIBRARY, build_assignment, periods)


class TestRandomPopulationParity:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_system(self, seed, assert_agree, multi_block_system, all_global):
        """Two processes of two blocks: every commit dirties a sibling."""

        def build_system():
            return multi_block_system(
                f"multi{seed}",
                [
                    [random_dfg(4, seed=100 * seed + 10 * p + b) for b in range(2)]
                    for p in range(2)
                ],
            )

        build_assignment, periods = all_global(build_system, 4)
        assert_agree(build_system, LIBRARY, build_assignment, periods)


class TestCorpusParity:
    """Many heterogeneous multi-block processes coupled through shared
    clusters: the workload the dirty cone is built for."""

    @pytest.mark.parametrize("processes,seed", [(6, 0), (10, 1)])
    def test_corpus_instance(self, processes, seed, assert_agree):
        instance = corpus_system(processes, seed=seed)
        counters = assert_agree(
            lambda: instance.system,
            instance.library,
            lambda: instance.assignment,
            instance.periods,
        )
        # Most entry visits must be skips for the scoreboard to be doing
        # its job.
        assert counters["selection_skipped"] > counters["selection_rescored"]


@st.composite
def tiny_systems(draw):
    """2–3 processes of 1–2 blocks each, mixing random and modal graphs."""
    system = SystemSpec(name="tiny")
    for p in range(draw(st.integers(min_value=2, max_value=3))):
        process = Process(name=f"p{p}")
        for b in range(draw(st.integers(min_value=1, max_value=2))):
            if draw(st.booleans()):
                graph = mode_switching_filter(
                    draw(st.integers(min_value=2, max_value=4)), name=f"g{p}{b}"
                )
            else:
                graph = random_dfg(
                    draw(st.integers(min_value=2, max_value=7)),
                    seed=draw(st.integers(min_value=0, max_value=1000)),
                    name=f"g{p}{b}",
                )
            slack = draw(st.integers(min_value=1, max_value=4))
            deadline = graph.critical_path_length(LIBRARY.latency_of) + slack
            process.add_block(Block(name=f"b{b}", graph=graph, deadline=deadline))
        system.add_process(process)
    assignment = ResourceAssignment.all_global(LIBRARY, system)
    periods = PeriodAssignment(
        {
            name: draw(st.integers(min_value=2, max_value=4))
            for name in sorted(assignment.global_types)
        }
    )
    return system, assignment, periods


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tiny_systems())
def test_engine_matches_reference_on_generated_systems(case, assert_agree):
    system, assignment, periods = case
    assert_agree(lambda: system, LIBRARY, lambda: assignment, periods)
