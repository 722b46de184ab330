"""Shared helpers of the engine-vs-reference differential suite.

:class:`ModuloSystemScheduler` selects every reduction through one
engine: persistent force arrays rescored only inside each commit's
dirty cone.  :class:`repro.core.reference.ReferenceScheduler` makes the
same choice by brute force, recomputing every force of every candidate
on every iteration.  The two must agree on the whole run: the same
(process, block, op, side) at every iteration, the same final starts,
and the same area.  ``test_force_cache_parity``, ``test_kernel_parity``
and ``test_selection_scoreboard_parity`` pin that over disjoint
subjects through the fixtures below.
"""

import pytest

from repro.core.periods import PeriodAssignment
from repro.core.reference import ReferenceScheduler
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.process import Block, Process, SystemSpec
from repro.obs import AuditTrail, Tracer
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.forces import area_weights
from repro.workloads import paper_assignment, paper_periods, paper_system

LIBRARY = default_library()


def starts_of(result):
    return {key: sched.starts for key, sched in result.block_schedules.items()}


def _run_engine(system, library, assignment, periods, *, audit=None, **options):
    """One traced engine run; returns (decisions, result, counters)."""
    tracer = Tracer()
    result = ModuloSystemScheduler(library, tracer=tracer, **options).schedule(
        system, assignment, periods, audit=audit
    )
    decisions = [
        (e.attrs["process"], e.attrs["block"], e.attrs["op"], e.attrs["side"])
        for e in tracer.events_named("reduction")
    ]
    return decisions, result, tracer.counters.as_dict()


def _assert_agree(
    system_factory, library, assignment_factory, periods, *, engine_run=None, **options
):
    """Engine and reference runs agree decision for decision.

    Factories rebuild the system/assignment per run so no state leaks
    between the two; ``engine_run`` passes in an engine run made
    already.  Returns the engine run's telemetry counters.
    """
    if engine_run is None:
        engine_run = _run_engine(
            system_factory(), library, assignment_factory(), periods, **options
        )
    decisions, engine, counters = engine_run
    reference = ReferenceScheduler(library, **options).schedule(
        system_factory(), assignment_factory(), periods
    )
    assert decisions == reference.decisions, "reduction sequences diverged"
    assert starts_of(engine) == starts_of(reference.schedule), (
        "final schedules diverged"
    )
    assert engine.total_area() == reference.schedule.total_area()
    return counters


def _single_block_system(name, graphs, slack=4):
    """One process per graph, each with a single block."""
    return _multi_block_system(name, [[graph] for graph in graphs], slack)


def _multi_block_system(name, processes, slack=4):
    """One process per list of graphs, one block per graph."""
    system = SystemSpec(name=name)
    for p, graphs in enumerate(processes):
        process = Process(name=f"p{p}")
        for b, graph in enumerate(graphs):
            deadline = graph.critical_path_length(LIBRARY.latency_of) + slack
            process.add_block(Block(name=f"b{b}", graph=graph, deadline=deadline))
        system.add_process(process)
    return system


def _all_global(system_factory, period):
    """Assignment factory and uniform periods for an all-global system."""

    def build_assignment():
        return ResourceAssignment.all_global(LIBRARY, system_factory())

    periods = PeriodAssignment(
        {name: period for name in build_assignment().global_types}
    )
    return build_assignment, periods


@pytest.fixture(scope="session")
def run_engine():
    return _run_engine


@pytest.fixture(scope="session")
def assert_agree():
    return _assert_agree


@pytest.fixture(scope="session")
def single_block_system():
    return _single_block_system


@pytest.fixture(scope="session")
def multi_block_system():
    return _multi_block_system


@pytest.fixture(scope="session")
def all_global():
    return _all_global


@pytest.fixture(scope="session")
def paper_case():
    """Factories and options of the paper system with area weights."""
    _system, library = paper_system()
    return (
        lambda: paper_system()[0],
        library,
        lambda: paper_assignment(library),
        paper_periods(),
        {"weights": area_weights(library)},
    )


@pytest.fixture(scope="session")
def paper_engine(paper_case):
    """The paper system through the engine: ``(decisions, result, counters)``."""
    build_system, library, build_assignment, periods, options = paper_case
    return _run_engine(
        build_system(), library, build_assignment(), periods, **options
    )


@pytest.fixture(scope="session")
def paper_rescan(paper_case):
    """The paper system under full candidate capture, which rescores
    every entry on every scan: ``(decisions, result, counters, trail)``."""
    build_system, library, build_assignment, periods, options = paper_case
    trail = AuditTrail(None)
    decisions, result, counters = _run_engine(
        build_system(), library, build_assignment(), periods, audit=trail, **options
    )
    return decisions, result, counters, trail
