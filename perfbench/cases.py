"""The three benchmark workloads: inputs from a seed, one operation, checks.

Each workload is a pair of functions.  ``build(seed)`` makes the inputs
(a validated :class:`repro.api.Problem` that went through the ``.sys``
text round trip, plus whatever the operation needs); ``run(inputs, rep,
tracer)`` performs one operation and returns the schedules it produced,
the last one being the workload's *final* schedule.  Nothing here times
anything: ``child.py`` does the timing, so the same code serves the
plain and the traced run.
"""

import contextlib
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.static import METHOD_INTERVAL, certify, check_certificate
from repro.api import Problem, dumps_problem, loads_problem
from repro.core.periods import (
    PeriodAssignment,
    enumerate_period_assignments,
    suggest_periods,
)
from repro.core.scheduler import ModuloSystemScheduler
from repro.core.verify import verify
from repro.ir.process import Block, Process, SystemSpec
from repro.parallel import ExplorationEngine
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.scheduling.forces import area_weights
from repro.workloads import (
    corpus_system,
    mode_switching_filter,
    paper_assignment,
    paper_periods,
    paper_system,
)

CORPUS_PROCESSES = 200
#: The ``corpus_system`` seed of the one instance corpus-200 schedules.
CORPUS_INSTANCE = 1
MODAL_PROCESSES = 8
MODAL_BLOCKS = 3
MODAL_TAPS = (3, 8)
MODAL_SLACK = (2, 6)


@dataclass
class Outcome:
    """What one operation produced.

    ``schedules`` lists every schedule the operation made; the last one
    is the final schedule.  ``failed`` counts schedules the operation
    tried to make but could not (a sweep candidate that raised).
    """

    schedules: list
    failed: int = 0
    sweep: Optional[Dict[str, object]] = None


@dataclass
class Inputs:
    problem: Problem
    candidates: List[PeriodAssignment] = field(default_factory=list)
    seed: int = 0


def round_trip(problem: Problem) -> Problem:
    """The problem as the program would receive it: parsed ``.sys`` text."""
    return loads_problem(dumps_problem(problem))


# ----------------------------------------------------------------------
# corpus-200
# ----------------------------------------------------------------------
def build_corpus(seed: int) -> Inputs:
    """One fixed corpus instance; the seed decides its process order.

    Drawing the instance itself from the seed changed the solve time per
    seed by up to a sixth (13.1 to 15.3 s), more than the run-to-run
    noise, so every seed schedules the same processes.
    """
    instance = corpus_system(CORPUS_PROCESSES, seed=CORPUS_INSTANCE)
    processes = instance.system.processes
    random.Random(seed).shuffle(processes)
    system = SystemSpec(name=f"{instance.name}-order{seed}")
    for process in processes:
        system.add_process(process)
    problem = Problem(system, instance.library, instance.assignment, instance.periods)
    return Inputs(problem=round_trip(problem), seed=seed)


def run_schedule(inputs: Inputs, rep: int, tracer=None) -> Outcome:
    return Outcome(schedules=[inputs.problem.schedule(tracer=tracer)])


# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
def build_paper(seed: int) -> Inputs:
    system, library = paper_system()
    problem = round_trip(
        Problem(system, library, paper_assignment(library), paper_periods())
    )
    candidates = enumerate_period_assignments(
        problem.system, problem.assignment, limit=10000
    )
    return Inputs(problem=problem, candidates=candidates, seed=seed)


def candidate_order(inputs: Inputs, rep: int) -> List[PeriodAssignment]:
    """The seed's shuffle for rep 0, a different shuffle for every later rep."""
    order = list(inputs.candidates)
    random.Random(f"{inputs.seed}:{rep}").shuffle(order)
    return order


@contextlib.contextmanager
def recorded_schedules():
    """Collect every schedule made inside the block, so each can be checked.

    The sweep hands back only per-candidate summaries; wrapping the
    scheduler's ``schedule`` keeps the produced schedules without
    changing what the engine does.
    """
    results: list = []
    original = ModuloSystemScheduler.schedule

    def schedule(scheduler, *args, **kwargs):
        result = original(scheduler, *args, **kwargs)
        results.append(result)
        return result

    ModuloSystemScheduler.schedule = schedule
    try:
        yield results
    finally:
        ModuloSystemScheduler.schedule = original


def run_sweep(inputs: Inputs, rep: int, tracer=None) -> Outcome:
    problem = inputs.problem
    engine = ExplorationEngine(problem, workers=1, prune=True, tracer=tracer)
    with recorded_schedules() as results:
        outcome = engine.sweep(candidate_order(inputs, rep))
    if outcome.best is None:
        return Outcome(schedules=results, failed=outcome.failed + 1)
    scheduler = ModuloSystemScheduler(
        problem.library, weights=area_weights(problem.library), tracer=tracer
    )
    final = scheduler.schedule(
        problem.system, problem.assignment, PeriodAssignment(outcome.best_periods)
    )
    return Outcome(
        schedules=results + [final],
        failed=outcome.failed,
        sweep={
            "candidates": len(outcome.results),
            "evaluated": outcome.evaluated,
            "pruned": outcome.pruned,
            "failed": outcome.failed,
            "best_area": outcome.best_area,
            "best_periods": dict(sorted(outcome.best_periods.items())),
        },
    )


# ----------------------------------------------------------------------
# guarded-modal
# ----------------------------------------------------------------------
def modal_shapes():
    """The fixed (precise taps, deadline slack) shape of every block."""
    count = MODAL_PROCESSES * MODAL_BLOCKS
    taps_lo, taps_hi = MODAL_TAPS
    slack_lo, slack_hi = MODAL_SLACK
    return [
        (
            taps_lo + index % (taps_hi - taps_lo + 1),
            slack_lo + index % (slack_hi - slack_lo + 1),
        )
        for index in range(count)
    ]


def build_modal(seed: int) -> Inputs:
    """Guarded blocks; the seed decides the order they are declared in.

    Process ``m<i>`` always holds the same three block shapes, so every
    seed schedules the same system up to the order of its processes and
    of the blocks inside each process.  Dealing the shapes out by seed
    instead changed the work per seed by up to a fifth (force
    evaluations 63k to 76k), more than the run-to-run noise.
    """
    library = default_library()
    shapes = modal_shapes()
    rng = random.Random(seed)
    order = list(range(MODAL_PROCESSES))
    rng.shuffle(order)
    system = SystemSpec(name=f"modal-s{seed}")
    names = []
    for index in order:
        process = Process(name=f"m{index}")
        slots = list(range(MODAL_BLOCKS))
        rng.shuffle(slots)
        for slot in slots:
            taps, slack = shapes[index * MODAL_BLOCKS + slot]
            graph = mode_switching_filter(taps, name=f"m{index}b{slot}")
            deadline = graph.critical_path_length(library.latency_of) + slack
            process.add_block(Block(name=f"b{slot}", graph=graph, deadline=deadline))
        system.add_process(process)
        names.append(process.name)
    assignment = ResourceAssignment(library)
    assignment.make_global("adder", names)
    assignment.make_global("multiplier", names)
    periods = suggest_periods(system, assignment, strategy="min-deadline")
    problem = Problem(system, library, assignment, periods)
    return Inputs(problem=round_trip(problem), seed=seed)


GENERATORS = {
    "corpus-200": build_corpus,
    "paper-sweep": build_paper,
    "guarded-modal": build_modal,
}

RUNNERS = {
    "corpus-200": run_schedule,
    "paper-sweep": run_sweep,
    "guarded-modal": run_schedule,
}


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verdict(result) -> Dict[str, object]:
    """The repo's three checks on one schedule.

    Returns ``{"problems": [...], "proofs": n, "interval_proofs": m}``;
    an empty problem list means the schedule is correct: ``verify()``
    passed, the certifier proved every pool safe, and the independent
    checker agreed with the certificate.
    """
    problems: List[str] = []
    proofs = interval_proofs = 0
    try:
        verify(result)
        certificate = certify(result)
        proofs = len(certificate.types)
        interval_proofs = sum(
            1 for proof in certificate.types if proof.method == METHOD_INTERVAL
        )
        if not certificate.safe:
            problems.append("certify: pool safety not proven")
        problems.extend(
            f"check_certificate: {item}"
            for item in check_certificate(certificate, result)
        )
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        problems.append(f"{type(exc).__name__}: {exc}")
    if result.degraded:
        problems.append("degraded: " + str(result.telemetry.get("degraded")))
    return {
        "problems": problems,
        "proofs": proofs,
        "interval_proofs": interval_proofs,
    }


def digest(result) -> str:
    """SHA-256 over the periods and every block's start times."""
    body = {
        "periods": dict(sorted(result.periods.as_dict.items())),
        "starts": {
            f"{process}/{block}": sorted(schedule.starts.items())
            for (process, block), schedule in sorted(result.block_schedules.items())
        },
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
