"""Experiment A5 — scaling of the coupled scheduler.

The paper reports 71 iterations / 7 s for 124 operations on a Pentium
133 (§7) and argues the modification does not increase the IFDS
complexity class (§5.3).  This benchmark scales the number of processes
over random workloads and reports operations, iterations, and wall time;
iterations must grow linearly with total mobility, not explode.

Each size is run twice — the brute-force reference
(:class:`repro.core.reference.ReferenceScheduler`, which re-evaluates
every candidate on every iteration) and the selection engine of
:class:`ModuloSystemScheduler` — so the engine's speedup over brute
force is measured on the same run (see docs/performance.md).  Decisions
are identical in both arms; only the wall time and the
``force_evaluations`` counter differ.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_scaling.py --processes 2 \
        --out BENCH_scaling.json
"""

import argparse
import json
import pathlib
import time

from conftest import save_artifact
from repro.obs import Tracer

from repro.core.periods import PeriodAssignment
from repro.core.reference import ReferenceScheduler
from repro.core.scheduler import ModuloSystemScheduler
from repro.ir.process import Block, Process, SystemSpec
from repro.resources.assignment import ResourceAssignment
from repro.resources.library import default_library
from repro.workloads import random_dfg

PROCESS_COUNTS = (2, 4, 6, 8, 12)
OPS_PER_PROCESS = 12
SLACK = 6
PERIOD = 4


def build_system(n_processes, library):
    system = SystemSpec(name=f"scale{n_processes}")
    for index in range(n_processes):
        graph = random_dfg(OPS_PER_PROCESS, seed=1000 + index)
        deadline = graph.critical_path_length(library.latency_of) + SLACK
        process = Process(name=f"p{index}")
        process.add_block(Block(name="main", graph=graph, deadline=deadline))
        system.add_process(process)
    return system


def build_problem(n_processes, library):
    system = build_system(n_processes, library)
    assignment = ResourceAssignment.all_global(library, system)
    periods = PeriodAssignment({name: PERIOD for name in assignment.global_types})
    return system, assignment, periods


def run_engine(system, assignment, periods, library):
    """One engine run; returns a flat metrics dict plus its decisions."""
    tracer = Tracer()
    scheduler = ModuloSystemScheduler(library, tracer=tracer)
    started = time.perf_counter()
    result = scheduler.schedule(system, assignment, periods)
    elapsed = time.perf_counter() - started
    counters = dict(result.telemetry.get("counters", {}))
    hits = counters.get("force_cache_hits", 0)
    misses = counters.get("force_cache_misses", 0)
    probes = hits + misses
    decisions = [
        (e.attrs["process"], e.attrs["block"], e.attrs["op"], e.attrs["side"])
        for e in tracer.events_named("reduction")
    ]
    return {
        "iterations": result.iterations,
        "wall_time": elapsed,
        "area": result.total_area(),
        "force_evaluations": counters.get("force_evaluations", 0),
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_rate": (hits / probes) if probes else 0.0,
        "counters": counters,
    }, decisions


def run_reference(system, assignment, periods, library):
    """One reference run, its force evaluations counted by an
    activated tracer; returns a flat metrics dict plus its decisions."""
    tracer = Tracer()
    started = time.perf_counter()
    with tracer.activate():
        run = ReferenceScheduler(library).schedule(system, assignment, periods)
    elapsed = time.perf_counter() - started
    return {
        "iterations": run.schedule.iterations,
        "wall_time": elapsed,
        "area": run.schedule.total_area(),
        "force_evaluations": tracer.counters.as_dict().get("force_evaluations", 0),
    }, run.decisions


def run_ab(system, assignment, periods, library):
    """Reference and engine arms of one problem, plus their parity."""
    reference, reference_decisions = run_reference(
        system, assignment, periods, library
    )
    engine, engine_decisions = run_engine(system, assignment, periods, library)
    return {
        "reference": reference,
        "engine": engine,
        "decisions_identical": engine_decisions == reference_decisions,
        "speedup": (
            reference["wall_time"] / engine["wall_time"]
            if engine["wall_time"]
            else float("inf")
        ),
    }


def run_scaling(process_counts=PROCESS_COUNTS):
    """One reference-vs-engine row per system size."""
    library = default_library()
    rows = []
    for n_processes in process_counts:
        system, assignment, periods = build_problem(n_processes, library)
        row = {
            "processes": n_processes,
            "operations": system.operation_count,
            **run_ab(system, assignment, periods, library),
        }
        row["iterations"] = row["engine"]["iterations"]
        row["area"] = row["engine"]["area"]
        row["eval_reduction"] = (
            row["reference"]["force_evaluations"]
            / row["engine"]["force_evaluations"]
            if row["engine"]["force_evaluations"]
            else float("inf")
        )
        rows.append(row)
    return rows


def format_report(rows):
    lines = [
        "A5: scheduler scaling over random multi-process systems",
        f"({OPS_PER_PROCESS} ops/process, slack {SLACK}, all types global, "
        f"P = {PERIOD})",
        "",
        f"{'procs':>5} {'ops':>5} {'iterations':>11} {'area':>6} "
        f"{'engine_s':>9} {'ref_s':>8} {'speedup':>8} "
        f"{'evals':>7} {'hit%':>6}",
    ]
    for row in rows:
        engine = row["engine"]
        lines.append(
            f"{row['processes']:>5} {row['operations']:>5} "
            f"{row['iterations']:>11} {row['area']:>6g} "
            f"{engine['wall_time']:>9.2f} "
            f"{row['reference']['wall_time']:>8.2f} "
            f"{row['speedup']:>7.1f}x "
            f"{engine['force_evaluations']:>7} "
            f"{100 * engine['cache_hit_rate']:>5.1f}%"
        )
    lines.append("")
    lines.append("paper reference point: 124 ops, 71 iterations, 7 s (Pentium 133)")
    return "\n".join(lines)


def test_scaling(benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)

    # Iterations are bounded by total mobility: at most ops * (slack + 1).
    for row in rows:
        assert row["iterations"] <= row["operations"] * (SLACK + 2)
        # Decision parity: the engine makes the reference's decisions.
        assert row["decisions_identical"]
        assert row["engine"]["iterations"] == row["reference"]["iterations"]
        assert row["engine"]["area"] == row["reference"]["area"]

    save_artifact("scaling", format_report(rows), data=rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--processes",
        type=int,
        nargs="+",
        default=list(PROCESS_COUNTS),
        help="system sizes (number of processes) to run",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable report to this JSON file",
    )
    args = parser.parse_args(argv)
    rows = run_scaling(tuple(args.processes))
    print(format_report(rows))
    if args.out is not None:
        args.out.write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return rows


if __name__ == "__main__":
    main()
