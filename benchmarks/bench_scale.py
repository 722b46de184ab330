"""Experiment A8 — the selection engine on the scenario corpus.

The coupled scheduler's selection engine rescores, per iteration, only
the entries inside the commit's dirty cone.  This benchmark measures it
end to end on the scenario corpus (:mod:`repro.workloads.corpus` —
filter banks, ODE solver chains, and I/O-timing kernels with eleven
globally shared clusters) at 50, 100, and 200 processes, reporting wall
time (fastest of ``ENGINE_REPEATS`` runs), µs per iteration, and the
rescored share of entry visits.

Sizes up to ``REFERENCE_MAX_PROCESSES`` also run the brute-force
:class:`repro.core.reference.ReferenceScheduler` and assert decision
parity (same decisions, iterations and area); larger sizes skip it,
because brute force grows too slow to be a smoke check there.

Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_scale.py --processes 10 20 \
        --out BENCH_scale.json
"""

import argparse
import json
import pathlib

from conftest import save_artifact
from repro.workloads import corpus_system

from bench_scaling import run_engine, run_reference

PROCESS_COUNTS = (50, 100, 200)
SEED = 1

#: Largest corpus size that also runs the brute-force reference arm.
REFERENCE_MAX_PROCESSES = 10

#: Engine runs per size; the fastest one is reported, which keeps the
#: µs/iteration growth between sizes stable enough to gate.
ENGINE_REPEATS = 3


def run_scale(process_counts=PROCESS_COUNTS, *, seed=SEED):
    """One row per corpus size: the engine, plus the reference on small
    sizes."""
    rows = []
    for n_processes in process_counts:
        instance = corpus_system(n_processes, seed=seed)
        problem = (instance.system, instance.assignment, instance.periods)
        n_blocks = sum(
            len(process.blocks) for process in instance.system.processes
        )
        runs = [run_engine(*problem, instance.library) for _ in range(ENGINE_REPEATS)]
        engine = min((metrics for metrics, _ in runs), key=lambda m: m["wall_time"])
        row = {"engine": engine}
        if n_processes <= REFERENCE_MAX_PROCESSES:
            reference, decisions = run_reference(*problem, instance.library)
            row["reference"] = reference
            row["decisions_identical"] = decisions == runs[0][1]
        counters = engine["counters"]
        rescored = counters.get("selection_rescored", 0)
        skipped = counters.get("selection_skipped", 0)
        engine["selection_rescored"] = rescored
        engine["selection_skipped"] = skipped
        row.update({
            "processes": n_processes,
            "seed": seed,
            "blocks": n_blocks,
            "operations": instance.system.operation_count,
            "iterations": engine["iterations"],
            "area": engine["area"],
            "us_per_iteration": (
                1e6 * engine["wall_time"] / engine["iterations"]
                if engine["iterations"]
                else 0.0
            ),
            "rescored_fraction": (
                rescored / (rescored + skipped) if rescored + skipped else 0.0
            ),
        })
        rows.append(row)
    return rows


def format_report(rows):
    lines = [
        "A8: the selection engine on the scenario corpus",
        "(heterogeneous filter-bank / ODE-chain / I/O-kernel processes, "
        "11 shared clusters)",
        "",
        f"{'procs':>5} {'blocks':>6} {'ops':>6} {'iterations':>11} "
        f"{'area':>8} {'engine_s':>8} {'us/iter':>8} {'ref_s':>8} "
        f"{'rescored':>9}",
    ]
    for row in rows:
        reference = row.get("reference")
        ref_cell = (
            f"{reference['wall_time']:>8.2f}" if reference else f"{'-':>8}"
        )
        lines.append(
            f"{row['processes']:>5} {row['blocks']:>6} "
            f"{row['operations']:>6} {row['iterations']:>11} "
            f"{row['area']:>8g} "
            f"{row['engine']['wall_time']:>8.2f} "
            f"{row['us_per_iteration']:>8.0f} {ref_cell} "
            f"{100 * row['rescored_fraction']:>8.2f}%"
        )
    lines.append("")
    lines.append(
        "parity: rows with a reference arm make identical decisions, "
        "iterations, and area (asserted by the smoke test)"
    )
    return "\n".join(lines)


def test_scale(benchmark):
    # Smoke sizes: the full 50/100/200 run is the standalone artifact.
    rows = benchmark.pedantic(
        run_scale, kwargs={"process_counts": (10, 20)}, rounds=1, iterations=1
    )
    for row in rows:
        if "reference" in row:
            assert row["decisions_identical"]
            assert row["engine"]["iterations"] == row["reference"]["iterations"]
            assert row["engine"]["area"] == row["reference"]["area"]
        # The engine must actually skip work: the rescored share of all
        # entry visits stays a small fraction on corpus systems.
        assert row["rescored_fraction"] < 0.5
    save_artifact("scale", format_report(rows), data=rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--processes",
        type=int,
        nargs="+",
        default=list(PROCESS_COUNTS),
        help="corpus sizes (number of processes) to run",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=SEED,
        help="corpus generator seed",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable report to this JSON file",
    )
    args = parser.parse_args(argv)
    rows = run_scale(tuple(args.processes), seed=args.seed)
    print(format_report(rows))
    if args.out is not None:
        args.out.write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return rows


if __name__ == "__main__":
    main()
