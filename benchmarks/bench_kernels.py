"""Kernel microbenchmarks and end-to-end kernel A/B → BENCH_kernel.json.

Measures the batched array kernels (:mod:`repro.scheduling.kernels`)
against their scalar reference paths on identical inputs harvested from
real scheduling states, per system size:

* **modulo_max** — :func:`repro.core.modulo.modulo_max_rows` (one
  reshape-max pass over a row matrix) vs the per-row
  :func:`modulo_max_reference` stride loop;
* **occupancy_rows** — :func:`batched_occupancy_rows` vs one
  :func:`occupancy_row` call per frame;
* **delta_build_narrow** — one :class:`DeltaBatch` per block over both
  frame ends of every mobile operation (the coupled scheduler's batch
  shape) vs one ``BlockState.placement_deltas`` call per candidate;
* **delta_build_guarded** — the same comparison on guarded
  mode-switching filter blocks, whose types take the branch-max fold;
* **end_to_end** — the coupled scheduler's selection engine vs the
  brute-force :class:`repro.core.reference.ReferenceScheduler`,
  best-of-``--repeats`` wall time per arm to suppress machine noise.

Results are identical in both arms of every comparison (pinned by
``tests/core/test_kernel_parity.py`` and
``tests/scheduling/test_kernels.py``); only wall time differs.  Each
arm of a micro row loops its own count of iterations, sized so the arm
stays well above the regression gate's noise floor, in slices that
alternate with the other arm's, and reports the seconds per loop of
its fastest slice.  Runnable standalone for CI smoke checks::

    PYTHONPATH=src python benchmarks/bench_kernels.py --processes 6 \
        --repeats 2 --out BENCH_kernel.json
"""

import argparse
import gc
import json
import pathlib
import time

import numpy as np

from conftest import save_artifact
from repro.core.modulo import modulo_max_reference, modulo_max_rows
from repro.ir.process import Block
from repro.resources.library import default_library
from repro.scheduling.distribution import occupancy_row
from repro.scheduling.kernels import DeltaBatch, batched_occupancy_rows
from repro.scheduling.state import BlockState
from repro.workloads import mode_switching_filter

from bench_scaling import PERIOD, build_problem, build_system, run_ab

PROCESS_COUNTS = (6, 12)

#: Per-arm fields kept in the end-to-end rows.
ARM_KEYS = ("wall_time", "iterations", "area", "force_evaluations")

#: ``(scalar, vector)`` loop counts per micro row, sized so each arm
#: measures about 0.15 s or more at 6 processes on a 2-CPU host, three
#: times the regression gate's 0.05 s noise floor.
LOOPS = {
    "modulo_max": (150, 6000),
    "occupancy_rows": (300, 5000),
    "delta_build_narrow": (150, 150),
    "delta_build_guarded": (100, 150),
}

#: Slices each arm's loops are split into, alternating scalar/vector;
#: every loop count above is a multiple of it.
CHUNKS = 10


def _time(fn, loops):
    """Seconds for ``loops`` calls, with the cyclic GC paused as
    ``timeit`` does (a collection triggered by one arm's garbage would
    otherwise land in whichever arm runs next)."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(loops):
            fn()
        return time.perf_counter() - started
    finally:
        gc.enable()


def block_states(n_processes, library):
    system = build_system(n_processes, library)
    return [
        BlockState(block, library)
        for process in system.processes
        for block in process.blocks
    ]


def guarded_states(n_processes, library):
    """One guarded mode-switching filter block per process: 2-5 precise
    taps, 2-4 steps of deadline slack."""
    states = []
    for index in range(n_processes):
        graph = mode_switching_filter(2 + index % 4, name=f"g{index}")
        deadline = graph.critical_path_length(library.latency_of) + 2 + index % 3
        block = Block(name=f"g{index}", graph=graph, deadline=deadline)
        states.append(BlockState(block, library))
    return states


def frame_end_batches(states, frames=None):
    """``(state, [(op, lo), (op, hi), ...])`` per state with a mobile
    operation; appends ``(lo, hi, occupancy, horizon)`` per operation to
    ``frames`` when given."""
    batches = []
    for state in states:
        ends = []
        for op_id in state.frames.unfixed():
            lo, hi = state.frames.frame(op_id)
            if frames is not None:
                frames.append(
                    (lo, hi, state.dist.occupancy_of[op_id], state.dist.horizon)
                )
            ends.extend([(op_id, lo), (op_id, hi)])
        if ends:
            batches.append((state, ends))
    return batches


def harvest(n_processes, library):
    """Shared micro-inputs: frames, frame-end batches (unguarded and
    guarded), delta rows."""
    frames = []  # (lo, hi, occupancy, horizon)
    narrow = frame_end_batches(block_states(n_processes, library), frames)
    guarded = frame_end_batches(guarded_states(n_processes, library))
    matrices = []
    for state, ends in narrow:
        matrices.extend(DeltaBatch(state, ends).deltas.values())
    # Block horizons differ; zero-pad to one width (zeros are inert
    # under the modulo fold, and both arms see identical rows).
    width = max(matrix.shape[1] for matrix in matrices)
    rows = np.zeros((sum(matrix.shape[0] for matrix in matrices), width))
    offset = 0
    for matrix in matrices:
        rows[offset : offset + matrix.shape[0], : matrix.shape[1]] = matrix
        offset += matrix.shape[0]
    return frames, narrow, guarded, rows


def bench_kernels_at(n_processes, library, repeats):
    """Per-kernel scalar-vs-vector wall times at one system size."""
    frames, narrow, guarded, rows = harvest(n_processes, library)
    results = []

    def record(name, batch, scalar_fn, vector_fn):
        scalar_loops, vector_loops = LOOPS[name]
        # The arms alternate in CHUNKS slices per repeat and each keeps
        # its fastest slice, so a slow phase of a shared host that hits
        # some slices of one arm does not reach the ratio.
        scalar_chunk = scalar_loops // CHUNKS
        vector_chunk = vector_loops // CHUNKS
        scalar = vector = float("inf")
        for _ in range(repeats * CHUNKS):
            scalar = min(scalar, _time(scalar_fn, scalar_chunk) / scalar_chunk)
            vector = min(vector, _time(vector_fn, vector_chunk) / vector_chunk)
        results.append(
            {
                "name": name,
                "processes": n_processes,
                "batch": batch,
                "scalar_loops": scalar_loops,
                "vector_loops": vector_loops,
                "scalar_s_per_loop": scalar,
                "vector_s_per_loop": vector,
                "speedup": scalar / vector if vector else float("inf"),
            }
        )

    record(
        "modulo_max",
        int(rows.shape[0]),
        lambda: [modulo_max_reference(row, PERIOD) for row in rows],
        lambda: modulo_max_rows(rows, PERIOD),
    )

    horizon = max(f[3] for f in frames)
    los = [f[0] for f in frames]
    his = [f[1] for f in frames]
    occs = [f[2] for f in frames]
    record(
        "occupancy_rows",
        len(frames),
        lambda: [
            occupancy_row(lo, hi, occ, horizon)
            for lo, hi, occ in zip(los, his, occs)
        ],
        lambda: batched_occupancy_rows(los, his, occs, horizon),
    )

    for name, batches in (
        ("delta_build_narrow", narrow),
        ("delta_build_guarded", guarded),
    ):
        record(
            name,
            sum(len(ends) for _state, ends in batches),
            lambda batches=batches: [
                state.placement_deltas(op_id, step)
                for state, ends in batches
                for op_id, step in ends
            ],
            lambda batches=batches: [
                DeltaBatch(state, ends) for state, ends in batches
            ],
        )
    return results


def run_end_to_end(n_processes, library, repeats):
    """Best-of-``repeats`` coupled runs, engine vs reference."""
    system, assignment, periods = build_problem(n_processes, library)
    runs = [run_ab(system, assignment, periods, library) for _ in range(repeats)]
    reference, engine = (
        min((run[arm] for run in runs), key=lambda metrics: metrics["wall_time"])
        for arm in ("reference", "engine")
    )
    return {
        "processes": n_processes,
        "operations": system.operation_count,
        "engine": {key: engine[key] for key in ARM_KEYS},
        "reference": {key: reference[key] for key in ARM_KEYS},
        "decisions_identical": all(run["decisions_identical"] for run in runs),
        "speedup": (
            reference["wall_time"] / engine["wall_time"]
            if engine["wall_time"]
            else float("inf")
        ),
    }


def run_bench(process_counts=PROCESS_COUNTS, *, repeats=3):
    library = default_library()
    kernels = []
    end_to_end = []
    for n_processes in process_counts:
        kernels.extend(bench_kernels_at(n_processes, library, repeats))
        end_to_end.append(run_end_to_end(n_processes, library, repeats))
    return {
        "config": {"repeats": repeats, "period": PERIOD,
                   "processes": list(process_counts)},
        "kernels": kernels,
        "end_to_end": end_to_end,
    }


def format_report(report):
    lines = [
        "Batched force kernels: scalar vs vector (best-of-"
        f"{report['config']['repeats']})",
        "",
        f"{'kernel':>19} {'procs':>5} {'batch':>6} {'scalar_us':>9} "
        f"{'vector_us':>9} {'speedup':>8}",
    ]
    for row in report["kernels"]:
        lines.append(
            f"{row['name']:>19} {row['processes']:>5} {row['batch']:>6} "
            f"{row['scalar_s_per_loop'] * 1e6:>9.1f} "
            f"{row['vector_s_per_loop'] * 1e6:>9.1f} "
            f"{row['speedup']:>7.1f}x"
        )
    lines.append("")
    lines.append(
        f"{'end-to-end':>19} {'procs':>5} {'ops':>6} {'ref_s':>9} "
        f"{'engine_s':>9} {'speedup':>8}"
    )
    for row in report["end_to_end"]:
        lines.append(
            f"{'coupled run':>19} {row['processes']:>5} "
            f"{row['operations']:>6} {row['reference']['wall_time']:>9.3f} "
            f"{row['engine']['wall_time']:>9.3f} {row['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def test_kernels(benchmark):
    report = benchmark.pedantic(
        lambda: run_bench((6,), repeats=2), rounds=1, iterations=1
    )
    for row in report["kernels"]:
        # The pure-array kernels must win outright; the delta build
        # batches small per-block candidate sets, so "no slower than
        # scalar with margin" is the invariant (its system-level win is
        # the end_to_end rows).
        if row["name"] in ("modulo_max", "occupancy_rows"):
            assert row["vector_s_per_loop"] < row["scalar_s_per_loop"], row["name"]
        else:
            assert (
                row["vector_s_per_loop"] < row["scalar_s_per_loop"] * 1.5
            ), row["name"]
    for row in report["end_to_end"]:
        # Decision parity: the engine makes the reference's decisions.
        assert row["decisions_identical"]
        assert row["engine"]["iterations"] == row["reference"]["iterations"]
        assert row["engine"]["area"] == row["reference"]["area"]
    save_artifact("kernels", format_report(report), data=report)


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
        "--repeats",
        type=int,
        default=3,
        help="best-of repeats per measurement (suppresses machine noise)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the machine-readable report to this JSON file",
    )
    args = parser.parse_args(argv)
    report = run_bench(tuple(args.processes), repeats=args.repeats)
    print(format_report(report))
    if args.out is not None:
        args.out.write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    return report


if __name__ == "__main__":
    main()
