"""One fresh interpreter running one benchmark workload.

``run.py`` starts this script once per measurement so that set-up time
includes the imports and peak memory belongs to this workload alone.
It prints one JSON object as its last line.  Modes:

* ``setup``  -- build the inputs and report the set-up time only;
* ``solve``  -- build, then repeat the operation until ``--seconds``
  have passed (at least ``--min-reps`` times), checking every schedule;
* ``traced`` -- like one ``solve`` rep, with every layer wrapped by
  :mod:`ledger` and a :class:`repro.obs.Tracer` collecting counters.

``PERFBENCH_SPAWNED`` holds the parent's ``time.monotonic()`` just
before it started this process; set-up time is measured from there.
Set-up, solve and verdict times are in reference seconds (see
:mod:`speed`); the plain wall times are kept beside them.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

SPAWNED = float(os.environ.get("PERFBENCH_SPAWNED", time.monotonic()))

import speed  # noqa: E402  (imports numpy: part of the set-up time)

#: Samples the host's speed from here to the end of the process.
METER = speed.Speedometer()
METER.install()

import cases  # noqa: E402  (imports repro: part of the set-up time)
import ledger as layer_ledger  # noqa: E402

#: Each rep times the final verdict at least this often and for at least
#: this long, and records the mean: a verdict on a small schedule takes
#: milliseconds, shorter than the gap between two reference slices.
VERDICT_MIN_SAMPLES = 3
VERDICT_MIN_SECONDS = 2.0

#: The wrapped names whose time makes up a verdict.
VERDICT_NAMES = ("verify", "certify", "check_certificate")


def timed_verdict(result, meter, min_samples, min_seconds):
    """The three checks on ``result``, timed; returns the timing and report.

    The timing is the mean time of one verdict in reference seconds, and
    its plain wall time.
    """
    reading = speed.Reading()
    samples = 0
    while samples < min_samples or reading.own_s < min_seconds:
        gc.collect()
        mark = meter.start()
        report = cases.verdict(result)
        reading = reading + meter.stop(mark)
        samples += 1
    return {
        "verdict_s": reading.reference_s(meter.mean_slice_s()) / samples,
        "verdict_wall_s": reading.own_s / samples,
        "verdict_samples": samples,
        "verdict_slices": reading.slices,
    }, report


def one_rep(inputs, workload, rep, meter, tracer=None, ledger=None):
    """Run the operation once; check every schedule it made."""
    gc.collect()
    mark = meter.start()
    try:
        outcome = cases.RUNNERS[workload](inputs, rep, tracer=tracer)
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
        return {
            "solve_s": meter.stop(mark).reference_s(meter.mean_slice_s()),
            "attempted": 1,
            "failed": 1,
            "problems": [f"{type(exc).__name__}: {exc}"],
        }
    solve = meter.stop(mark)
    *others, final = outcome.schedules or [None]
    problems = []
    failed = outcome.failed
    for result in others:
        report = cases.verdict(result)
        if report["problems"]:
            failed += 1
            problems.extend(report["problems"])
    record = {
        "solve_s": solve.reference_s(meter.mean_slice_s()),
        "solve_wall_s": solve.own_s,
        "solve_slices": solve.slices,
        "slice_s": solve.slice_s / solve.slices if solve.slices else None,
        "attempted": len(outcome.schedules) + outcome.failed,
        "sweep": outcome.sweep,
    }
    if final is None:
        record.update(failed=failed, problems=problems + ["no final schedule"])
        return record
    before = ledger.snapshot() if ledger is not None else {}
    # The traced run checks once, so the ledger's verdict share is one pass.
    if ledger is None:
        timing, report = timed_verdict(
            final, meter, VERDICT_MIN_SAMPLES, VERDICT_MIN_SECONDS
        )
    else:
        timing, report = timed_verdict(final, meter, 1, 0.0)
    if report["problems"]:
        failed += 1
        problems.extend(report["problems"])
    record.update(
        timing,
        failed=failed,
        problems=problems,
        verdict_seconds=(
            layer_ledger.delta(ledger.snapshot(), before, VERDICT_NAMES)
            if ledger is not None
            else {}
        ),
        area=final.total_area(),
        digest=cases.digest(final),
        iterations=sum(result.iterations for result in outcome.schedules),
        schedule_wall_s=sum(result.wall_time for result in outcome.schedules),
        phase_times=_phase_totals(outcome.schedules),
        proofs=report["proofs"],
        interval_proofs=report["interval_proofs"],
    )
    return record


def _phase_totals(results):
    totals = {"setup": 0.0, "reduction_loop": 0.0, "finalization": 0.0}
    for result in results:
        for phase, seconds in result.telemetry.get("phase_times", {}).items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def fingerprint():
    """Environment facts that change timings: CPUs, Python, BLAS, threads."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "openblas_configuration": blas.get("openblas configuration"),
        },
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "blas_threads_pinned": all(
            os.environ.get(name) == "1"
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        ),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "solve", "traced"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    args = parser.parse_args(argv)

    ledger = None
    if args.mode == "traced":
        ledger = layer_ledger.Ledger()
        layer_ledger.install(ledger, extra_modules=[cases])
    inputs = cases.GENERATORS[args.workload](args.seed)
    # Every slice so far fell inside the set-up, which began at the spawn.
    setup = speed.Reading(
        time.monotonic() - SPAWNED - METER.slice_s, METER.slices, METER.slice_s
    )
    out = {
        "setup_s": setup.reference_s(METER.mean_slice_s()),
        "setup_wall_s": setup.own_s,
        "setup_slices": setup.slices,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from repro.obs import Tracer

        tracer = Tracer()
    reps = []
    started = time.perf_counter()
    while len(reps) < args.min_reps or time.perf_counter() - started < args.seconds:
        reps.append(one_rep(inputs, args.workload, len(reps), METER, tracer, ledger))
        if args.mode == "traced":
            break
    out["reps"] = reps
    out["peak_rss_mb"] = peak_rss_mb()
    out["fingerprint"] = fingerprint()
    if ledger is not None:
        out["layers"] = layer_ledger.layer_metrics(
            ledger, reps[0].get("verdict_seconds", {}), tracer.counters.as_dict()
        )
        out["layer_calls"] = dict(ledger.layer_calls)
        out["layer_seconds"] = dict(ledger.layer_seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        # An armed timer outliving its handler would kill the interpreter.
        METER.uninstall()
    sys.exit(status)
