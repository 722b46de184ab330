"""Repository benchmark: one command, three workloads, checked results.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus-200 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``solve_s``,
``verdict_s``, ``area``, ``peak_rss_mb``); ``--trace 1`` measures the
per-layer metrics of ``perfbench/metrics.json`` in a separate traced
run.  Every measurement runs in a fresh interpreter (``child.py``) with
BLAS pinned to one thread.  Times are in reference seconds: wall time
scaled by the host's speed, sampled while the program runs (``speed.py``);
the record keeps the plain wall times too.  Every schedule produced goes through
``verify()``, ``certify()`` and ``check_certificate``; a failure counts
against ``attempted``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record (environment fingerprint, every rep,
digests and the self-checks).  The exit code is 0 only for a correct
run; a broken set-up (no ``src/repro`` beside this directory) exits 2
without a result.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = json.loads((HERE / "metrics.json").read_text())
WORKLOADS = tuple(CATALOG["workloads"])

#: BLAS/OpenMP thread variables, all pinned to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: String hashing is pinned too: set iteration order changes how long
#: the certifier takes on one and the same schedule by up to half.
HASH_SEED = "0"

#: Fresh interpreters that only set up, besides the solving one.
SETUP_SAMPLES = 5

#: Every child must finish inside this many seconds of the run's start.
BUDGET_SECONDS = 170.0

#: The paper's best total area for its system (Table 1).
PAPER_AREA = 17.0

LAYER_UNITS = {
    metric["name"]: metric["unit"]
    for layer in CATALOG["layers"].values()
    for metric in layer["metrics"]
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "verdict_s": "s",
    "area": "area",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        source = str(ROOT / "src")
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = source + (os.pathsep + inherited if inherited else "")
        for name in THREAD_VARS:
            self.env[name] = "1"
        self.env["PYTHONHASHSEED"] = HASH_SEED

    def child(self, mode: str, *options: str) -> dict:
        """Run ``child.py`` in a fresh interpreter; returns its JSON line."""
        remaining = BUDGET_SECONDS - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload",
            self.workload,
            "--seed",
            str(self.seed),
            "--mode",
            mode,
            *options,
        ]
        self.env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child exceeded the time budget") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(
                f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        return json.loads(lines[-1])


def _determinism_checks(workload: str, reps: list) -> list:
    """Problems if runs of one seed disagree, or the paper area claim fails."""
    problems = []
    finished = [rep for rep in reps if "digest" in rep]
    if len({rep["digest"] for rep in finished}) > 1:
        problems.append(
            "runs of one seed (repeats, or traced and untraced) "
            "gave different schedule digests"
        )
    if len({rep["area"] for rep in finished}) > 1:
        problems.append("repeats of one seed gave different areas")
    if workload == "paper-sweep":
        bests = {
            (rep["sweep"]["best_area"], json.dumps(rep["sweep"]["best_periods"]))
            for rep in finished
        }
        if len(bests) > 1:
            problems.append(
                "shuffling the candidate order changed the best area or periods"
            )
        if any(rep["area"] > PAPER_AREA for rep in finished):
            problems.append(f"paper-sweep area above the paper's {PAPER_AREA:g}")
    return problems


def measure_end_to_end(runner: Runner, seconds: float):
    setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
    solve = runner.child("solve", "--seconds", str(seconds), "--min-reps", "2")
    reps = solve["reps"]
    setups.append(solve)
    finished = [rep for rep in reps if "digest" in rep]
    problems = _determinism_checks(runner.workload, reps)
    metrics = {}
    if finished:
        metrics = {
            "setup_s": statistics.median(setup["setup_s"] for setup in setups),
            "solve_s": statistics.median(rep["solve_s"] for rep in finished),
            "verdict_s": statistics.median(rep["verdict_s"] for rep in finished),
            "area": finished[0]["area"],
            "peak_rss_mb": solve["peak_rss_mb"],
        }
    record = {
        "setup_samples_s": [setup["setup_s"] for setup in setups],
        "setup_wall_samples_s": [setup["setup_wall_s"] for setup in setups],
        "reps": reps,
        "fingerprint": solve["fingerprint"],
    }
    return metrics, record, problems


def measure_layers(runner: Runner):
    plain = runner.child("solve")
    traced = runner.child("traced")
    base, rep = plain["reps"][0], traced["reps"][0]
    reps = [base, rep]
    record = {
        "reps": reps,
        "fingerprint": traced["fingerprint"],
        "layer_calls": traced.get("layer_calls", {}),
    }
    if "digest" not in base or "digest" not in rep:
        return {}, record, ["no final schedule to trace"]
    # Same seed, same schedule: the wrappers must observe, never steer.
    problems = _determinism_checks(runner.workload, reps)
    metrics = dict(traced["layers"])
    sweep = rep.get("sweep") or {}
    evaluated = sweep.get("evaluated", 0)
    phases = base.get("phase_times", {})
    iterations = base.get("iterations", 0)
    metrics.update({
        "scheduler.iterations": iterations,
        "scheduler.us_per_iteration": (
            1e6 * base["schedule_wall_s"] / iterations if iterations else 0.0
        ),
        "scheduler.phase.setup_s": phases.get("setup", 0.0),
        "scheduler.phase.loop_s": phases.get("reduction_loop", 0.0),
        "scheduler.phase.finalization_s": phases.get("finalization", 0.0),
        "sweep.candidates": sweep.get("candidates", 0),
        "sweep.evaluated": evaluated,
        "sweep.pruned_ratio": (
            sweep["pruned"] / sweep["candidates"] if sweep.get("candidates") else 0.0
        ),
        "sweep.s_per_evaluated": (
            traced["layer_seconds"].get("parallel.engine", 0.0) / evaluated
            if evaluated
            else 0.0
        ),
        "certify.interval_proof_ratio": (
            rep["interval_proofs"] / rep["proofs"] if rep.get("proofs") else 0.0
        ),
        "trace.overhead_ratio": rep["solve_s"] / base["solve_s"],
    })
    # Self-checks: one commit per iteration, seen by three observers ...
    if not (
        metrics["state.commit_calls"]
        == rep.get("iterations")
        == metrics["counters.frame_reductions"]
        == iterations
    ):
        problems.append(
            "state.commit_calls, scheduler.iterations and "
            "counters.frame_reductions disagree: "
            f"{metrics['state.commit_calls']}, {iterations}, "
            f"{metrics['counters.frame_reductions']}"
        )
    # ... and every layer does work on the workload it is heaviest on.
    for layer, spec in CATALOG["layers"].items():
        if spec["heaviest"] == runner.workload and not traced["layer_calls"].get(layer):
            problems.append(f"layer {layer} recorded zero calls on {runner.workload}")
    missing = [name for name in LAYER_UNITS if name not in metrics]
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
    values = {name: metrics[name] for name in LAYER_UNITS if name in metrics}
    return values, record, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, record, problems = measure_layers(runner)
            units = LAYER_UNITS
        else:
            values, record, problems = measure_end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    reps = record["reps"]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for rep in reps:
        problems.extend(rep.get("problems", []))
    correct = failed == 0 and not problems and len(values) == len(units)
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        digests=sorted({rep["digest"] for rep in reps if "digest" in rep}),
        attempted=attempted,
        failed=failed,
        fail_ratio=failed / attempted if attempted else 0.0,
        problems=problems,
        metrics=values,
    )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(f"  {'fail_ratio':<36} {record['fail_ratio']:>16.6g} ratio")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
