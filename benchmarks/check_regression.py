"""CI bench-regression gate.

Compares a freshly generated benchmark JSON against a committed
baseline and exits non-zero when the run regressed by more than the
tolerance (default 25%) on either axis:

* **evaluation counts** — force evaluations, scheduler iterations,
  sweep candidates evaluated.  The workloads are seeded and the
  scheduler deterministic, so these reproduce bit-for-bit across
  machines; growth means the algorithm started doing more work.
* **wall time** — compared only through dimensionless same-run ratios
  (engine/reference for the scaling, kernels and scale benches,
  pruned/unpruned for the sweep bench, per-loop vector/scalar for the kernel
  micro rows, and the µs-per-iteration growth between corpus sizes for
  the scale bench), so a slower or faster CI machine cannot trip or
  mask the gate; only a change in the *relative* benefit of the
  optimization can.

Solution quality (area, best periods) is deterministic and must not
regress at all.  Where a bench runs the selection engine next to the
brute-force reference, arm parity (identical decisions, iterations and
area) is a hard failure.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --kind scaling --current BENCH_scaling.json \
        --baseline benchmarks/baselines/BENCH_scaling_smoke.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --kind sweep --current BENCH_sweep.json \
        --baseline benchmarks/baselines/BENCH_sweep_smoke.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --kind kernels --current BENCH_kernel.json \
        --baseline benchmarks/baselines/BENCH_kernel_smoke.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --kind scale --current BENCH_scale.json \
        --baseline benchmarks/baselines/BENCH_scale_smoke.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --kind service --current BENCH_service.json \
        --baseline benchmarks/baselines/BENCH_service_smoke.json
    PYTHONPATH=src python benchmarks/check_regression.py \
        --kind absint --current BENCH_absint.json \
        --baseline benchmarks/baselines/BENCH_absint_smoke.json

The committed baselines under ``benchmarks/baselines/`` are smoke-scale
runs matching the CI invocations; the root-level ``BENCH_scaling.json``
/ ``BENCH_sweep.json`` remain the full-scale reference artifacts quoted
in the docs.  Regenerate a baseline by re-running the bench with the CI
flags and copying the output over the baseline file.
"""

import argparse
import json
import sys

#: Fail when a guarded metric grows past baseline * (1 + TOLERANCE).
TOLERANCE = 0.25

#: Wall-time ratios of arms faster than this are dominated by process
#: startup noise; the ratio check is skipped (the count checks, which
#: are exact, still apply).
NOISE_FLOOR_SECONDS = 0.05


class Gate:
    """Collects pass/fail lines; one failure fails the run."""

    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failures = []
        self.lines = []

    def check_count(self, name, current, baseline):
        """Deterministic work counter: must not grow past tolerance."""
        limit = baseline * (1.0 + self.tolerance)
        ok = current <= limit
        self._note(ok, f"{name}: {current} vs baseline {baseline} "
                       f"(limit {limit:.0f})")

    def check_ratio(self, name, current, baseline):
        """Dimensionless ratio: must not grow past tolerance."""
        if baseline <= 0:
            self._note(True, f"{name}: baseline ratio {baseline} — skipped")
            return
        limit = baseline * (1.0 + self.tolerance)
        ok = current <= limit
        self._note(ok, f"{name}: {current:.3f} vs baseline {baseline:.3f} "
                       f"(limit {limit:.3f})")

    def check_quality(self, name, current, baseline):
        """Solution quality: must be no worse than the baseline."""
        ok = current <= baseline
        self._note(ok, f"{name}: {current} vs baseline {baseline}")

    def skip(self, message):
        self.lines.append(f"  SKIP {message}")

    def _note(self, ok, message):
        tag = "ok  " if ok else "FAIL"
        self.lines.append(f"  {tag} {message}")
        if not ok:
            self.failures.append(message)


def _wall_ratio(gate, name, numer_arm, denom_arm, base_numer, base_denom):
    """Compare a same-run wall-time ratio, respecting the noise floor."""
    if min(denom_arm, base_denom) < NOISE_FLOOR_SECONDS:
        gate.skip(f"{name}: runtimes below {NOISE_FLOOR_SECONDS}s noise floor")
        return
    gate.check_ratio(name, numer_arm / denom_arm, base_numer / base_denom)


def _arm_parity(gate, label, row):
    """Engine and reference arms of one row: a hard invariant."""
    engine, reference = row["engine"], row["reference"]
    if (
        not row["decisions_identical"]
        or engine["iterations"] != reference["iterations"]
        or engine["area"] != reference["area"]
    ):
        gate.failures.append(
            f"{label} engine/reference arm parity violated: "
            f"decisions identical {row['decisions_identical']}, "
            f"{engine['iterations']}/{engine['area']} vs "
            f"{reference['iterations']}/{reference['area']}"
        )
        return False
    gate.lines.append(f"  ok   {label} engine/reference arm parity")
    return True


def _engine_vs_reference(gate, label, row, base):
    """Counts of both arms and their same-run wall-time ratio."""
    for arm in ("engine", "reference"):
        gate.check_quality(f"{label} {arm} area", row[arm]["area"], base[arm]["area"])
        gate.check_count(
            f"{label} {arm} iterations",
            row[arm]["iterations"], base[arm]["iterations"],
        )
        gate.check_count(
            f"{label} {arm} force_evaluations",
            row[arm]["force_evaluations"],
            base[arm]["force_evaluations"],
        )
    _wall_ratio(
        gate,
        f"{label} engine/reference wall-time ratio",
        row["engine"]["wall_time"], row["reference"]["wall_time"],
        base["engine"]["wall_time"], base["reference"]["wall_time"],
    )


def check_scaling(gate, current, baseline):
    """Rows matched on process count; unmatched rows are reported."""
    base_rows = {row["processes"]: row for row in baseline}
    matched = 0
    for row in current:
        base = base_rows.get(row["processes"])
        if base is None:
            gate.skip(f"no baseline row for processes={row['processes']}")
            continue
        matched += 1
        label = f"[{row['processes']}p]"
        if _arm_parity(gate, label, row):
            _engine_vs_reference(gate, label, row, base)
    if matched == 0:
        gate.failures.append("no scaling rows matched the baseline")


def check_scale(gate, current, baseline):
    """Selection-engine rows on the scenario corpus (bench_scale.py)."""
    base_rows = {row["processes"]: row for row in baseline}
    matched = []
    for row in current:
        base = base_rows.get(row["processes"])
        if base is None:
            gate.skip(f"no baseline row for processes={row['processes']}")
            continue
        label = f"[{row['processes']}p]"
        if "reference" in base:
            if "reference" not in row:
                gate.failures.append(f"{label} reference arm missing")
                continue
            if not _arm_parity(gate, label, row):
                continue
            _engine_vs_reference(gate, label, row, base)
        else:
            engine, base_engine = row["engine"], base["engine"]
            gate.check_quality(f"{label} area", engine["area"], base_engine["area"])
            gate.check_count(
                f"{label} iterations",
                engine["iterations"], base_engine["iterations"],
            )
            gate.check_count(
                f"{label} engine force_evaluations",
                engine["force_evaluations"], base_engine["force_evaluations"],
            )
        # Deterministic scoreboard work split: more rescoring means the
        # dirty cone grew (an incremental-selection regression).
        gate.check_count(
            f"{label} selection_rescored",
            row["engine"]["selection_rescored"],
            base["engine"]["selection_rescored"],
        )
        matched.append((row, base))
    # Per-iteration cost growth between consecutive sizes of one run.
    for (small, base_small), (large, base_large) in zip(matched, matched[1:]):
        name = (
            f"[{small['processes']}p->{large['processes']}p] "
            f"us/iteration growth"
        )
        if min(small["engine"]["wall_time"], base_small["engine"]["wall_time"]) < (
            NOISE_FLOOR_SECONDS
        ):
            gate.skip(f"{name}: runtimes below {NOISE_FLOOR_SECONDS}s noise floor")
            continue
        gate.check_ratio(
            name,
            large["us_per_iteration"] / small["us_per_iteration"],
            base_large["us_per_iteration"] / base_small["us_per_iteration"],
        )
    if not matched:
        gate.failures.append("no scale rows matched the baseline")


def check_sweep(gate, current, baseline):
    if current["candidates"] != baseline["candidates"]:
        gate.failures.append(
            f"candidate-set mismatch: current sweep enumerates "
            f"{current['candidates']} candidates, baseline "
            f"{baseline['candidates']} — regenerate the baseline with "
            f"the CI flags"
        )
        return
    gate.check_quality("best_area", current["best_area"],
                       baseline["best_area"])
    gate.check_count(
        "pruned-arm candidates evaluated",
        current["parallel_pruned"]["evaluated"],
        baseline["parallel_pruned"]["evaluated"],
    )
    for arm in ("serial", "parallel", "parallel_pruned"):
        gate.check_count(f"{arm} failed jobs", current[arm]["failed"], 0)
    _wall_ratio(
        gate,
        "pruned/unpruned wall-time ratio",
        current["parallel_pruned"]["wall_time"],
        current["parallel"]["wall_time"],
        baseline["parallel_pruned"]["wall_time"],
        baseline["parallel"]["wall_time"],
    )


def check_service(gate, current, baseline):
    """Job-server cache/crash-recovery smoke rows (bench_service.py)."""
    if current["workload"]["limit"] != baseline["workload"]["limit"]:
        gate.failures.append(
            f"workload mismatch: sweep limit "
            f"{current['workload']['limit']} vs baseline "
            f"{baseline['workload']['limit']} — regenerate the baseline "
            f"with the CI flags"
        )
        return
    # Correctness invariants first — these are hard, not tolerances.
    for name, value in (
        ("cache-hit byte_identical", current["cache_hit"]["byte_identical"]),
        ("crash-resume byte_identical",
         current["crash_resume"]["byte_identical"]),
        ("first submission uncached", not current["cold"]["cached"]),
        ("resubmission cached", current["cache_hit"]["cached"]),
    ):
        if not value:
            gate.failures.append(f"{name} invariant violated")
        else:
            gate.lines.append(f"  ok   {name}")
    gate.check_count(
        "crash-resume duplicate evaluations",
        current["crash_resume"]["duplicate_evaluations"],
        0,
    )
    gate.check_count(
        "journaled candidates",
        current["crash_resume"]["journaled_candidates"],
        baseline["crash_resume"]["journaled_candidates"],
    )
    gate.check_count(
        "candidates evaluated",
        current["workload"]["evaluated"],
        baseline["workload"]["evaluated"],
    )
    # Cache-hit latency relative to the cold run of the same process: a
    # shrinking speedup means cache lookups got slower or cold runs
    # faster-by-doing-less; either way, look.
    _wall_ratio(
        gate,
        "cache-hit/cold wall-time ratio",
        current["cache_hit"]["seconds"], current["cold"]["seconds"],
        baseline["cache_hit"]["seconds"], baseline["cold"]["seconds"],
    )


def check_absint(gate, current, baseline):
    """Residue-pressure tightness/pruning/fast-path rows (bench_absint.py)."""
    sweep = current["sweep"]
    base_sweep = baseline["sweep"]
    if current["workload"]["candidates"] != baseline["workload"]["candidates"]:
        gate.failures.append(
            f"candidate-set mismatch: current sweep enumerates "
            f"{current['workload']['candidates']} candidates, baseline "
            f"{baseline['workload']['candidates']} — regenerate the "
            f"baseline with the CI flags"
        )
        return
    # Hard invariants first: both bounds are admissible, so the arms
    # must agree on the best area, and the interval arm must keep
    # clearing the acceptance floor on the pruning rate.
    for name, value in (
        ("sweep arms found identical best areas",
         sweep["best_area_identical"]),
        (f"interval prune rate >= floor "
         f"({sweep['prune_rate_interval']:.0%} vs "
         f"{sweep['prune_rate_floor']:.0%})",
         sweep["prune_rate_interval"] >= sweep["prune_rate_floor"]),
    ):
        if not value:
            gate.failures.append(f"{name} invariant violated")
        else:
            gate.lines.append(f"  ok   {name}")
    for subject in current["fastpath"]["subjects"]:
        if not subject["checker_ok"]:
            gate.failures.append(
                f"fast-path proof for {subject['name']} rejected by the "
                f"independent checker"
            )
        else:
            gate.lines.append(
                f"  ok   fast-path proofs checker-verified "
                f"({subject['name']})"
            )
    gate.check_quality("best_area", sweep["best_area"],
                       base_sweep["best_area"])
    # Deterministic work counters: the bounds and the serial pruned
    # sweep reproduce bit-for-bit, so evaluation counts growing means
    # a bound got weaker.
    for arm in ("averaging", "interval"):
        gate.check_count(
            f"{arm}-arm candidates evaluated",
            sweep[arm]["evaluated"],
            base_sweep[arm]["evaluated"],
        )
        gate.check_count(f"{arm}-arm failed jobs", sweep[arm]["failed"], 0)
    # Tightness and fast-path coverage may only shrink by losing bound
    # strength — also deterministic, so no tolerance.
    for name, cur, base in (
        ("strictly-tighter candidates",
         current["tightness"]["strictly_tighter"],
         baseline["tightness"]["strictly_tighter"]),
        ("interval fast-path proofs",
         current["fastpath"]["interval_proofs"],
         baseline["fastpath"]["interval_proofs"]),
    ):
        if cur < base:
            gate.failures.append(f"{name}: {cur} vs baseline {base}")
        else:
            gate.lines.append(f"  ok   {name}: {cur} vs baseline {base}")
    _wall_ratio(
        gate,
        "interval/averaging sweep wall-time ratio",
        sweep["interval"]["wall_time"], sweep["averaging"]["wall_time"],
        base_sweep["interval"]["wall_time"],
        base_sweep["averaging"]["wall_time"],
    )


def check_kernels(gate, current, baseline):
    """Per-kernel micro rows and engine/reference end-to-end rows
    (bench_kernels.py)."""
    base_kernels = {
        (row["name"], row["processes"]): row for row in baseline["kernels"]
    }
    matched = 0
    for row in current["kernels"]:
        key = (row["name"], row["processes"])
        base = base_kernels.get(key)
        if base is None:
            gate.skip(f"no baseline kernel row for {key}")
            continue
        workload = ("batch", "scalar_loops", "vector_loops")
        if any(row[field] != base[field] for field in workload):
            gate.failures.append(
                f"kernel {key} workload mismatch: batch/scalar/vector loops "
                f"{'/'.join(str(row[field]) for field in workload)} vs "
                f"baseline {'/'.join(str(base[field]) for field in workload)}"
                " — regenerate the baseline"
            )
            continue
        matched += 1
        # Each arm loops its own count; the ratio is per loop, and the
        # noise floor applies to the measured total of every arm.
        name = f"{row['name']}@{row['processes']}p vector/scalar per-loop ratio"
        totals = [
            arm[f"{side}_s_per_loop"] * arm[f"{side}_loops"]
            for arm in (row, base)
            for side in ("vector", "scalar")
        ]
        if min(totals) < NOISE_FLOOR_SECONDS:
            gate.skip(f"{name}: runtimes below {NOISE_FLOOR_SECONDS}s noise floor")
            continue
        gate.check_ratio(
            name,
            row["vector_s_per_loop"] / row["scalar_s_per_loop"],
            base["vector_s_per_loop"] / base["scalar_s_per_loop"],
        )
    base_rows = {row["processes"]: row for row in baseline["end_to_end"]}
    for row in current["end_to_end"]:
        base = base_rows.get(row["processes"])
        if base is None:
            gate.skip(f"no baseline end-to-end row for "
                      f"processes={row['processes']}")
            continue
        matched += 1
        label = f"[{row['processes']}p]"
        if _arm_parity(gate, label, row):
            _engine_vs_reference(gate, label, row, base)
    if matched == 0:
        gate.failures.append("no kernel rows matched the baseline")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kind",
        choices=("scaling", "sweep", "kernels", "scale", "service", "absint"),
        required=True,
    )
    parser.add_argument("--current", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline JSON")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional growth (default 0.25)")
    args = parser.parse_args(argv)

    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    gate = Gate(args.tolerance)
    if args.kind == "scaling":
        check_scaling(gate, current, baseline)
    elif args.kind == "kernels":
        check_kernels(gate, current, baseline)
    elif args.kind == "scale":
        check_scale(gate, current, baseline)
    elif args.kind == "service":
        check_service(gate, current, baseline)
    elif args.kind == "absint":
        check_absint(gate, current, baseline)
    else:
        check_sweep(gate, current, baseline)

    print(f"bench-regression gate ({args.kind}): "
          f"{args.current} vs {args.baseline}")
    for line in gate.lines:
        print(line)
    if gate.failures:
        print(f"REGRESSION: {len(gate.failures)} check(s) failed "
              f"(tolerance {args.tolerance:.0%})")
        for failure in gate.failures:
            print(f"  - {failure}")
        return 1
    print("no regression detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
