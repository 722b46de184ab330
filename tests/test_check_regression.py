"""Tests for the CI bench-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import pathlib

import pytest

_MODULE_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_regression.py"
)
spec = importlib.util.spec_from_file_location("check_regression", _MODULE_PATH)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)


def _arm(evals, wall, area=10.0, iterations=100):
    return {
        "area": area,
        "iterations": iterations,
        "force_evaluations": evals,
        "wall_time": wall,
    }


def _scaling_row(processes=2, evals=1000, wall=1.0):
    return {
        "processes": processes,
        "area": 10.0,
        "iterations": 100,
        "engine": _arm(evals, wall * 0.5),
        "reference": _arm(evals * 3, wall),
        "decisions_identical": True,
    }


def _scale_row(processes=10, wall=1.0, rescored=50, reference=True):
    row = {
        "processes": processes,
        "area": 10.0,
        "iterations": 100,
        "us_per_iteration": 1e6 * wall / 100,
        "engine": dict(_arm(1000, wall), selection_rescored=rescored),
    }
    if reference:
        row["reference"] = _arm(3000, 10 * wall)
        row["decisions_identical"] = True
    return row


def _sweep_report(evaluated=10, pruned_wall=0.5):
    return {
        "candidates": 16,
        "best_area": 6.0,
        "serial": {"failed": 0, "wall_time": 1.0},
        "parallel": {"failed": 0, "wall_time": 1.0},
        "parallel_pruned": {
            "failed": 0,
            "evaluated": evaluated,
            "wall_time": pruned_wall,
        },
    }


def _kernel_report(vector=0.01, kernel_wall=0.5):
    """One micro row: scalar 0.05 s/loop x 20 loops, vector ``vector``
    s/loop x 200 loops (both arm totals above the noise floor)."""
    return {
        "kernels": [
            {
                "name": "modulo_max",
                "processes": 6,
                "batch": 100,
                "scalar_loops": 20,
                "vector_loops": 200,
                "scalar_s_per_loop": 0.05,
                "vector_s_per_loop": vector,
                "speedup": 0.05 / vector,
            },
        ],
        "end_to_end": [
            {
                "processes": 6,
                "engine": _arm(1000, kernel_wall),
                "reference": _arm(3000, 1.0),
                "decisions_identical": True,
                "speedup": 1.0 / kernel_wall,
            },
        ],
    }


def _absint_report(evaluated=7, pruned=66, interval_wall=0.3):
    return {
        "workload": {"system": "paper", "candidates": 73, "global_types": 3},
        "tightness": {
            "candidates": 73,
            "strictly_tighter": 61,
            "mean_averaging_bound": 12.4,
            "mean_interval_bound": 17.6,
            "max_gain": 15.0,
        },
        "sweep": {
            "candidates": 73,
            "best_area": 13.0,
            "averaging": {
                "evaluated": 43,
                "pruned": 30,
                "failed": 0,
                "wall_time": 2.0,
            },
            "interval": {
                "evaluated": evaluated,
                "pruned": pruned,
                "failed": 0,
                "wall_time": interval_wall,
            },
            "prune_rate_interval": pruned / 73,
            "prune_rate_floor": 81 / 125,
            "best_area_identical": True,
        },
        "fastpath": {
            "subjects": [
                {
                    "name": "paper",
                    "types": 3,
                    "interval_proofs": 3,
                    "checker_ok": True,
                },
            ],
            "proofs": 3,
            "interval_proofs": 3,
            "hit_rate": 1.0,
        },
    }


def _run(tmp_path, kind, current, baseline, *extra):
    cur = tmp_path / "current.json"
    base = tmp_path / "baseline.json"
    cur.write_text(json.dumps(current), encoding="utf-8")
    base.write_text(json.dumps(baseline), encoding="utf-8")
    return check_regression.main(
        ["--kind", kind, "--current", str(cur), "--baseline", str(base), *extra]
    )


class TestScalingGate:
    def test_identical_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "scaling", [_scaling_row()], [_scaling_row()]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_eval_count_regression_fails(self, tmp_path, capsys):
        current = [_scaling_row(evals=1300)]  # +30% > 25% tolerance
        assert _run(tmp_path, "scaling", current, [_scaling_row()]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_growth_within_tolerance_passes(self, tmp_path, capsys):
        current = [_scaling_row(evals=1200)]  # +20% < 25% tolerance
        assert _run(tmp_path, "scaling", current, [_scaling_row()]) == 0
        capsys.readouterr()

    def test_wall_ratio_regression_fails(self, tmp_path, capsys):
        current = [_scaling_row()]
        current[0]["engine"]["wall_time"] = 0.9  # ratio 0.9 vs baseline 0.5
        assert _run(tmp_path, "scaling", current, [_scaling_row()]) == 1
        assert "wall-time ratio" in capsys.readouterr().out

    def test_area_regression_fails_without_tolerance(self, tmp_path, capsys):
        current = [_scaling_row()]
        current[0]["engine"]["area"] = 11.0
        current[0]["reference"]["area"] = 11.0
        assert _run(tmp_path, "scaling", current, [_scaling_row()]) == 1
        capsys.readouterr()

    def test_arm_parity_is_hard(self, tmp_path, capsys):
        current = [_scaling_row()]
        current[0]["decisions_identical"] = False
        assert _run(tmp_path, "scaling", current, [_scaling_row()]) == 1
        assert "arm parity violated" in capsys.readouterr().out

    def test_unmatched_rows_are_skipped_not_failed(self, tmp_path, capsys):
        current = [_scaling_row(processes=2), _scaling_row(processes=4)]
        assert _run(tmp_path, "scaling", current, [_scaling_row(processes=2)]) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_no_matched_rows_fails(self, tmp_path, capsys):
        current = [_scaling_row(processes=8)]
        assert _run(tmp_path, "scaling", current, [_scaling_row(processes=2)]) == 1
        capsys.readouterr()


class TestSweepGate:
    def test_identical_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "sweep", _sweep_report(), _sweep_report()) == 0
        capsys.readouterr()

    def test_pruning_erosion_fails(self, tmp_path, capsys):
        current = _sweep_report(evaluated=14)  # +40% more work
        assert _run(tmp_path, "sweep", current, _sweep_report()) == 1
        capsys.readouterr()

    def test_failed_jobs_fail_the_gate(self, tmp_path, capsys):
        current = _sweep_report()
        current["parallel"]["failed"] = 1
        assert _run(tmp_path, "sweep", current, _sweep_report()) == 1
        capsys.readouterr()

    def test_candidate_set_mismatch_demands_new_baseline(self, tmp_path, capsys):
        current = _sweep_report()
        current["candidates"] = 99
        assert _run(tmp_path, "sweep", current, _sweep_report()) == 1
        assert "regenerate the baseline" in capsys.readouterr().out

    def test_noise_floor_skips_tiny_wall_times(self, tmp_path, capsys):
        current = _sweep_report(pruned_wall=0.04)
        current["parallel"]["wall_time"] = 0.04
        baseline = _sweep_report(pruned_wall=0.01)
        baseline["parallel"]["wall_time"] = 0.04
        assert _run(tmp_path, "sweep", current, baseline) == 0
        assert "noise floor" in capsys.readouterr().out

    def test_custom_tolerance(self, tmp_path, capsys):
        current = _sweep_report(evaluated=11)  # +10%
        assert (
            _run(
                tmp_path, "sweep", current, _sweep_report(),
                "--tolerance", "0.05",
            )
            == 1
        )
        capsys.readouterr()


class TestKernelsGate:
    def test_identical_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "kernels", _kernel_report(), _kernel_report()) == 0
        assert "no regression" in capsys.readouterr().out

    def test_vector_slowdown_fails(self, tmp_path, capsys):
        current = _kernel_report(vector=0.02)  # ratio doubled vs baseline
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 1
        assert "vector/scalar per-loop ratio" in capsys.readouterr().out

    def test_vector_arm_below_noise_floor_is_skipped(self, tmp_path, capsys):
        # 200 loops x 0.0002 s = 0.04 s: the vector arm's total is under
        # the floor, so even a doubled ratio is not judged.
        current = _kernel_report(vector=0.0004)
        baseline = _kernel_report(vector=0.0002)
        assert _run(tmp_path, "kernels", current, baseline) == 0
        assert "noise floor" in capsys.readouterr().out

    def test_loop_count_mismatch_demands_new_baseline(self, tmp_path, capsys):
        current = _kernel_report()
        current["kernels"][0]["vector_loops"] = 400
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 1
        assert "regenerate the baseline" in capsys.readouterr().out

    def test_end_to_end_slowdown_fails(self, tmp_path, capsys):
        current = _kernel_report(kernel_wall=0.9)
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 1
        assert "engine/reference" in capsys.readouterr().out

    def test_eval_count_regression_fails(self, tmp_path, capsys):
        current = _kernel_report()
        current["end_to_end"][0]["engine"]["force_evaluations"] = 1300
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 1
        capsys.readouterr()

    def test_workload_mismatch_demands_new_baseline(self, tmp_path, capsys):
        current = _kernel_report()
        current["kernels"][0]["batch"] = 999
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 1
        assert "regenerate the baseline" in capsys.readouterr().out

    def test_unmatched_rows_are_skipped_not_failed(self, tmp_path, capsys):
        current = _kernel_report()
        current["kernels"].append(dict(current["kernels"][0], processes=12))
        current["end_to_end"].append(
            dict(current["end_to_end"][0], processes=12)
        )
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 0
        assert "SKIP" in capsys.readouterr().out

    def test_no_matched_rows_fails(self, tmp_path, capsys):
        current = _kernel_report()
        current["kernels"][0]["processes"] = 12
        current["end_to_end"][0]["processes"] = 12
        assert _run(tmp_path, "kernels", current, _kernel_report()) == 1
        capsys.readouterr()


class TestScaleGate:
    def _rows(self, large_wall=2.0, **small):
        return [
            _scale_row(**small),
            _scale_row(processes=20, wall=large_wall, reference=False),
        ]

    def test_identical_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "scale", self._rows(), self._rows()) == 0
        assert "no regression" in capsys.readouterr().out

    def test_arm_parity_is_hard(self, tmp_path, capsys):
        current = self._rows()
        current[0]["reference"]["iterations"] = 101
        assert _run(tmp_path, "scale", current, self._rows()) == 1
        assert "arm parity violated" in capsys.readouterr().out

    def test_missing_reference_arm_fails(self, tmp_path, capsys):
        current = self._rows(reference=False)
        assert _run(tmp_path, "scale", current, self._rows()) == 1
        assert "reference arm missing" in capsys.readouterr().out

    def test_dirty_cone_growth_fails(self, tmp_path, capsys):
        current = self._rows(rescored=70)
        assert _run(tmp_path, "scale", current, self._rows()) == 1
        assert "selection_rescored" in capsys.readouterr().out

    def test_per_iteration_cost_growth_fails(self, tmp_path, capsys):
        current = self._rows(large_wall=3.0)  # growth 3x vs baseline 2x
        assert _run(tmp_path, "scale", current, self._rows()) == 1
        assert "us/iteration growth" in capsys.readouterr().out


class TestAbsintGate:
    def test_identical_run_passes(self, tmp_path, capsys):
        assert _run(tmp_path, "absint", _absint_report(), _absint_report()) == 0
        assert "no regression" in capsys.readouterr().out

    def test_pruning_erosion_fails(self, tmp_path, capsys):
        current = _absint_report(evaluated=10)  # +40% more work
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        capsys.readouterr()

    def test_prune_rate_floor_is_hard(self, tmp_path, capsys):
        current = _absint_report(pruned=40)  # 55% < 65% floor
        current["sweep"]["prune_rate_interval"] = 40 / 73
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        assert "floor" in capsys.readouterr().out

    def test_arm_parity_is_hard(self, tmp_path, capsys):
        current = _absint_report()
        current["sweep"]["best_area_identical"] = False
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        assert "identical best areas" in capsys.readouterr().out

    def test_checker_rejection_is_hard(self, tmp_path, capsys):
        current = _absint_report()
        current["fastpath"]["subjects"][0]["checker_ok"] = False
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        assert "rejected by the independent checker" in capsys.readouterr().out

    def test_tightness_loss_fails_without_tolerance(self, tmp_path, capsys):
        current = _absint_report()
        current["tightness"]["strictly_tighter"] = 60
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        capsys.readouterr()

    def test_fastpath_loss_fails_without_tolerance(self, tmp_path, capsys):
        current = _absint_report()
        current["fastpath"]["interval_proofs"] = 2
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        capsys.readouterr()

    def test_wall_ratio_regression_fails(self, tmp_path, capsys):
        current = _absint_report(interval_wall=1.0)  # ratio 0.5 vs 0.15
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        assert "interval/averaging" in capsys.readouterr().out

    def test_candidate_set_mismatch_demands_new_baseline(self, tmp_path, capsys):
        current = _absint_report()
        current["workload"]["candidates"] = 99
        assert _run(tmp_path, "absint", current, _absint_report()) == 1
        assert "regenerate the baseline" in capsys.readouterr().out


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", [
        "BENCH_scaling_smoke.json",
        "BENCH_sweep_smoke.json",
        "BENCH_kernel_smoke.json",
        "BENCH_scale_smoke.json",
        "BENCH_service_smoke.json",
        "BENCH_absint_smoke.json",
    ])
    def test_baseline_files_parse(self, name):
        path = _MODULE_PATH.parent / "baselines" / name
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data
