"""Tests of the benchmark itself: metric rules, output checks, tracing.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import jobs
import summary
import tracing
from nmesolve import solvers
from nmesolve.problem import new_problem
from nmesolve.solvers import SolveReport

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


# --- job_s_tail percentile rule ---------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = summary.tail([float(v) for v in range(100, 0, -1)])
    assert (value, percentile, beyond) == (90.0, 90.0, 10)


def test_tail_with_eleven_samples_is_the_minimum():
    value, percentile, beyond = summary.tail(list(range(11)))
    assert value == 0 and beyond == 10
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_of_ten_samples_or_fewer_is_the_maximum():
    assert summary.tail([3.0, 9.0, 1.0]) == (9.0, 100.0, 0)
    with pytest.raises(ValueError):
        summary.tail([])


def test_timings_take_each_job_at_its_best_pass():
    ok = jobs.Outcome(3, 1e-12)
    # two jobs; the second pass is slowed by other load, the third is not
    passes = [[(0.10, ok), (0.30, ok)], [(0.50, ok), (0.90, ok)], [(0.12, ok), (0.28, ok)]]
    metrics, percentile, beyond = summary.end_to_end(passes, [0.4, 0.6, 0.5], 2048)
    assert metrics["jobs_per_s"] == pytest.approx(2 / (0.10 + 0.28))
    assert metrics["job_s_p50"] == pytest.approx((0.10 + 0.28) / 2)
    assert (metrics["job_s_tail"], percentile, beyond) == (0.28, 100.0, 0)
    assert metrics["setup_s"] == 0.5 and metrics["peak_rss_mb"] == 2.0
    assert metrics["iters_total"] == 6.0 and metrics["ok_frac"] == 1.0


def test_setup_probes_are_spread_over_the_passes():
    import run

    assert run.probe_schedule(14, 7) == [0, 1] * 7
    assert sum(run.probe_schedule(51, 7)) == 7
    assert run.probe_schedule(2, 7) == [3, 4]


# --- failure classifier -------------------------------------------------------

X_PLUS = np.diag([1.0, 2.0, 3.0])


def _report(X, converged=True, iterations=5):
    return SolveReport(X=np.asarray(X, dtype=float), iterations=iterations, converged=converged)


def test_accurate_report_passes():
    outcome = jobs.check_report(_report(X_PLUS * (1 + 1e-12)), X_PLUS)
    assert not outcome.failed and outcome.iterations == 5
    assert jobs.error_digits(outcome.fwd_err) == pytest.approx(12.0, abs=1e-3)


def test_nan_x_is_non_finite():
    X = X_PLUS.copy()
    X[0, 1] = math.nan
    outcome = jobs.check_report(_report(X), X_PLUS)
    assert outcome.reasons == ("non-finite",)
    assert jobs.error_digits(outcome.fwd_err) == 0.0


def test_not_converged_fails_even_when_accurate():
    assert jobs.check_report(_report(X_PLUS, converged=False), X_PLUS).reasons == ("not-converged",)


def test_forward_error_1e_7_is_inaccurate():
    outcome = jobs.check_report(_report(X_PLUS * (1 + 1e-7)), X_PLUS)
    assert outcome.reasons == ("inaccurate",)
    assert outcome.fwd_err == pytest.approx(1e-7)


def test_raised_exception_is_a_counted_failure():
    def call():
        raise ValueError("boom")

    job = jobs.Job("raises", call, lambda result, exc: jobs.raised(exc, X_PLUS))
    seconds, outcome = jobs.execute(job)
    assert seconds >= 0.0
    assert outcome.reasons == ("raised:ValueError",)


def test_raised_solver_failure_keeps_its_partial_report():
    problem = new_problem([[0.999]], [[2.0]])
    job = jobs.solve_job("solve_fixed_point", problem, np.array([[1.0]]), 3, "budget")
    _, outcome = jobs.execute(job)
    assert outcome.reasons[0] == "raised:MaxIterationsExceeded"
    assert "not-converged" in outcome.reasons
    assert outcome.iterations == 3


def test_known_defects_are_limited_to_critical_shift():
    rho_one = jobs.Outcome(19, 4e-7, ("inaccurate",))
    assert jobs.is_known_defect("critical-shift", rho_one)
    assert not jobs.is_known_defect("sda-dense", rho_one)
    assert not jobs.is_known_defect("critical-shift", jobs.Outcome(19, 1e-3, ("inaccurate",)))
    assert not jobs.is_known_defect("critical-shift", jobs.Outcome(0, math.nan, ("raised:X",)))
    repeated = jobs.Outcome(19, 4e-7, ("inaccurate", "raised:RepeatedEigenvalue"))
    assert jobs.is_known_defect("critical-shift", repeated)
    assert not jobs.is_known_defect("critical-shift", jobs.Outcome(19, 1e-9, ()))


def test_missing_shift_target_fails_the_critical_check():
    trial = jobs.CriticalTrial(report=_report(X_PLUS), targets=np.array([0.9]),
                               spectrum=np.array([0.9 + 1e-3, 2.0]))
    assert jobs.check_critical(trial, X_PLUS).reasons == ("target-missing",)
    trial.spectrum = np.array([0.9 + 1e-9, 2.0])
    assert not jobs.check_critical(trial, X_PLUS).failed


# --- self time --------------------------------------------------------------

NAMES = [tracing.JOB_SPAN, "numpy.linalg.solve"]


def _span(start, end, parent, job=7):
    return [0 if parent < 0 else 1, start, end, parent, job, None]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, 100, -1),   # job root
        _span(10, 40, 0),    # solver
        _span(20, 30, 1),    # kernel inside the solver
        _span(50, 90, 0),    # second call from the job
        _span(55, 70, 3),
    ]
    own = tracing.self_times(spans)
    assert own == [30, 20, 10, 25, 15]
    assert sum(own) == 100
    assert tracing.job_self_time_mismatches(spans, own, NAMES) == []


def test_overlapping_children_are_covered_once_and_clipped():
    spans = [_span(0, 100, -1), _span(10, 50, 0), _span(40, 60, 0), _span(90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_self_time_mismatch_is_reported():
    spans = [_span(0, 100, -1), _span(10, 40, 0), _span(20, 30, 1)]
    own = tracing.self_times(spans)
    own[1] += 1
    assert tracing.job_self_time_mismatches(spans, own, NAMES) == [7]


# --- wrappers ----------------------------------------------------------------

def test_wrappers_record_spans_and_are_restored():
    original = np.linalg.solve
    lu_factor = scipy.linalg.lu_factor
    solve_stein = solvers.solve_stein
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert np.linalg.solve is not original
        assert sorted(tracer.unrestored()) == sorted(tracer.names[1:])
        tracer.open_job(0)
        np.linalg.solve(np.eye(3), np.ones((3, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(-np.eye(2))
        tracer.close_job()
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    assert np.linalg.solve is original
    assert scipy.linalg.lu_factor is lu_factor
    assert solvers.solve_stein is solve_stein
    names = [tracer.names[s[tracing.NAME]] for s in tracer.spans]
    assert names == ["job", "numpy.linalg.solve", "numpy.linalg.cholesky"]
    assert tracer.spans[1][tracing.PARENT] == 0 and tracer.spans[2][tracing.PARENT] == 0
    assert tracer.spans[1][tracing.EXTRA] == pytest.approx(2 * 27 / 3 + 2 * 9 * 2)
    own = tracing.self_times(tracer.spans)
    assert tracing.job_self_time_mismatches(tracer.spans, own, tracer.names) == []


# --- the command against its contract ---------------------------------------

def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == summary.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_prints_every_per_layer_metric():
    out = _run(ROOT, "--workload", "critical-shift", "--seed", "3", "--seconds", "1",
               "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(tracing.PER_LAYER_UNITS)
    assert result["metrics"]["problem.solvability_check.calls"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "sda-dense", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
