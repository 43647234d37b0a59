import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nmesolve as nme
from helpers import MALFORMED_PROBLEMS, conjugate_inconsistent_shift
from nmesolve import serialize
from nmesolve import cli
from nmesolve.cli import cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spy_configs(monkeypatch) -> list:
    """The SolverConfig of each run_experiment call that the CLI makes."""
    configs, run = [], cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment",
                        lambda record, algorithms, config: configs.append(config)
                        or run(record, algorithms, config))
    return configs


class TestGenerate:
    def test_stdout_zero_rho(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--n", "1", "--rho", "0", "--seed", "1")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 1
        assert data["A"] == [0]

    def test_deterministic_bytes(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(capsys, "generate", "--n", "5", "--rho", "0.7", "--seed", "9",
                       "--out", str(p1))[0] == 0
        assert run_cli(capsys, "generate", "--n", "5", "--rho", "0.7", "--seed", "9",
                       "--out", str(p2))[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_flags(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--n", "2")
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_conditioning(self, capsys, value):
        code, out, err = run_cli(capsys, "generate", "--n", "2", "--rho", "0.5",
                                 "--conditioning", value)
        assert code == 2
        assert out == ""
        assert "conditioning must be finite" in err


class TestSolve:
    def test_report_and_history(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        history = tmp_path / "h.csv"
        run_cli(capsys, "generate", "--n", "4", "--rho", "0.6", "--seed", "3",
                "--out", str(problem))
        code, out, _ = run_cli(capsys, "solve", str(problem), "--algorithm", "newton",
                               "--history", str(history))
        assert code == 0
        report = json.loads(out)
        assert report["converged"] is True
        assert report["algorithm"] == "newton"
        assert report["rel_residual"] <= 1e-12
        assert len(report["X"]) == 16
        lines = history.read_text().splitlines()
        assert lines[0] == "k,rel_residual,step_norm,aux1,aux2"
        assert len(lines) == 1 + report["iterations"]

    def test_history_only_with_the_flag(self, tmp_path, capsys, monkeypatch):
        # the rate comes from the step sizes of every run, so the report is the
        # same without history, which only --history turns on
        problem, history = tmp_path / "p.json", tmp_path / "h.csv"
        nme.save_problem(nme.new_problem([[1.0]], [[2.0]]), problem)
        configs = spy_configs(monkeypatch)
        code, out, _ = run_cli(capsys, "solve", str(problem))
        assert code == 0 and not history.exists()
        assert run_cli(capsys, "solve", str(problem), "--history", str(history))[1] == out
        assert [cfg.record_history for cfg in configs] == [False, True]
        report = json.loads(out)
        assert report["rate_kind"] == "linear" and report["rate"] == pytest.approx(0.5, abs=0.02)
        assert len(history.read_text().splitlines()) == 1 + report["iterations"]

    def test_deterministic_report(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        run_cli(capsys, "generate", "--n", "3", "--rho", "0.4", "--seed", "4",
                "--out", str(problem))
        o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_cli(capsys, "solve", str(problem), "--out", str(o1))
        run_cli(capsys, "solve", str(problem), "--out", str(o2))
        assert o1.read_bytes() == o2.read_bytes()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        problem = tmp_path / "bad.json"
        nme.save_problem(nme.new_problem([[1.0]], [[1.5]]), problem)
        code, out, err = run_cli(capsys, "solve", str(problem), "--algorithm", "sda")
        assert code == 1
        assert "error" in err
        report = json.loads(out)
        assert report["converged"] is False
        assert report["failure"]

    @pytest.mark.parametrize("algorithm", [a.value for a in nme.Algorithm])
    def test_failure_prints_the_residual_of_its_x(self, tmp_path, capsys, algorithm):
        # rel_residual is the one the run took of the X it reports
        problem = tmp_path / "p.json"
        run_cli(capsys, "generate", "--n", "8", "--rho", "0.999", "--out", str(problem))
        code, out, _ = run_cli(capsys, "solve", str(problem), "--algorithm", algorithm,
                               "--max-iter", "3")
        report = json.loads(out)
        assert code == 1 and report["converged"] is False and report["iterations"] == 3
        X = np.array(report["X"]).reshape(8, 8)
        assert report["rel_residual"] == nme.residual(nme.load_problem(problem), X).rel_norm

    @pytest.mark.parametrize("tol", ["inf", "1"])
    def test_tol_outside_the_unit_interval_exit_code(self, tmp_path, capsys, tol):
        # at tol >= 1 the unsolvable q < 2|a| problem would converge at once
        problem = tmp_path / "p.json"
        nme.save_problem(nme.new_problem([[3.0]], [[1.0]]), problem)
        code, out, err = run_cli(capsys, "solve", str(problem), "--tol", tol)
        assert code == 2 and out == "" and "tol must lie in (0, 1)" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent/p.json")
        assert code == 2

    @pytest.mark.parametrize("name", sorted(MALFORMED_PROBLEMS))
    def test_malformed_file_exit_code(self, tmp_path, capsys, name):
        problem = tmp_path / "bad.json"
        problem.write_text(MALFORMED_PROBLEMS[name])
        code, out, err = run_cli(capsys, "solve", str(problem))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(problem) in err

    def test_nan_rejected(self, tmp_path, capsys):
        problem = tmp_path / "nan.json"
        problem.write_text('{"n": 1, "A": [NaN], "Q": [1.0]}')
        code, _, _ = run_cli(capsys, "solve", str(problem))
        assert code == 2

    def test_non_finite_problem_exit_code(self, tmp_path, capsys, monkeypatch):
        # load_problem rejects NaN itself; this checks the CLI's mapping of
        # the in-memory rejection
        monkeypatch.setattr("nmesolve.cli.load_problem",
                            lambda path: nme.new_problem([[float("inf")]], [[1.0]]))
        code, _, err = run_cli(capsys, "solve", str(tmp_path / "p.json"))
        assert code == 2
        assert "NaN/Inf" in err


class TestBench:
    def test_records_no_history(self, tmp_path, capsys, monkeypatch):
        # the linear rate column comes from the step sizes, with history off
        configs = spy_configs(monkeypatch)
        code, out, _ = run_cli(capsys, "bench", "--rho", "0.9", "--n", "2",
                               "--algorithms", "fixed-point")
        assert code == 0 and [cfg.record_history for cfg in configs] == [False]
        rate = float(out.splitlines()[1].split(",")[5])
        assert rate == pytest.approx(0.81, abs=0.02)  # rho^2

    def test_grid_and_monotonicity(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--rho", "0.3,0.6,0.9", "--n", "2",
                             "--seed", "5", "--algorithms", "fixed-point,sda",
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "algorithm,n,rho,iterations,final_residual,estimated_rate,converged"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        fp_iters = [int(r[3]) for r in rows if r[0] == "fixed-point"]
        assert fp_iters == sorted(fp_iters)  # nondecreasing in rho
        sda_iters = [int(r[3]) for r in rows if r[0] == "sda"]
        assert all(s <= f for s, f in zip(sda_iters, fp_iters))

    def test_converged_column(self, tmp_path, capsys):
        # a budget-exhausted run must not read like a success
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--rho", "0.999", "--n", "8",
                             "--algorithms", "fixed-point,newton", "--max-iter", "50",
                             "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()[1:]
        rows = {row[0]: row for row in (line.split(",") for line in lines)}
        assert rows["fixed-point"][3] == "50" and rows["fixed-point"][6] == "false"
        assert rows["newton"][6] == "true"

    def test_unknown_algorithm(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--algorithms", "sda,bogus")
        assert (code, out) == (2, "") and "unknown algorithm 'bogus'" in err

    def test_deterministic_bytes(self, tmp_path, capsys):
        argv = ["bench", "--rho", "0.4,0.8", "--n", "2,3", "--seed", "1",
                "--algorithms", "sda"]
        c1, c2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        run_cli(capsys, *argv, "--out", str(c1))
        run_cli(capsys, *argv, "--out", str(c2))
        assert c1.read_bytes() == c2.read_bytes()


class TestVerifyShift:
    def test_spectra_csv(self, tmp_path, capsys):
        pen = nme.build_pencil(nme.new_problem([[1.0]], [[2.0]]))
        pen_path = tmp_path / "pen.json"
        spec_path = tmp_path / "spec.json"
        nme.save_pencil(pen, pen_path)
        serialize.dump_json({"V": [1.0, 0.0, 1.0, 0.0],
                             "lambda": [1.0, 0.0],
                             "lambda_hat": [0.9, 0.0],
                             "R1": [-0.1, 0.0, 0.0, 0.0]}, spec_path)
        code, out, _ = run_cli(capsys, "verify-shift", str(pen_path), str(spec_path))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "re,im,moved"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4  # 2 before + 2 after
        before, after = rows[:2], rows[2:]
        assert sum(int(r[2]) for r in before) == 1
        assert sum(int(r[2]) for r in after) == 1
        moved_to = [float(r[0]) for r in after if r[2] == "1"]
        assert moved_to[0] == pytest.approx(0.9, abs=1e-7)

    def test_real_pencil_file_spectrum_is_real(self, tmp_path, capsys):
        # a real pencil file gets a real QZ: its defective pair at 1 reads 1 + 0i
        pen_path = tmp_path / "pen.json"
        spec_path = tmp_path / "spec.json"
        nme.save_pencil(nme.build_pencil(nme.new_problem([[1.0]], [[2.0]])), pen_path)
        serialize.dump_json({"V": [1.0, 0.0, 1.0, 0.0], "lambda": [1.0, 0.0],
                             "lambda_hat": [0.9, 0.0]}, spec_path)
        code, out, _ = run_cli(capsys, "verify-shift", str(pen_path), str(spec_path))
        assert code == 0
        before = [line.split(",") for line in out.splitlines()[1:3]]
        assert [float(r[1]) for r in before] == [0.0, 0.0]
        assert [float(r[0]) for r in before] == pytest.approx([1.0, 1.0], abs=1e-7)

    def test_conjugate_inconsistent_spec_file_is_refused(self, tmp_path, capsys):
        # conjugate-closed targets with a spec-file R1 that is not conjugate
        # consistent would turn the real pencil complex
        pen, spec = conjugate_inconsistent_shift()
        pen_path = tmp_path / "pen.json"
        spec_path = tmp_path / "spec.json"
        nme.save_pencil(pen, pen_path)
        serialize.dump_json({key: np.ascontiguousarray(F, complex).ravel().view(float).tolist()
                             for key, F in (("V", spec.V), ("lambda", spec.lam),
                                            ("lambda_hat", spec.lam_hat), ("R1", spec.R1))},
                            spec_path)
        code, out, err = run_cli(capsys, "verify-shift", str(pen_path), str(spec_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: the shift of a real pencil keeps max |Im F| = ")

    def test_empty_spec_is_typed_failure(self, tmp_path, capsys):
        pen_path = tmp_path / "pen.json"
        spec_path = tmp_path / "spec.json"
        nme.save_pencil(nme.build_pencil(nme.new_problem([[1.0]], [[2.0]])), pen_path)
        serialize.dump_json({"V": [], "lambda": [], "lambda_hat": [], "R1": []}, spec_path)
        code, _, err = run_cli(capsys, "verify-shift", str(pen_path), str(spec_path))
        assert code == 1
        assert "V has no columns: there is no eigenvalue to shift" in err

    @pytest.mark.parametrize("field", ["V", "M"])
    def test_object_entry_exit_code(self, tmp_path, capsys, field):
        pen_path = tmp_path / "pen.json"
        spec_path = tmp_path / "spec.json"
        nme.save_pencil(nme.build_pencil(nme.new_problem([[1.0]], [[2.0]])), pen_path)
        spec = {"V": [1.0, 0.0, 1.0, 0.0], "lambda": [1.0, 0.0], "lambda_hat": [0.9, 0.0]}
        pencil = json.loads(pen_path.read_text())
        (spec if field == "V" else pencil)[field][0] = {"x": 1}
        pen_path.write_text(json.dumps(pencil))
        spec_path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "verify-shift", str(pen_path), str(spec_path))
        assert code == 2
        assert err.startswith(f"error: {spec_path if field == 'V' else pen_path}: {field} ")

    def test_bad_pencil_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{}")
        code, _, _ = run_cli(capsys, "verify-shift", str(spec_path), str(spec_path))
        assert code == 2


def critical_draws(count, seed):
    """a = ±10^U(-2, 2), as the bench draws its critical scalar jobs."""
    rng = np.random.default_rng(seed)
    return [float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)) for _ in range(count)]


class TestScalarCritical:
    def test_critical_comparison(self, capsys):
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", "1", "--q", "2")
        assert code == 0
        hit = re.search(r"iterations-to-error-1e-12=(\d+)", out)
        assert hit is not None
        assert 38 <= int(hit.group(1)) <= 42
        # the closed-form shift leaves (0, 1), which doubling accepts at once
        assert re.findall(r"^shifted iterations=(\d+)$", out, re.M) == ["0"]
        assert "shifted x-plus=1.0 error=0.0" in out.splitlines()

    @pytest.mark.parametrize("exp", [-200, 200])
    def test_extreme_scales_match_unit_scale(self, capsys, exp):
        # x+ = (q + sqrt(q^2 - 4a^2)) / 2 loses q^2 and 4a^2 to underflow
        # (or overflow) unless a and q are divided down first
        _, unit, _ = run_cli(capsys, "scalar-critical", "--a", "1", "--q", "3")
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", f"1e{exp}", "--q", f"3e{exp}")
        assert code == 0
        hits = [re.search(r"iterations-to-error-1e-12=(\d+)", text).group(1)
                for text in (unit, out)]
        assert hits[0] == hits[1]
        err = float(re.search(r"final-error=(\S+)", out).group(1))
        assert err <= 1e-15 * 2.618 * 10.0 ** exp

    @pytest.mark.parametrize("a, q", [("inf", "inf"), ("nan", "nan"), ("1", "inf")])
    def test_non_finite_input(self, capsys, a, q):
        code, out, err = run_cli(capsys, "scalar-critical", "--a", a, "--q", q)
        assert code == 2
        assert out == ""
        assert f"error: a = {float(a)!r}, q = {float(q)!r}" in err

    def test_no_real_solution_fails_plain_doubling(self, capsys):
        # q < 2|a|: the doubling step's D loses positive definiteness, and
        # there is nothing for the shifted solve to solve
        code, out, err = run_cli(capsys, "scalar-critical", "--a", "2", "--q", "1")
        lines = out.splitlines()
        assert code == 1 and err == "" and len(lines) == 2
        assert lines[1].endswith(" converged=0 failure=DoublingBreakdown "
                                 "(no real solution: q^2 - 4a^2 < 0)")

    def test_no_real_solution_inside_the_criticality_tolerance(self, capsys):
        # q is 1e-11 below 2|a|: x + 1/x = q has no real root, and the
        # command stops before the shifted solve, which refuses it too
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", "1", "--q", "1.99999999999")
        assert code == 1
        assert out.splitlines()[-1].endswith("(no real solution: q^2 - 4a^2 < 0)")
        assert "shifted" not in out

    @pytest.mark.parametrize("a", [7.3, -17.909396718478327] + critical_draws(20, seed=5))
    def test_critical_draws_reach_the_shifted_solve(self, capsys, a):
        # off dyadic data, plain doubling held past convergence (min_iter 45)
        # breaks down near step 30; its partial run is reported and the
        # shifted solve still runs
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", repr(a), "--q", repr(2 * abs(a)))
        assert code == 0
        plain = next(line for line in out.splitlines() if line.startswith("plain-sda "))
        assert plain.endswith((" converged=1", " failure=DoublingBreakdown"))
        x_plus = float(re.search(r"shifted x-plus=(\S+)", out).group(1))
        assert abs(x_plus - abs(a)) <= 1e-12 * abs(a)

    def test_error_target_not_reached(self, capsys):
        # one ulp above critical, x+ = 1 + 2.1e-8; plain doubling ends 2e-9 from it
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", "1", "--q", "2.0000000000000004")
        assert code == 0 and "iterations-to-error-1e-12=not-reached" in out

    def test_shifted_error_is_measured_against_the_root(self, capsys):
        # one ulp above critical is 2|a| as rounded (within 4 eps q): the
        # shifted solve answers |a| = 1, 2.1e-8 from x+; 2e-8 above is refused
        _, out, _ = run_cli(capsys, "scalar-critical", "--a", "1", "--q", "2.0000000000000004")
        err = float(re.search(r"shifted x-plus=1\.0 error=(\S+)", out).group(1))
        assert err == pytest.approx(2.1073424560924536e-08, rel=1e-6)
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", "1", "--q", "2.00000002")
        assert code == 0 and "shifted not-applicable" in out and "x-plus" not in out

    def test_noncritical_skips_shifted(self, capsys):
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", "0.5", "--q", "2")
        assert code == 0
        assert "not-applicable" in out

    def test_tiny_a_with_large_q_skips_shifted(self, capsys):
        code, out, _ = run_cli(capsys, "scalar-critical", "--a", "1e-300", "--q", "1e10")
        assert code == 0
        assert "not-applicable" in out


def child_env(**extra):
    """Environment for a child interpreter that imports this copy of nmesolve."""
    parent = os.path.dirname(os.path.dirname(os.path.abspath(nme.__file__)))
    path = os.pathsep.join(p for p in (parent, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_module_entry_point(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nmesolve", "generate", "--n", "2", "--rho", "0.5",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert json.loads(out.read_text())["n"] == 2


def test_log_level_env_var(tmp_path):
    out = tmp_path / "p.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nmesolve", "generate", "--n", "2", "--rho", "0.5",
         "--seed", "0", "--out", str(out)],
        capture_output=True, text=True, env=child_env(NME_LOG="debug"))
    assert proc.returncode == 0
    assert "generated problem" in proc.stderr
