import math

import numpy as np
import pytest

import nmesolve as nme


class TestGeneratorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            nme.GeneratorSpec(n=0, rho_target=0.5)
        with pytest.raises(ValueError):
            nme.GeneratorSpec(n=2, rho_target=1.5)
        with pytest.raises(ValueError):
            nme.GeneratorSpec(n=2, rho_target=0.5, conditioning=0.5)

    @pytest.mark.parametrize("value", [True, "0.5", None, 0.5j])
    @pytest.mark.parametrize("name", ["rho_target", "conditioning"])
    def test_non_real_float_field_rejected(self, name, value):
        # numbers.Real passes a bool as 0 or 1, and a string met the range test
        # as a raw TypeError
        with pytest.raises(ValueError, match=name):
            nme.GeneratorSpec(**{"n": 2, "rho_target": 0.5, name: value})

    def test_bool_rho_and_conditioning_rejected(self):
        # True for both would plant rho = 1 with a unit spectrum
        with pytest.raises(ValueError, match="rho_target"):
            nme.GeneratorSpec(n=2, rho_target=True, conditioning=True)
        spec = nme.GeneratorSpec(n=2, rho_target=1, conditioning=np.float64(4.0))
        assert spec.rho_target == 1 and spec.conditioning == 4.0

    @pytest.mark.parametrize("conditioning", [math.nan, math.inf])
    def test_non_finite_conditioning_rejected(self, conditioning):
        # NaN passes a plain >= 1 test and would plant a unit spectrum; inf
        # overflows inside the generator
        with pytest.raises(ValueError, match="conditioning"):
            nme.GeneratorSpec(n=2, rho_target=0.5, conditioning=conditioning)


class TestGenerateProblem:
    def test_scalar_construction_relations(self):
        # for n = 1 the contraction is exactly rho, so A = rho X and
        # Q = (1 + rho^2) X
        rec = nme.generate_problem(nme.GeneratorSpec(n=1, rho_target=0.5, seed=7))
        X = rec.known_solution
        assert np.allclose(rec.problem.A, 0.5 * X)
        assert np.allclose(rec.problem.Q, 1.25 * X)
        assert nme.residual(rec.problem, X).rel_norm <= 1e-15

    def test_rho_zero_gives_zero_a(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.0, seed=3))
        assert np.array_equal(rec.problem.A, np.zeros((4, 4)))
        assert np.allclose(rec.problem.Q, rec.known_solution)
        nme.run_experiment(rec, list(nme.Algorithm))
        assert all(rep.iterations <= 1 for rep in rec.reports.values())

    def test_known_solution_self_consistency(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=10, rho_target=0.5, seed=42))
        assert nme.residual(rec.problem, rec.known_solution).rel_norm <= 1e-10
        nme.run_experiment(rec, list(nme.Algorithm))
        bound = 1e-8 * np.linalg.norm(rec.problem.Q)
        for rep in rec.reports.values():
            assert rep.converged
            assert np.linalg.norm(rep.X - rec.known_solution) <= bound

    def test_spectral_ratio_placed_exactly(self):
        for rho in (0.3, 0.9, 1.0):
            rec = nme.generate_problem(nme.GeneratorSpec(n=5, rho_target=rho, seed=1))
            got = nme.spectral_radius_ratio(rec.problem, rec.known_solution)
            assert got == pytest.approx(rho, abs=1e-10)

    def test_deterministic_in_seed(self):
        a = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.7, seed=5))
        b = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.7, seed=5))
        assert np.array_equal(a.problem.A, b.problem.A)
        assert np.array_equal(a.problem.Q, b.problem.Q)
        c = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.7, seed=6))
        assert not np.array_equal(a.problem.A, c.problem.A)

    def test_conditioning_spreads_solution_spectrum(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.5, seed=2,
                                                     conditioning=100.0))
        eigs = np.linalg.eigvalsh(rec.known_solution)
        assert eigs.min() >= 1.0 - 1e-12
        assert eigs.max() <= 100.0 + 1e-9

    @pytest.mark.parametrize("rho", [0.4, 1.0])
    def test_generated_problems_solvable(self, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=9))
        assert nme.solvability_check(rec.problem).verdict is nme.Verdict.SOLVABLE


class TestRunExperiment:
    def test_critical_sda_rate_one_half(self):
        # the rate comes from the step sizes of every run, with history off
        rec = nme.ExperimentRecord(problem=nme.new_problem([[1.0]], [[2.0]]))
        nme.run_experiment(rec, {nme.Algorithm.SDA})
        rep = rec.reports[nme.Algorithm.SDA]
        assert rep.converged and rep.history == []
        assert rep.estimated_rate.kind == "linear"
        assert rep.estimated_rate.rate == pytest.approx(0.5, abs=0.02)

    def test_failures_recorded_not_fatal(self):
        rec = nme.ExperimentRecord(problem=nme.new_problem([[1.0]], [[1.9]]))
        A_before = rec.problem.A.copy()
        nme.run_experiment(rec, list(nme.Algorithm))
        assert set(rec.reports) == set(nme.Algorithm)
        assert any(rep.failure for rep in rec.reports.values())
        for rep in rec.reports.values():
            if rep.failure:
                assert not rep.converged
        assert np.array_equal(rec.problem.A, A_before)

    def test_algorithms_by_name(self):
        # a name and its member are one algorithm; an unknown name raised AttributeError
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.5, seed=2))
        nme.run_experiment(rec, ["sda", nme.Algorithm.SDA])
        assert list(rec.reports) == [nme.Algorithm.SDA]
        assert rec.reports[nme.Algorithm.SDA].converged
        with pytest.raises(ValueError, match="unknown algorithm 'bogus'"):
            nme.run_experiment(rec, ["sda", "bogus"])

    def test_doubling_beats_fixed_point_count(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=10, rho_target=0.5, seed=21))
        nme.run_experiment(rec, {nme.Algorithm.FIXED_POINT, nme.Algorithm.SDA})
        fp = rec.reports[nme.Algorithm.FIXED_POINT].iterations
        sda = rec.reports[nme.Algorithm.SDA].iterations
        assert sda <= math.ceil(math.log2(fp)) + 3
