import math

import numpy as np
import pytest
import scipy.linalg

import nmesolve as nme
from helpers import min_eig, scalar_x_plus
from nmesolve.exceptions import (
    Diverged,
    DoublingBreakdown,
    InsufficientHistory,
    LostPositiveDefiniteness,
    MaxIterationsExceeded,
    NotPositiveDefinite,
    SingularSteinOperator,
)


def scalar(value):
    return np.array([[float(value)]])


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            nme.SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            nme.SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            nme.SolverConfig(min_iter=-1)


class TestFixedPoint:
    def test_zero_a_one_iteration(self):
        p = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        rep = nme.solve_fixed_point(p)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.X, p.Q)
        assert len(rep.history) == rep.iterations

    def test_scalar_oracle(self):
        p = nme.new_problem(scalar(0.5), scalar(2.0))
        rep = nme.solve_fixed_point(p)
        assert rep.converged
        assert rep.history[-1].rel_residual <= 1e-12
        assert rep.X[0, 0] == pytest.approx(scalar_x_plus(0.5, 2.0), abs=1e-11)

    def test_critical_case_stalls_like_one_over_k(self):
        p = nme.new_problem(scalar(1.0), scalar(2.0))
        with pytest.raises(MaxIterationsExceeded) as info:
            nme.solve_fixed_point(p)
        rep = info.value.report
        assert rep.iterations == 200 and not rep.converged
        # independent oracle: run the scalar recursion x <- 2 - 1/x directly
        x = 2.0
        expected = [x]
        for _ in range(200):
            x = 2.0 - 1.0 / x
            expected.append(x)
        got = [float(m[0, 0]) for m in rep.iterates]
        assert np.allclose(got, expected, rtol=0, atol=1e-10)
        # error decays like Theta(1/k)
        for k in (50, 100, 200):
            assert 0.9 <= k * abs(got[k] - 1.0) <= 1.1

    def test_unsolvable_loses_definiteness(self):
        p = nme.new_problem(scalar(1.0), scalar(1.0))
        with pytest.raises(LostPositiveDefiniteness) as info:
            nme.solve_fixed_point(p)
        assert info.value.iteration == 1

    @pytest.mark.parametrize("seed,rho", [(0, 0.3), (1, 0.8)])
    def test_monotone_decreasing(self, seed, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=seed))
        rep = nme.solve_fixed_point(rec.problem)
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for a, b in zip(rep.iterates, rep.iterates[1:]):
            assert min_eig(a - b) >= -eps


class TestInversionFree:
    def test_zero_a(self):
        p = nme.new_problem(np.zeros((2, 2)), 2.0 * np.eye(2))
        rep = nme.solve_inversion_free(p)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.X, p.Q)
        # Y ascends toward Q^{-1} (here Y_0 is already Q^{-1})
        ys = rep.aux_iterates["Y"]
        assert np.allclose(ys[-1], np.linalg.inv(p.Q))

    def test_agrees_with_fixed_point(self):
        p = nme.new_problem(scalar(0.5), scalar(2.0))
        x_fp = nme.solve_fixed_point(p).X[0, 0]
        x_if = nme.solve_inversion_free(p).X[0, 0]
        assert abs(x_fp - x_if) <= 1e-10

    def test_schulz_lag_costs_iterations(self):
        p = nme.new_problem(scalar(0.9), scalar(2.0))
        fp = nme.solve_fixed_point(p)
        iv = nme.solve_inversion_free(p)
        assert iv.converged
        assert iv.iterations >= fp.iterations

    @pytest.mark.parametrize("seed,rho", [(2, 0.4), (3, 0.7)])
    def test_two_sided_monotonicity(self, seed, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=seed))
        rep = nme.solve_inversion_free(rec.problem)
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for a, b in zip(rep.iterates, rep.iterates[1:]):
            assert min_eig(a - b) >= -eps
        ys = rep.aux_iterates["Y"]
        for a, b in zip(ys, ys[1:]):
            assert min_eig(b - a) >= -eps

    def test_error_coupled_to_inverse_error(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.6, seed=4))
        rep = nme.solve_inversion_free(rec.problem)
        X_star = rec.known_solution
        X_star_inv = np.linalg.inv(X_star)
        a_sq = np.linalg.norm(rec.problem.A, 2) ** 2
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for Xk, Yk in zip(rep.iterates[1:], rep.aux_iterates["Y"][:-1]):
            lhs = np.linalg.norm(Xk - X_star, 2)
            rhs = a_sq * np.linalg.norm(Yk - X_star_inv, 2) + eps
            assert lhs <= rhs

    def test_divergence_detected(self):
        p = nme.new_problem(scalar(1.0), scalar(1.0))
        with pytest.raises(Diverged):
            nme.solve_inversion_free(p)


class TestStein:
    def test_zero_l(self):
        C = np.array([[1.0, 2.0], [2.0, 5.0]])
        X = nme.solve_stein(nme.SteinProblem(L=np.zeros((2, 2)), C=C))
        assert np.array_equal(X, C)

    def test_scalar(self):
        X = nme.solve_stein(nme.SteinProblem(L=scalar(0.5), C=scalar(3.0)))
        assert X[0, 0] == pytest.approx(4.0, abs=1e-14)

    def test_diagonal_decoupling(self):
        X = nme.solve_stein(nme.SteinProblem(L=np.diag([0.5, 0.2]), C=np.eye(2)))
        assert np.allclose(np.diag(X), [4.0 / 3.0, 25.0 / 24.0], atol=1e-14)
        assert X[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_singular_operator(self):
        # eigenvalue pair 2 * 0.5 = 1 makes the operator singular
        with pytest.raises(SingularSteinOperator):
            nme.solve_stein(nme.SteinProblem(L=np.diag([2.0, 0.5]), C=np.eye(2)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_discrete_lyapunov_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L = 0.6 * rng.standard_normal((4, 4)) / 2.0
        W = rng.standard_normal((4, 4))
        C = (W + W.T) / 2.0
        X = nme.solve_stein(nme.SteinProblem(L=L, C=C))
        oracle = scipy.linalg.solve_discrete_lyapunov(L.T, C)
        assert np.allclose(X, oracle, atol=1e-10)
        assert np.allclose(X - L.T @ X @ L, C, atol=1e-12)


class TestNewton:
    def test_zero_a(self):
        p = nme.new_problem(np.zeros((2, 2)), np.diag([1.0, 4.0]))
        rep = nme.solve_newton(p)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.X, p.Q)

    def test_scalar_quadratic(self):
        p = nme.new_problem(scalar(0.5), scalar(2.0))
        rep = nme.solve_newton(p)
        assert rep.converged
        assert rep.X[0, 0] == pytest.approx(scalar_x_plus(0.5, 2.0), abs=1e-12)
        res = [h.rel_residual for h in rep.history if h.rel_residual > 0]
        # residual at least squares once the iteration settles
        for r_prev, r_next in zip(res[1:-1], res[2:]):
            assert r_next <= max(r_prev ** 1.8, 1e-15)

    def test_critical_rate_one_half(self):
        p = nme.new_problem(scalar(1.0), scalar(2.0))
        rep = nme.solve_newton(p, nme.SolverConfig(tol=1e-15, max_iter=60))
        xs = [float(m[0, 0]) for m in rep.iterates]
        # the scalar recursion is x <- 2x/(x+1): verify directly
        for x_prev, x_next in zip(xs, xs[1:]):
            assert x_next == pytest.approx(2.0 * x_prev / (x_prev + 1.0), abs=1e-14)
        errs = [abs(x - 1.0) for x in xs]
        ratios = [errs[k + 1] / errs[k] for k in range(3, 20)]
        assert all(0.45 <= r <= 0.55 for r in ratios)

    @pytest.mark.parametrize("seed,rho", [(5, 0.3), (6, 0.8)])
    def test_descends_from_q(self, seed, rho):
        # Newton on this equation from X_0 = Q stays above the maximal
        # solution and decreases monotonically
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=seed))
        rep = nme.solve_newton(rec.problem)
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for a, b in zip(rep.iterates, rep.iterates[1:]):
            assert min_eig(a - b) >= -eps
        for Xk in rep.iterates:
            assert min_eig(Xk - rec.known_solution) >= -eps

    def test_contraction_spectra_recorded(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=7))
        rep = nme.solve_newton(rec.problem)
        assert all(h.aux1 < 1.0 + 1e-8 for h in rep.history)

    def test_singular_stein_propagates_iteration(self):
        p = nme.new_problem(scalar(1.0), scalar(1.0))
        with pytest.raises(SingularSteinOperator) as info:
            nme.solve_newton(p)
        assert info.value.iteration == 1
        assert info.value.report is not None


class TestSda:
    def test_zero_a_converges_at_zero(self):
        p = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        rep = nme.solve_sda(p)
        assert rep.converged and rep.iterations == 0
        assert np.allclose(rep.X, p.Q)
        assert rep.history == []

    def test_scalar_oracle_fast(self):
        p = nme.new_problem(scalar(0.5), scalar(2.0))
        rep = nme.solve_sda(p)
        assert rep.converged and rep.iterations <= 7
        assert rep.X[0, 0] == pytest.approx(scalar_x_plus(0.5, 2.0), abs=1e-12)

    def test_critical_closed_forms(self):
        p = nme.new_problem(scalar(1.0), scalar(2.0))
        rep = nme.solve_sda(p, nme.SolverConfig(max_iter=45, min_iter=40))
        qs = [float(m[0, 0]) for m in rep.iterates]
        ps = [float(m[0, 0]) for m in rep.aux_iterates["P"]]
        a_s = [float(m[0, 0]) for m in rep.aux_iterates["A"]]
        for k in range(min(41, len(qs))):
            two_k = 2.0 ** k
            assert qs[k] == pytest.approx((two_k + 1.0) / two_k, abs=1e-13)
            assert ps[k] == pytest.approx((two_k - 1.0) / two_k, abs=1e-13)
            assert a_s[k] == pytest.approx(1.0 / two_k, abs=1e-13)

    def test_gap_eigenvalue_recorded_positive(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=8))
        rep = nme.solve_sda(rec.problem)
        assert all(h.aux2 > 0.0 for h in rep.history)

    def test_breakdown_on_unsolvable(self):
        p = nme.new_problem(scalar(1.0), scalar(1.0))
        with pytest.raises(DoublingBreakdown):
            nme.solve_sda(p)

    @pytest.mark.parametrize("seed,rho", [(9, 0.5), (10, 0.9)])
    def test_order_relations_and_norm_bounds(self, seed, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=seed))
        rep = nme.solve_sda(rec.problem)
        X = rec.known_solution
        Q = rec.problem.Q
        eps = 1e-10 * np.linalg.norm(Q)
        qs, ps, a_s = rep.iterates, rep.aux_iterates["P"], rep.aux_iterates["A"]
        for Pk, Pn in zip(ps, ps[1:]):
            assert min_eig(Pn - Pk) >= -eps
        for Pk, Qk in zip(ps, qs):
            assert min_eig(X - Pk) >= -eps
            assert min_eig(Qk - X) >= -eps
            assert min_eig(Qk - Pk) > 0.0
        for Qk, Qn in zip(qs, qs[1:]):
            assert min_eig(Qk - Qn) >= -eps
            assert min_eig(Q - Qn) >= -eps
        # doubling norm bounds against the planted solution
        S = np.linalg.solve(X, rec.problem.A)
        S_pow = S.copy()  # S^(2^k) via repeated squaring
        x_norm = np.linalg.norm(X, 2)
        for k in range(1, len(qs)):
            S_pow = S_pow @ S_pow if k > 1 else S_pow
            s_norm = np.linalg.norm(np.linalg.matrix_power(S, 2 ** k), 2)
            assert np.linalg.norm(a_s[k], 2) <= x_norm * s_norm + eps
            assert np.linalg.norm(qs[k] - X, 2) <= x_norm * s_norm ** 2 + eps


class TestSdaScalar:
    def test_critical_closed_forms(self):
        rep = nme.solve_sda_scalar(1.0, 2.0, nme.SolverConfig(max_iter=45, min_iter=40))
        qs = [float(m[0, 0]) for m in rep.iterates]
        for k in range(41):
            two_k = 2.0 ** k
            assert abs(qs[k] - (two_k + 1.0) / two_k) <= 1e-13

    def test_zero_a_immediate(self):
        rep = nme.solve_sda_scalar(0.0, 5.0)
        assert rep.converged and rep.iterations == 0
        assert rep.X[0, 0] == 5.0

    def test_shifted_problem_count(self):
        r = 0.9
        rep = nme.solve_sda_scalar(1.0, r + 1.0 / r)
        assert rep.converged and rep.iterations <= 9
        assert rep.X[0, 0] == pytest.approx(1.0 / r, abs=1e-12)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(NotPositiveDefinite):
            nme.solve_sda_scalar(1.0, 0.0)

    def test_breakdown(self):
        with pytest.raises(DoublingBreakdown):
            nme.solve_sda_scalar(1.0, 1.0)

    @pytest.mark.parametrize("a,q", [(0.5, 2.0), (1.0, 2.0), (2.0, 5.0), (0.0, 3.0)])
    def test_matches_matrix_sda(self, a, q):
        cfg = nme.SolverConfig(max_iter=50)
        rs = nme.solve_sda_scalar(a, q, cfg)
        rm = nme.solve_sda(nme.new_problem(scalar(a), scalar(q)), cfg)
        assert abs(rs.X[0, 0] - rm.X[0, 0]) <= 1e-14
        assert rs.iterations == rm.iterations


class TestCrossSolverProperties:
    @pytest.mark.parametrize("seed,n,rho", [(11, 2, 0.5), (12, 4, 0.9)])
    def test_agreement(self, seed, n, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        cfg = nme.SolverConfig(max_iter=500)
        xs = [
            nme.solve_fixed_point(rec.problem, cfg).X,
            nme.solve_inversion_free(rec.problem, cfg).X,
            nme.solve_newton(rec.problem, cfg).X,
            nme.solve_sda(rec.problem, cfg).X,
        ]
        bound = 1e-8 * np.linalg.norm(rec.problem.Q)
        for i in range(len(xs)):
            for j in range(i + 1, len(xs)):
                assert np.linalg.norm(xs[i] - xs[j]) <= bound

    @pytest.mark.parametrize("seed,rho", [(13, 0.4), (14, 1.0)])
    def test_maximality_signature(self, seed, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=rho, seed=seed))
        for solver in (nme.solve_fixed_point, nme.solve_inversion_free,
                       nme.solve_newton, nme.solve_sda):
            try:
                rep = solver(rec.problem, nme.SolverConfig(max_iter=400))
            except MaxIterationsExceeded as exc:
                rep = exc.report
            assert rep.rho_ratio <= 1.0 + 1e-6

    @pytest.mark.parametrize("solver", [nme.solve_fixed_point, nme.solve_inversion_free,
                                        nme.solve_newton, nme.solve_sda])
    def test_overflow_never_converges(self, solver):
        # ||A||_F overflows to inf, so doubling's ||A_k|| <= tol ||A|| test
        # passes as inf <= inf on an iterate X_1 = -inf
        with pytest.raises(nme.exceptions.SolverFailure) as info, np.errstate(all="ignore"):
            solver(nme.new_problem(scalar(1e200), scalar(1.0)))
        assert info.value.report is not None and not info.value.report.converged

    def test_scalar_non_finite_never_converges(self):
        with pytest.raises(Diverged) as info:
            nme.solve_sda_scalar(1.0, math.inf)
        assert info.value.report is not None and not info.value.report.converged


class TestEstimateRate:
    def test_geometric_is_linear_half(self):
        est = nme.estimate_rate([2.0 ** -k for k in range(30)])
        assert est.kind == "linear"
        assert est.rate == pytest.approx(0.5, abs=0.02)

    def test_doubling_is_quadratic(self):
        est = nme.estimate_rate([0.5 ** (2 ** k) for k in range(8)])
        assert est.kind == "quadratic"
        assert est.rate is None

    def test_flat_is_stalled(self):
        est = nme.estimate_rate([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert est.kind == "stalled"

    def test_fixed_point_rate_matches_contraction(self):
        p = nme.new_problem(scalar(0.9), scalar(2.0))
        rep = nme.solve_fixed_point(p)
        est = nme.estimate_rate([h.rel_residual for h in rep.history])
        target = nme.spectral_radius_ratio(p, rep.X) ** 2
        assert est.kind == "linear"
        assert abs(est.rate - target) <= 0.1 * target

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            nme.estimate_rate([1.0, 0.5, 0.25])


class TestReports:
    def test_history_length_matches_iterations(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=15))
        for solver in (nme.solve_fixed_point, nme.solve_inversion_free,
                       nme.solve_newton, nme.solve_sda):
            rep = solver(rec.problem)
            assert len(rep.history) == rep.iterations
            assert rep.converged
            assert rep.history[-1].rel_residual <= 1e-12
            assert len(rep.iterates) == rep.iterations + 1

    def test_record_history_off(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=16))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=False))
        assert rep.history == [] and rep.iterates == []
        assert rep.estimated_rate is None

    def test_dispatch(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=2, rho_target=0.3, seed=17))
        rep = nme.solve(rec.problem, nme.Algorithm.NEWTON)
        assert rep.converged

    def test_history_csv(self, tmp_path):
        rec = nme.generate_problem(nme.GeneratorSpec(n=2, rho_target=0.5, seed=18))
        rep = nme.solve_sda(rec.problem)
        path = tmp_path / "h.csv"
        nme.write_history_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,rel_residual,step_norm,aux1,aux2"
        assert len(lines) == 1 + rep.iterations
        assert lines[1].startswith("1,")
