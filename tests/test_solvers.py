import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmesolve as nme
from helpers import min_eig, nonnormal_planted, scalar_x_plus
from nmesolve import solvers
from nmesolve.exceptions import (
    DimensionMismatch,
    Diverged,
    DoublingBreakdown,
    InsufficientHistory,
    LostPositiveDefiniteness,
    MaxIterationsExceeded,
    NmeError,
    NonFiniteInput,
    NotPositiveDefinite,
    SingularSteinOperator,
    SolverFailure,
    Stagnated,
)
from nmesolve.problem import cholesky_residual, spectral_radius

MATRIX_SOLVERS = [nme.solve_fixed_point, nme.solve_inversion_free,
                  nme.solve_newton, nme.solve_sda]


def scalar(value):
    return np.array([[float(value)]])


def count_calls(monkeypatch, *names):
    """Calls made, by name, to the named ``scipy.linalg.lapack`` or
    ``scipy.linalg.blas`` routines from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        module = scipy.linalg.blas if name == "dtrmm" else scipy.linalg.lapack

        def call(*args, _name=name, _routine=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _routine(*args, **kwargs)
        monkeypatch.setattr(module, name, call)
    return calls


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            nme.SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            nme.SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            nme.SolverConfig(min_iter=-1)
        with pytest.raises(ValueError):
            nme.SolverConfig(max_iter=5, min_iter=6)
        assert nme.SolverConfig(max_iter=5, min_iter=5).min_iter == 5


class TestFixedPoint:
    def test_zero_a_one_iteration(self):
        p = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        rep = nme.solve_fixed_point(p, nme.SolverConfig(record_history=True))
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.X, p.Q)
        assert len(rep.history) == rep.iterations

    def test_scalar_oracle(self):
        p = nme.new_problem(scalar(0.5), scalar(2.0))
        rep = nme.solve_fixed_point(p, nme.SolverConfig(record_history=True))
        assert rep.converged
        assert rep.history[-1].rel_residual <= 1e-12
        assert rep.X[0, 0] == pytest.approx(scalar_x_plus(0.5, 2.0), abs=1e-11)

    def test_critical_case_stalls_like_one_over_k(self):
        p = nme.new_problem(scalar(1.0), scalar(2.0))
        with pytest.raises(MaxIterationsExceeded) as info:
            nme.solve_fixed_point(p, nme.SolverConfig(record_history=True))
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
        rep = nme.solve_fixed_point(rec.problem, nme.SolverConfig(record_history=True))
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for a, b in zip(rep.iterates, rep.iterates[1:]):
            assert min_eig(a - b) >= -eps


class TestInversionFree:
    def test_zero_a(self):
        p = nme.new_problem(np.zeros((2, 2)), 2.0 * np.eye(2))
        rep = nme.solve_inversion_free(p, nme.SolverConfig(record_history=True))
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
        rep = nme.solve_inversion_free(rec.problem, nme.SolverConfig(record_history=True))
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for a, b in zip(rep.iterates, rep.iterates[1:]):
            assert min_eig(a - b) >= -eps
        ys = rep.aux_iterates["Y"]
        for a, b in zip(ys, ys[1:]):
            assert min_eig(b - a) >= -eps

    def test_error_coupled_to_inverse_error(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.6, seed=4))
        rep = nme.solve_inversion_free(rec.problem, nme.SolverConfig(record_history=True))
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
        X = nme.solve_stein(np.zeros((2, 2)), C)
        assert np.array_equal(X, C)

    def test_scalar(self):
        X = nme.solve_stein(scalar(0.5), scalar(3.0))
        assert X[0, 0] == pytest.approx(4.0, abs=1e-14)

    def test_diagonal_decoupling(self):
        X = nme.solve_stein(np.diag([0.5, 0.2]), np.eye(2))
        assert np.allclose(np.diag(X), [4.0 / 3.0, 25.0 / 24.0], atol=1e-14)
        assert X[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_singular_operator(self):
        # eigenvalue pair 2 * 0.5 = 1 makes the operator singular
        with pytest.raises(SingularSteinOperator):
            nme.solve_stein(np.diag([2.0, 0.5]), np.eye(2))

    def test_singular_operator_with_settling_sum(self):
        # the doubling sum settles at the solution diag(0, 4/3), but one of
        # many; ||L^(2^j)||_F stays above one, so the Schur solve gets the case
        with pytest.raises(SingularSteinOperator):
            nme.solve_stein(np.diag([2.0, 0.5]), np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_against_discrete_lyapunov_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L = 0.6 * rng.standard_normal((4, 4)) / 2.0
        W = rng.standard_normal((4, 4))
        C = (W + W.T) / 2.0
        X = nme.solve_stein(L, C)
        oracle = scipy.linalg.solve_discrete_lyapunov(L.T, C)
        assert np.allclose(X, oracle, atol=1e-10)
        assert np.allclose(X - L.T @ X @ L, C, atol=1e-12)

    @staticmethod
    def _random_symmetric(rng, n):
        W = rng.standard_normal((n, n))
        return (W + W.T) / 2.0

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_complex_eigenvalues_against_direct(self, n):
        # rotation blocks give L complex-conjugate eigenvalue pairs, so the
        # complex Schur form is not real
        rng = np.random.default_rng(40 + n)
        D = np.zeros((n, n))
        for i in range(0, n - 1, 2):
            r, th = rng.uniform(0.3, 0.95), rng.uniform(0.2, 3.0)
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                [np.sin(th), np.cos(th)]])
        if n % 2:
            D[-1, -1] = -0.5
        V = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        L = V @ D @ np.linalg.inv(V)
        assert np.abs(np.linalg.eigvals(L).imag).max() > 0.1
        C = self._random_symmetric(rng, n)
        X = nme.solve_stein(L, C)
        oracle = scipy.linalg.solve_discrete_lyapunov(L.T, C, method="direct")
        assert np.linalg.norm(X - oracle) <= 1e-11 * np.linalg.norm(oracle)
        assert np.linalg.norm(X - L.T @ X @ L - C) <= 1e-13 * np.linalg.norm(X)
        assert np.array_equal(X, X.T)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_eigenvalue_near_minus_one(self, seed):
        # a Cayley transform through (L + I)^{-1} breaks down here
        rng = np.random.default_rng(seed)
        n = 6
        d = np.concatenate([[-0.9999], rng.uniform(-0.9, 0.9, n - 1)])
        V = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        L = V @ np.diag(d) @ np.linalg.inv(V)
        C = self._random_symmetric(rng, n)
        X = nme.solve_stein(L, C)
        oracle = scipy.linalg.solve_discrete_lyapunov(L.T, C, method="direct")
        assert np.linalg.norm(X - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert np.linalg.norm(X - L.T @ X @ L - C) <= 1e-13 * np.linalg.norm(X)

    def test_rotation_is_singular(self):
        # the eigenvalues exp(+-0.7i) of a rotation have lambda conj(lambda) = 1
        c, s = np.cos(0.7), np.sin(0.7)
        with pytest.raises(SingularSteinOperator):
            nme.solve_stein(np.array([[c, -s], [s, c]]), np.eye(2))

    @pytest.mark.parametrize("L,C", [([[math.nan]], [[1.0]]), ([[0.5]], [[math.inf]])])
    def test_non_finite_input(self, L, C):
        with pytest.raises(NonFiniteInput):
            nme.solve_stein(np.array(L), np.array(C))

    @pytest.mark.parametrize("L,C", [(0.5 * np.eye(3), np.eye(2)),
                                     (np.ones((2, 3)), np.eye(2))])
    def test_shape_mismatch(self, L, C):
        with pytest.raises(DimensionMismatch):
            nme.solve_stein(L, C)

    def test_empty_data_rejected(self):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            nme.solve_stein(np.zeros((0, 0)), np.zeros((0, 0)))

    @staticmethod
    def _check_structure_case(L, C):
        """X is exactly symmetric, has residual <= 1e-13 ||X||, and for n <= 8
        matches the Kronecker-product oracle."""
        X = nme.solve_stein(L, C)
        assert np.array_equal(X, X.T)
        assert np.linalg.norm(X - L.T @ X @ L - C) <= 1e-13 * np.linalg.norm(X)
        if L.shape[0] <= 8:
            oracle = scipy.linalg.solve_discrete_lyapunov(L.T, C, method="direct")
            assert np.linalg.norm(X - oracle) <= 1e-12 * np.linalg.norm(oracle)
        return X

    @pytest.mark.parametrize("n,seed,first,last", [
        (3, 1, True, False), (3, 2, False, True), (5, 10, True, True), (33, 1, True, True)])
    def test_odd_n_with_edge_blocks(self, n, seed, first, last):
        # 2x2 blocks of the real Schur form in the first and last rows become
        # Givens rotations at the other end of the reversed factor
        rng = np.random.default_rng(seed)
        L = 0.9 * rng.standard_normal((n, n)) / np.sqrt(n)
        T = scipy.linalg.schur(L.T)[0]
        assert (T[1, 0] != 0, T[-1, -2] != 0) == (first, last)
        self._check_structure_case(L, self._random_symmetric(rng, n))

    def test_defective_jordan_block(self):
        rng = np.random.default_rng(7)
        J = 0.9 * np.eye(3) + np.diag([1.0, 1.0], 1)
        V = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        for L in (J, V @ J @ np.linalg.inv(V)):
            self._check_structure_case(L, self._random_symmetric(rng, 3))

    def test_nonnormal_mixed_spectrum_n33(self):
        # 8 rotation blocks and 17 real eigenvalues under a strictly upper
        # triangular part of the size of the diagonal, in a random basis
        rng = np.random.default_rng(33)
        n = 33
        D = np.zeros((n, n))
        for i in range(0, 16, 2):
            r, th = rng.uniform(0.3, 0.95), rng.uniform(0.2, 3.0)
            D[i:i + 2, i:i + 2] = r * np.array([[np.cos(th), -np.sin(th)],
                                                [np.sin(th), np.cos(th)]])
        D[np.arange(16, n), np.arange(16, n)] = rng.uniform(-0.95, 0.95, n - 16)
        U, _ = np.linalg.qr(rng.standard_normal((n, n)))
        L = U @ (D + np.triu(rng.standard_normal((n, n)), 2)) @ U.T
        lam = np.linalg.eigvals(L)
        assert np.count_nonzero(np.abs(lam.imag) > 1e-8) == 16
        assert np.linalg.norm(L @ L.T - L.T @ L) >= 0.1 * np.linalg.norm(L) ** 2
        self._check_structure_case(L, self._random_symmetric(rng, n))

    @pytest.mark.parametrize("k", [-1000, 1000])
    def test_scale_of_c(self, k):
        # dtgsyl may return scale < 1 to avoid overflow; X is divided by it
        rng = np.random.default_rng(5)
        L = 0.9 * rng.standard_normal((8, 8)) / np.sqrt(8)
        C = self._random_symmetric(rng, 8)
        X = nme.solve_stein(L, C)
        X_k = nme.solve_stein(L, 2.0 ** k * C)
        assert np.all(np.isfinite(X_k))
        assert np.linalg.norm(2.0 ** -k * X_k - X) <= 1e-13 * np.linalg.norm(X)

    def test_symmetric_part_near_overflow(self):
        # (M + M^T) / 2 overflows once entries pass ~9e307 although the mean
        # fits; the largest entry of this X is 1.48e308
        rng = np.random.default_rng(5)
        L = 0.9 * rng.standard_normal((8, 8)) / np.sqrt(8)
        C = self._random_symmetric(rng, 8)
        X_k = nme.solve_stein(L, 2.0 ** 1022 * C)
        assert np.all(np.isfinite(X_k))
        assert np.linalg.norm(2.0 ** -1022 * X_k - nme.solve_stein(L, C)) \
            <= 1e-13 * np.linalg.norm(X_k * 2.0 ** -1022)
        Q = np.array([[1.7e308, 1.6e308], [1.6e308, 1.7e308]])
        p = nme.new_problem(np.zeros((2, 2)), Q)
        assert np.array_equal(p.Q, Q)

    def test_schur_solve_only_off_the_doubling_path(self, monkeypatch):
        # a stable, near-normal L is summed by doubling with no dgees call;
        # rho(L) = 1.46 and a non-normal L whose doubling residual is 8.6e-11
        # go to the Schur solve
        calls = []
        dgees = scipy.linalg.lapack.dgees

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return dgees(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dgees", counting)
        self.test_diagonal_decoupling()
        rec = nme.generate_problem(nme.GeneratorSpec(n=16, rho_target=0.9, seed=3))
        L = np.linalg.solve(rec.known_solution, rec.problem.A)
        X = nme.solve_stein(L, rec.problem.Q)
        assert np.linalg.norm(X - L.T @ X @ L - rec.problem.Q) <= 1e-13 * np.linalg.norm(X)
        assert calls == []
        self.test_odd_n_with_edge_blocks(3, 2, False, True)
        assert (3, 3) in calls
        self.test_nonnormal_mixed_spectrum_n33()
        assert (33, 33) in calls

    def test_large_n(self):
        # the n^2-by-n^2 vectorized operator would need 12.8 GB at n = 200
        rng = np.random.default_rng(3)
        n = 200
        L = 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
        C = self._random_symmetric(rng, n)
        X = nme.solve_stein(L, C)
        assert np.linalg.norm(X - L.T @ X @ L - C) <= 1e-12 * np.linalg.norm(C)


class TestNewton:
    def test_zero_a(self):
        p = nme.new_problem(np.zeros((2, 2)), np.diag([1.0, 4.0]))
        rep = nme.solve_newton(p)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(rep.X, p.Q)

    def test_scalar_quadratic(self):
        p = nme.new_problem(scalar(0.5), scalar(2.0))
        rep = nme.solve_newton(p, nme.SolverConfig(record_history=True))
        assert rep.converged
        assert rep.X[0, 0] == pytest.approx(scalar_x_plus(0.5, 2.0), abs=1e-12)
        res = [h.rel_residual for h in rep.history if h.rel_residual > 0]
        # residual at least squares once the iteration settles
        for r_prev, r_next in zip(res[1:-1], res[2:]):
            assert r_next <= max(r_prev ** 1.8, 1e-15)

    def test_critical_rate_one_half(self):
        p = nme.new_problem(scalar(1.0), scalar(2.0))
        rep = nme.solve_newton(p, nme.SolverConfig(tol=1e-15, max_iter=60, record_history=True))
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
        rep = nme.solve_newton(rec.problem, nme.SolverConfig(record_history=True))
        eps = 1e-10 * np.linalg.norm(rec.problem.Q)
        for a, b in zip(rep.iterates, rep.iterates[1:]):
            assert min_eig(a - b) >= -eps
        for Xk in rep.iterates:
            assert min_eig(Xk - rec.known_solution) >= -eps

    def test_contraction_spectra_recorded(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=7))
        rep = nme.solve_newton(rec.problem, nme.SolverConfig(record_history=True))
        assert all(h.aux1 < 1.0 + 1e-8 for h in rep.history)

    def test_planted_n64(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=64, rho_target=0.9, seed=21))
        rep = nme.solve_newton(rec.problem)
        X_plus = rec.known_solution
        assert rep.converged
        assert np.linalg.norm(rep.X - X_plus) <= 1e-9 * np.linalg.norm(X_plus)

    def test_iterate_above_q_diverges(self):
        # no X+ exists; X_1 = (1 - 2e260) / (1 - 1e260) = 2 > Q, and without
        # the descent guard the residual only halves per step for 200 steps
        with pytest.raises(Diverged) as info:
            nme.solve_newton(nme.new_problem(scalar(1e130), scalar(1.0)))
        assert info.value.iteration <= 3
        assert info.value.report is not None and not info.value.report.converged

    def test_descent_guard_near_overflow(self):
        # tr(Q) = 2.4e308 overflows; the guard must neither warn nor fire
        p = nme.new_problem(1e307 * np.eye(3), 8e307 * np.eye(3))
        rep = nme.solve_newton(p)
        assert rep.converged
        assert rep.X[0, 0] == pytest.approx(8e307 * scalar_x_plus(0.125, 1.0), rel=1e-12)

    def test_singular_stein_propagates_iteration(self):
        p = nme.new_problem(scalar(1.0), scalar(1.0))
        with pytest.raises(SingularSteinOperator) as info:
            nme.solve_newton(p)
        assert info.value.iteration == 1
        assert info.value.report is not None

    @pytest.mark.parametrize("seed", range(4))
    def test_nonnormal_contraction_converges(self, seed):
        # the doubling sum of these Stein equations settles, but its X leaves
        # a residual far above a backward-stable solve's; accepted, it stalls
        # Newton until the iteration budget runs out
        problem, X_plus = nonnormal_planted(32, 0.5, 3.0, seed)
        rep = nme.solve_newton(problem)
        assert rep.converged
        assert np.linalg.norm(rep.X - X_plus) <= 1e-8 * np.linalg.norm(X_plus)

    def test_schur_failure_is_typed(self, monkeypatch):
        # dgees info > 0 (no QR convergence) is a SolverFailure with Newton's
        # partial report, never a raw LinAlgError.  A stable L is solved by
        # doubling, so both inputs have rho(L) = 1 or more to reach dgees
        dgees = scipy.linalg.lapack.dgees

        def failing(*args, **kwargs):
            *out, _ = dgees(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "dgees", failing)
        with pytest.raises(SolverFailure, match="info 1") as info:
            nme.solve_stein(np.diag([2.0, 0.5]), np.eye(2))
        assert type(info.value) is SolverFailure
        with pytest.raises(SolverFailure, match="at iteration 1") as info:
            nme.solve_newton(nme.new_problem(scalar(1.0), scalar(1.0)))
        assert type(info.value) is SolverFailure
        assert info.value.iteration == 1 and info.value.report.iterations == 0


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
        rep = nme.solve_sda(p, nme.SolverConfig(max_iter=45, min_iter=40, record_history=True))
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
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=True))
        assert all(h.aux2 > 0.0 for h in rep.history)

    def test_small_a_k_alone_is_stagnation(self):
        # non-normal S: ||A_k|| falls below tol ||A|| while the residual is
        # still far above tol; the step it stops at depends on rounding
        # (about step 10, with a residual near 1e-9 to 1e-7), so only the
        # outcome is pinned
        problem, _ = nonnormal_planted(n=32, rho=0.9, eta=3.0, seed=3)
        with pytest.raises(Stagnated) as info:
            nme.solve_sda(problem)
        report = info.value.report
        assert report is not None and not report.converged
        assert info.value.iteration == report.iterations
        assert nme.residual(problem, report.X).rel_norm > nme.SolverConfig().tol

    def test_breakdown_on_unsolvable(self):
        p = nme.new_problem(scalar(1.0), scalar(1.0))
        with pytest.raises(DoublingBreakdown):
            nme.solve_sda(p)

    def test_default_solve_calls_lapack_directly(self, monkeypatch):
        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        monkeypatch.setattr(scipy.linalg, "lu_factor", forbidden("scipy.linalg.lu_factor"))
        monkeypatch.setattr(scipy.linalg, "lu_solve", forbidden("scipy.linalg.lu_solve"))
        monkeypatch.setattr(np.linalg, "cholesky", forbidden("numpy.linalg.cholesky"))
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=19))
        assert nme.solve_sda(rec.problem).converged

    @pytest.mark.parametrize("fault,detail", [
        ("info", "dsytrf info 2"),
        ("2x2-pivot", "a 2x2 pivot"),
        ("nonpositive-pivot", "a pivot is -1.0"),
    ], ids=["info", "2x2-pivot", "nonpositive-pivot"])
    def test_factorization_failure_is_breakdown(self, monkeypatch, fault, detail):
        # each stub reports a D that is not SPD; the pivot check must run
        # before dsyconv or dlaswp sees a negative (2x2) pivot
        dsytrf = scipy.linalg.lapack.dsytrf

        def failing(D, **kwargs):
            ldu, ipiv, info = dsytrf(D, **kwargs)
            if fault == "info":
                info = 2
            elif fault == "2x2-pivot":
                ipiv[:2] = -2
            else:
                ldu[1, 1] = -1.0
            return ldu, ipiv, info

        monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", failing)
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=19))
        with pytest.raises(DoublingBreakdown) as info:
            nme.solve_sda(rec.problem)
        assert info.value.iteration == 1 and info.value.report.iterations == 0
        assert isinstance(info.value.__cause__, NotPositiveDefinite)
        assert str(info.value.__cause__) == f"Q_k - P_k is not positive definite: {detail}"

    def test_factors_d_once_per_step(self, monkeypatch):
        # one dsytrf of D = Q_k - P_k per step, and dpotrf only in the
        # residual of each iterate Q_k; no LU
        calls = {name: [] for name in ("dsytrf", "dpotrf", "dgetrf", "dgetrs")}

        def recorded(name):
            routine = getattr(scipy.linalg.lapack, name)

            def call(M, *args, **kwargs):
                calls[name].append(np.array(M))
                return routine(M, *args, **kwargs)
            return call

        rec = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.9, seed=19))
        for name in calls:
            monkeypatch.setattr(scipy.linalg.lapack, name, recorded(name))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=True))
        assert rep.converged and rep.iterations >= 4
        assert len(calls["dgetrf"]) == len(calls["dgetrs"]) == 0
        qs, ps = rep.iterates, rep.aux_iterates["P"]
        assert len(calls["dsytrf"]) == rep.iterations
        for D, Qk, Pk in zip(calls["dsytrf"], qs, ps):
            assert np.array_equal(D, Qk - Pk)
        assert len(calls["dpotrf"]) == rep.iterations + 1
        for M, Qk in zip(calls["dpotrf"], qs):
            assert np.array_equal(M, Qk)

    def test_one_dsytrf_and_dtrmm_per_step(self, monkeypatch):
        # the step applies half of D's factor: one triangular product, no
        # transposed product and no back-permutation; Bunch-Kaufman makes no
        # interchange on this problem, so dsyconv and dlaswp never run
        rec = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.9, seed=19))
        calls = count_calls(monkeypatch, "dsytrf", "dsyconv", "dlaswp", "dtrmm")
        rep = nme.solve_sda(rec.problem)
        assert rep.converged and rep.iterations >= 4
        assert calls == {"dsytrf": rep.iterations, "dsyconv": 0, "dlaswp": 0,
                         "dtrmm": rep.iterations}

    def test_residual_only_where_it_can_end_the_run(self, monkeypatch):
        # the early steps of a quadratic run skip the residual; history
        # takes one per iterate
        calls = []

        def counted(*args):
            calls.append(1)
            return cholesky_residual(*args)

        monkeypatch.setattr(solvers, "cholesky_residual", counted)
        problem = nme.generate_problem(nme.GeneratorSpec(n=64, rho_target=0.5, seed=0)).problem
        rep = nme.solve_sda(problem)
        assert rep.converged and len(calls) < rep.iterations + 1
        calls.clear()
        rep = nme.solve_sda(problem, nme.SolverConfig(record_history=True))
        assert len(calls) == rep.iterations + 1

    def test_no_residual_of_q0_above_the_gate(self, monkeypatch):
        # ||A||_F is far above RESIDUAL_GATE sqrt(tol) ||Q||_F, so Q_0 = Q
        # cannot end the run and its residual is skipped; A = 0 (the k = 0
        # stop) and history still take it
        tested = []

        def recorded(A, Q, X, *args):
            tested.append(np.array(X))
            return cholesky_residual(A, Q, X, *args)

        monkeypatch.setattr(solvers, "cholesky_residual", recorded)
        problem = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=0)).problem
        rep = nme.solve_sda(problem)
        assert rep.converged and tested
        assert not any(np.array_equal(X, problem.Q) for X in tested)
        tested.clear()
        nme.solve_sda(problem, nme.SolverConfig(record_history=True))
        assert np.array_equal(tested[0], problem.Q)
        tested.clear()
        zero = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        assert nme.solve_sda(zero).iterations == 0
        assert len(tested) == 1 and np.array_equal(tested[0], zero.Q)

    def test_budget_end_reports_a_residual(self):
        # the last step of the budget takes its residual, so the report
        # names the best one and not inf
        problem = nme.generate_problem(nme.GeneratorSpec(n=64, rho_target=0.999, seed=0)).problem
        with pytest.raises(MaxIterationsExceeded) as info:
            nme.solve_sda(problem, nme.SolverConfig(max_iter=3))
        best = float(re.search(r"best relative residual (\S+)\)", str(info.value)).group(1))
        assert math.isfinite(best)
        assert best == float(f"{nme.residual(problem, info.value.report.X).rel_norm:.3e}")

    @pytest.mark.parametrize("seed,rho", [(23, 0.9), (24, 1.0)])
    def test_steps_match_explicit_formulas(self, seed, rho):
        # every step against the doubling formulas with np.linalg.solve, and
        # Q_k, P_k exactly symmetric
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=rho, seed=seed))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=True))
        qs, ps, a_s = rep.iterates, rep.aux_iterates["P"], rep.aux_iterates["A"]
        assert len(qs) == rep.iterations + 1 >= 5
        for Qk, Pk in zip(qs, ps):
            assert np.array_equal(Qk, Qk.T) and np.array_equal(Pk, Pk.T)
        for Ak, Qk, Pk, An, Qn, Pn in zip(a_s, qs, ps, a_s[1:], qs[1:], ps[1:]):
            D = Qk - Pk
            WA, WAT = np.linalg.solve(D, Ak), np.linalg.solve(D, Ak.T)
            tol = 1e-14 * (np.linalg.norm(Qk) + np.linalg.cond(D) * np.linalg.norm(Ak) ** 2
                           * np.linalg.norm(np.linalg.inv(D)))
            assert np.linalg.norm(An - Ak @ WA) <= tol
            assert np.linalg.norm(Qn - (Qk - Ak.T @ WA)) <= tol
            assert np.linalg.norm(Pn - (Pk + Ak @ WAT)) <= tol

    @pytest.mark.parametrize("seed,rho", [(9, 0.5), (10, 0.9)])
    def test_order_relations_and_norm_bounds(self, seed, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=seed))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=True))
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


class TestSpdSolve:
    """The doubling step's kernel: V = L^{-1} P^T B and the pivots d of one
    Bunch-Kaufman D = P L Lam L^T P^T, so that B^T D^{-1} B = V^T Lam^{-1} V."""

    @staticmethod
    def spd_with_interchanges(n, seed):
        # SPD blocks [[1e-3, 1], [1, 1e4]], for which Bunch-Kaufman takes the
        # 1e4 pivot first, plus a PSD coupling so that later interchanges
        # move rows of earlier columns of L, in a random symmetric order
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        D = 1e-2 * M @ M.T / n
        D += scipy.linalg.block_diag(*[[[1e-3, 1.0], [1.0, 1e4]]] * (n // 2), np.eye(n % 2))
        order = rng.permutation(n)
        return D[order][:, order], rng.standard_normal((n, n))

    @staticmethod
    def assert_form_matches(D, B, V, d):
        ref = B.T @ np.linalg.solve(D, B)
        form = V.T @ (V / d[:, None])
        assert np.linalg.norm(form - ref) <= 1e-14 * np.linalg.cond(D) * np.linalg.norm(ref)

    @pytest.mark.parametrize("n,swaps", [(1, 0), (8, 1), (64, 10)])
    def test_matches_dense_solve(self, n, swaps):
        D, A = self.spd_with_interchanges(n, seed=n)
        _, ipiv, info = scipy.linalg.lapack.dsytrf(D, lower=1)
        assert info == 0 and np.all(ipiv > 0)
        assert np.count_nonzero(ipiv != np.arange(1, n + 1)) >= swaps
        B = np.concatenate((A, A.T), axis=1)
        V, d = solvers._spd_half_solve(D, B.copy(), "D")
        self.assert_form_matches(D, B, V, d)

    def test_chained_interchanges(self):
        # D = S (0.9 J + 0.1 I) S swaps row 4 in at steps 1 and 2 (ipiv
        # [4, 4, 3, 4]), so P^T must apply the swaps in order
        s = np.array([1.0, 0.3, 0.1, 3.0])
        D = s[:, None] * (0.9 + 0.1 * np.eye(4)) * s[None, :]
        assert scipy.linalg.lapack.dsytrf(D, lower=1)[1].tolist() == [4, 4, 3, 4]
        B = np.arange(8.0).reshape(4, 2)
        V, d = solvers._spd_half_solve(D, B.copy(), "D")
        self.assert_form_matches(D, B, V, d)

    def test_fortran_right_hand_side_is_overwritten(self):
        D, A = self.spd_with_interchanges(8, seed=3)
        B = np.concatenate((A.T, A)).T
        V, d = solvers._spd_half_solve(D, B, "D")
        assert np.shares_memory(V, B)
        self.assert_form_matches(D, np.concatenate((A, A.T), axis=1), V, d)

    def test_identity_pivots_match_the_explicit_chain(self):
        # a diagonally dominant D takes no interchange, so the kernel skips
        # dsyconv and dlaswp and must equal the full chain bit for bit
        rng = np.random.default_rng(5)
        M = rng.standard_normal((16, 16))
        D, A = M @ M.T + 16.0 * np.eye(16), rng.standard_normal((16, 16))
        lapack = scipy.linalg.lapack
        ldu, ipiv, info = lapack.dsytrf(D, lower=1, lwork=solvers._dsytrf_lwork(16))
        assert info == 0 and ipiv.tolist() == list(range(1, 17))
        L, _, _ = lapack.dsyconv(ldu, ipiv, lower=1)
        L_inv, _ = lapack.dtrtri(L, lower=1, unitdiag=1)
        B = np.concatenate((A.T, A)).T
        ref = scipy.linalg.blas.dtrmm(1.0, L_inv, lapack.dlaswp(B, ipiv - 1), lower=1, diag=1)
        V, d = solvers._spd_half_solve(D, B, "D")
        assert np.shares_memory(V, B)
        assert np.array_equal(V, ref) and np.array_equal(d, ldu.diagonal())

    def test_interchanges_gather_l_and_permute_once(self, monkeypatch):
        D, A = self.spd_with_interchanges(8, seed=3)
        calls = count_calls(monkeypatch, "dsytrf", "dsyconv", "dlaswp", "dtrmm")
        V, d = solvers._spd_half_solve(D, np.concatenate((A.T, A)).T, "D")
        assert calls == dict.fromkeys(calls, 1)
        self.assert_form_matches(D, np.concatenate((A, A.T), axis=1), V, d)

    @pytest.mark.parametrize("a,d", [(1.0, 2.0), (0.375, 1.25), (-3.0, 0.75), (1.0, 3.0)])
    def test_scalar_is_one_division(self, a, d):
        V, piv = solvers._spd_half_solve(scalar(d), np.array([[a, a]]), "D")
        assert V.tolist() == [[a, a]] and piv.tolist() == [d]
        assert (V.T @ (V / piv[:, None])).tolist() == [[a * (a / d)] * 2] * 2

    @pytest.mark.parametrize("D,detail", [
        ([[0.1, 1.0], [1.0, 0.1]], "a 2x2 pivot"),
        ([[1.0, 0.0], [0.0, -1.0]], "a pivot is -1.0"),
        ([[math.nan]], "dsytrf info 1"),
        ([[0.0, 0.0], [0.0, 0.0]], "dsytrf info 1"),
    ], ids=["2x2-pivot", "negative-pivot", "nan", "zero"])
    def test_not_spd_raises(self, D, detail):
        D = np.array(D)
        with pytest.raises(NotPositiveDefinite) as info:
            solvers._spd_half_solve(D, np.ones((D.shape[0], 2)), "D")
        assert str(info.value) == f"D is not positive definite: {detail}"


class TestSdaScalar:
    def test_critical_closed_forms(self):
        rep = nme.solve_sda_scalar(1.0, 2.0, nme.SolverConfig(max_iter=45, min_iter=40,
                                                             record_history=True))
        qs = [float(m[0, 0]) for m in rep.iterates]
        for k in range(41):
            two_k = 2.0 ** k
            assert abs(qs[k] - (two_k + 1.0) / two_k) <= 1e-13

    def test_critical_closed_forms_are_exact(self):
        # the step is sqrt-free, so on dyadic data it is exact: q_k, p_k and
        # a_k equal their closed forms bit for bit
        rep = nme.solve_sda_scalar(1.0, 2.0, nme.SolverConfig(max_iter=45, min_iter=40,
                                                             record_history=True))
        for k, (q, p, a) in enumerate(zip(rep.iterates, rep.aux_iterates["P"],
                                          rep.aux_iterates["A"])):
            two_k = 2.0 ** k
            assert (q[0, 0], p[0, 0], a[0, 0]) == ((two_k + 1.0) / two_k,
                                                   (two_k - 1.0) / two_k, 1.0 / two_k)
        assert len(rep.iterates) == 41

    def test_zero_a_immediate(self):
        rep = nme.solve_sda_scalar(0.0, 5.0)
        assert rep.converged and rep.iterations == 0
        assert rep.X[0, 0] == 5.0

    def test_shifted_problem_count(self):
        r = 0.9
        rep = nme.solve_sda_scalar(1.0, r + 1.0 / r)
        assert rep.converged and rep.iterations <= 9
        assert rep.X[0, 0] == pytest.approx(1.0 / r, abs=1e-12)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_non_finite_a_rejected(self, a):
        with pytest.raises(NonFiniteInput):
            nme.solve_sda_scalar(a, 2.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(NotPositiveDefinite):
            nme.solve_sda_scalar(1.0, 0.0)

    @pytest.mark.parametrize("q", [math.nan, -math.inf])
    def test_rejects_non_finite_q_that_is_not_positive(self, q):
        # q is read for realness only, so q = inf reaches the solver (see
        # test_scalar_non_finite_never_converges) and these fail q > 0
        with pytest.raises(NotPositiveDefinite, match="^q is not positive definite"):
            nme.solve_sda_scalar(1.0, q)

    @pytest.mark.parametrize("q", [2.0 + 1j, "a", [2.0, 3.0], [[2.0]], None],
                             ids=["complex", "text", "vector", "matrix", "none"])
    def test_q_must_be_a_real_number(self, q):
        with pytest.raises(DimensionMismatch):
            nme.solve_sda_scalar(1.0, q)

    def test_breakdown(self):
        with pytest.raises(DoublingBreakdown):
            nme.solve_sda_scalar(1.0, 1.0)

    @pytest.mark.parametrize("a", [1e-200, 1e200])
    def test_extreme_scale(self, a):
        # a * a underflows or overflows; x+ = a (3 + sqrt 5) / 2 for q = 3a
        rep = nme.solve_sda_scalar(a, 3.0 * a)
        assert rep.converged
        assert rep.X[0, 0] / a == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-12)

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
        # passes as inf <= inf on an iterate X_1 = -inf; with no errstate
        # here, the overflow in the updates must not escape as a warning
        with pytest.raises(nme.exceptions.SolverFailure) as info:
            solver(nme.new_problem(scalar(1e200), scalar(1.0)))
        assert info.value.report is not None and not info.value.report.converged

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_underflow_ends_typed(self, solver):
        # ||Q||_F underflows to 0 unless it is rescaled; the problem has no
        # solution, so every solver must fail with a report
        with pytest.raises(NmeError) as info:
            solver(nme.new_problem(scalar(1e-170), scalar(1e-300)))
        assert info.value.report is not None and not info.value.report.converged

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.integers(-1000, 1000), n=st.integers(1, 4), seed=st.integers(0, 1000),
           rho=st.sampled_from([0.3, 0.6, 0.9]), solver=st.sampled_from(MATRIX_SOLVERS))
    @example(k=900, n=4, seed=1, rho=0.9, solver=nme.solve_sda)
    @example(k=-1000, n=4, seed=2, rho=0.6, solver=nme.solve_sda)
    @example(k=1000, n=3, seed=3, rho=0.9, solver=nme.solve_newton)
    @example(k=1022, n=4, seed=1, rho=0.6, solver=nme.solve_fixed_point)
    @example(k=1022, n=4, seed=1, rho=0.6, solver=nme.solve_inversion_free)
    @example(k=1022, n=4, seed=1, rho=0.6, solver=nme.solve_newton)
    @example(k=1022, n=4, seed=1, rho=0.6, solver=nme.solve_sda)
    @example(k=1022, n=4, seed=1, rho=0.9, solver=nme.solve_inversion_free)
    def test_homogeneity(self, k, n, seed, rho, solver):
        # (A, Q) -> (2^k A, 2^k Q) maps X to 2^k X, whether or not the
        # squared entries overflow or underflow
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        A, Q = rec.problem.A, rec.problem.Q
        cfg = nme.SolverConfig(max_iter=1000)
        base = solver(rec.problem, cfg)
        scaled = solver(nme.new_problem(np.ldexp(A, k), np.ldexp(Q, k)), cfg)
        assert base.converged and scaled.converged
        assert scaled.iterations == base.iterations
        X = np.ldexp(scaled.X, -k)
        assert np.linalg.norm(X - base.X) <= 1e-12 * np.linalg.norm(base.X)

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_norms_of_a_and_q_overflow(self, solver):
        # every entry is finite, but ||Q||_F and ||A||_F are above finfo.max:
        # the residual, the Schulz start and doubling's ||A_k|| test must
        # not read them as inf
        eye = np.eye(64)
        base = solver(nme.new_problem(0.4 * eye, eye))
        big = solver(nme.new_problem(0.4e308 * eye, 1e308 * eye))
        assert big.converged and big.iterations == base.iterations
        assert np.linalg.norm(big.X / 1e308 - base.X) <= 1e-12 * np.linalg.norm(base.X)

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
        rep = nme.solve_fixed_point(p, nme.SolverConfig(record_history=True))
        est = nme.estimate_rate([h.rel_residual for h in rep.history])
        target = nme.spectral_radius_ratio(p, rep.X) ** 2
        assert est.kind == "linear"
        assert abs(est.rate - target) <= 0.1 * target

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            nme.estimate_rate([1.0, 0.5, 0.25])

    def test_overflowed_step_ends_the_sequence(self):
        # a diverging run whose step norm overflows records inf; it is no sample
        with pytest.raises(InsufficientHistory):
            nme.estimate_rate([1.0, 0.5, math.inf, 0.1, 0.01])
        est = nme.estimate_rate([1.0, 0.5, 0.25, 0.125, math.inf, 1e-3])
        assert est.kind == "linear"
        assert est.rate == pytest.approx(0.5)


class TestReports:
    def test_history_length_matches_iterations(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=15))
        for solver in (nme.solve_fixed_point, nme.solve_inversion_free,
                       nme.solve_newton, nme.solve_sda):
            rep = solver(rec.problem, nme.SolverConfig(record_history=True))
            assert len(rep.history) == rep.iterations
            assert rep.converged
            assert rep.history[-1].rel_residual <= 1e-12
            assert len(rep.iterates) == rep.iterations + 1

    def test_record_history_off(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=16))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=False))
        assert rep.history == [] and rep.iterates == []
        assert rep.estimated_rate is None

    @pytest.mark.parametrize("record_history", [False, True])
    def test_failure_report_counts_accepted_iterates(self, record_history):
        # iterate 3 is indefinite, so the report holds X_2
        p = nme.new_problem(np.array([[0.6, 0.0], [0.1, 0.6]]), np.eye(2))
        with pytest.raises(LostPositiveDefiniteness) as info:
            nme.solve_fixed_point(p, nme.SolverConfig(record_history=record_history))
        assert info.value.iteration == 3
        assert info.value.report.iterations == 2

    @pytest.mark.parametrize("solver", [nme.solve_fixed_point, nme.solve_newton])
    def test_hand_built_indefinite_q(self, solver):
        # NmeProblem skips new_problem's validation, as solve_sda_scalar does
        p = nme.NmeProblem(A=scalar(0.5), Q=scalar(-1.0))
        with pytest.raises(NotPositiveDefinite) as info:
            solver(p)
        assert info.value.name == "Q"

    def test_non_finite_iterate_message(self):
        with pytest.raises(Diverged) as info:
            nme.solve_inversion_free(nme.new_problem(scalar(1e200), scalar(1.0)))
        assert info.value.iteration == 1
        assert "iterate 1 is not finite" in str(info.value)
        assert "grew" not in str(info.value)

    @pytest.mark.parametrize("solver", [nme.solve_sda, nme.solve_newton])
    def test_default_solve_calls_no_eigen_routine(self, solver, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigenvalue routine called")

        for module in (np.linalg, scipy.linalg):
            monkeypatch.setattr(module, "eigvals", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=19))
        rep = solver(rec.problem)
        assert rep.converged
        assert rep.history == [] and rep.iterates == [] and rep.aux_iterates == {}

    @pytest.mark.parametrize("solver", [nme.solve_sda, nme.solve_inversion_free])
    def test_default_solve_calls_no_lu_solve(self, solver, monkeypatch):
        # the residual monitor works from a Cholesky factor
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", forbidden)
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.5, seed=19))
        assert solver(rec.problem).converged

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_history_does_not_change_the_arithmetic(self, solver):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=20))
        off = solver(rec.problem, nme.SolverConfig(max_iter=1000))
        on = solver(rec.problem, nme.SolverConfig(max_iter=1000, record_history=True))
        assert off.iterations == on.iterations
        assert np.array_equal(off.X, on.X)

    @pytest.mark.parametrize("cell", [*((n, rho, None) for n in (1, 2, 8, 32, 128)
                                        for rho in (0.5, 0.9, 0.999, 1.0)),
                                      *((n, rho, eta) for n in (8, 32) for eta in (1.0, 3.0)
                                        for rho in (0.5, 0.9, 0.999, 1.0))],
                             ids=str)
    def test_history_does_not_change_the_doubling_arithmetic(self, cell):
        # a default solve_sda skips the residuals that cannot end the run,
        # history takes every one; the gate may not move a stop on the
        # planted grid (eta None) nor on the non-normal cells
        n, rho, eta = cell

        def outcome(problem, config):
            try:
                rep, exc = nme.solve_sda(problem, config), None
            except NmeError as err:
                rep, exc = err.report, type(err)
            return exc, rep.iterations, rep.X

        for seed in range(5 if eta is None else 4):
            problem = (nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
                       .problem if eta is None else nonnormal_planted(n, rho, eta, seed)[0])
            off = outcome(problem, nme.SolverConfig())
            on = outcome(problem, nme.SolverConfig(record_history=True))
            assert off[:2] == on[:2], seed
            assert np.array_equal(off[2], on[2], equal_nan=True), seed

    def test_rho_ratio_computed_once_on_read(self, monkeypatch):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=21))
        rep = nme.solve_sda(rec.problem)
        calls = []

        def counting(W):
            calls.append(W)
            return spectral_radius(W)

        monkeypatch.setattr(solvers, "spectral_radius", counting)
        expected = nme.spectral_radius_ratio(rec.problem, rep.X)
        assert rep.rho_ratio == expected
        assert rep.rho_ratio == expected
        assert len(calls) == 1
        assert rep.rho_ratio == pytest.approx(0.9, abs=1e-6)

    def test_rho_ratio_singular_x_is_nan(self):
        rep = nme.SolveReport(X=np.zeros((2, 2)), iterations=0, converged=False, A=np.eye(2))
        assert math.isnan(rep.rho_ratio)

    def test_rho_ratio_of_indefinite_x_is_nan(self):
        # an LU solve gives rho 1 here, which says nothing of a maximal solution
        rep = nme.SolveReport(X=np.diag([1.0, -1.0]), iterations=0, converged=False, A=np.eye(2))
        assert math.isnan(rep.rho_ratio)

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_rho_ratio_is_spectral_radius_ratio(self, solver):
        rec = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.8, seed=22))
        rep = solver(rec.problem, nme.SolverConfig(max_iter=1000))
        assert rep.rho_ratio == nme.spectral_radius_ratio(rec.problem, rep.X)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rho_ratio_non_finite_x_is_nan(self, x):
        # dpotrf passes NaN and inf unflagged, so the candidate's finiteness
        # test is what makes these NaN
        rep = nme.SolveReport(X=np.diag([x, 1.0]), iterations=0, converged=False, A=np.eye(2))
        assert math.isnan(rep.rho_ratio)

    def test_rho_ratio_of_partial_report(self):
        p = nme.new_problem(scalar(1.0), scalar(2.0))
        with pytest.raises(MaxIterationsExceeded) as info:
            nme.solve_fixed_point(p, nme.SolverConfig(max_iter=5))
        rep = info.value.report
        assert rep.rho_ratio == nme.spectral_radius_ratio(p, rep.X)
        assert 0.0 < rep.rho_ratio < 1.0

    def test_dispatch(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=2, rho_target=0.3, seed=17))
        rep = nme.solve(rec.problem, nme.Algorithm.NEWTON)
        assert rep.converged

    def test_history_csv(self, tmp_path):
        rec = nme.generate_problem(nme.GeneratorSpec(n=2, rho_target=0.5, seed=18))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=True))
        path = tmp_path / "h.csv"
        nme.write_history_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,rel_residual,step_norm,aux1,aux2"
        assert len(lines) == 1 + rep.iterations
        assert lines[1].startswith("1,")
