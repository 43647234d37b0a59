import logging
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmesolve as nme
from helpers import (count_calls, coupled_identity, min_eig, nonnormal_planted, same_bits,
                     scalar_x_plus)
from nmesolve import problem as problem_module
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
from nmesolve.problem import _cholesky, cholesky_residual, spectral_radius

MATRIX_SOLVERS = [nme.solve_fixed_point, nme.solve_inversion_free,
                  nme.solve_newton, nme.solve_sda]


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
        with pytest.raises(ValueError):
            nme.SolverConfig(max_iter=5, min_iter=6)
        assert nme.SolverConfig(max_iter=5, min_iter=5).min_iter == 5
        # a tol of 1 or more would pass an unsolvable problem at once: inversion-free
        # would return X = [[-8.0]], which is not SPD, and doubling X = Q
        for tol in (1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                nme.SolverConfig(tol=tol)
        assert nme.SolverConfig(max_iter=np.int64(5)).max_iter == 5

    @pytest.mark.parametrize("tol", ["1e-8", None, True])
    def test_tol_must_be_a_real_number(self, tol):
        # a string or None met the range test as a raw TypeError
        with pytest.raises(ValueError, match="tol"):
            nme.SolverConfig(tol=tol)

    @pytest.mark.parametrize("cls,kwargs", [
        (nme.SolverConfig, {"max_iter": 2.5}),
        (nme.SolverConfig, {"min_iter": 0.5}),
        (nme.GeneratorSpec, {"n": 2.5, "rho_target": 0.5}),
        (nme.GeneratorSpec, {"n": 2, "rho_target": 0.5, "seed": 1.5}),
        (nme.SolverConfig, {"max_iter": True}),
        (nme.SolverConfig, {"min_iter": True}),
        (nme.GeneratorSpec, {"n": True, "rho_target": 0.5}),
        (nme.GeneratorSpec, {"n": 2, "rho_target": 0.5, "seed": False}),
    ], ids=["max_iter", "min_iter", "n", "seed",
            "max_iter-bool", "min_iter-bool", "n-bool", "seed-bool"])
    def test_counts_must_be_integers(self, cls, kwargs):
        # refused when built, not by range() or the generator at solve time; a bool
        # passes numbers.Integral, and max_iter=True would run one iteration
        with pytest.raises(ValueError, match="integer"):
            cls(**kwargs)


class TestFixedPoint:
    def test_zero_a_stops_at_iteration_zero(self):
        # X_0 = Q is tested like every later iterate
        p = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        rep = nme.solve_fixed_point(p, nme.SolverConfig(record_history=True))
        assert rep.converged and rep.iterations == 0
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

    def test_residual_growth_is_divergence(self):
        # x + a^2/x = 1 has no solution for a^2 = (3 - sqrt 5) / 2 > 1/4: the
        # iterates 1, 0.618, 0.382 land at x_3 ~ 1e-9, still positive, whose
        # residual is 1.6e9 times the least so far
        a = math.sqrt(0.3819660111445323)
        with pytest.raises(Diverged, match="grew beyond") as info:
            nme.solve_fixed_point(nme.new_problem(scalar(a), scalar(1.0)))
        assert type(info.value) is Diverged and info.value.iteration == 3

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
        assert rep.converged and rep.iterations == 0
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

    def test_dtgsyl_info_is_a_singular_operator(self, monkeypatch):
        # dtgsyl's info > 0 (close eigenvalues) ends the Schur solve typed; the powers
        # of L = 2I overflow the doubling, and its gaps |1 - 4| pass the rank test
        dtgsyl = scipy.linalg.lapack.dtgsyl
        monkeypatch.setattr(scipy.linalg.lapack, "dtgsyl",
                            lambda *args: (*dtgsyl(*args)[:4], 1))
        with pytest.raises(SingularSteinOperator):
            nme.solve_stein(2.0 * np.eye(3), np.eye(3))

    @pytest.mark.parametrize("L,C", [([[math.nan]], [[1.0]]), ([[0.5]], [[math.inf]])])
    def test_non_finite_input(self, L, C):
        with pytest.raises(NonFiniteInput):
            nme.solve_stein(np.array(L), np.array(C))

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["L", "C"])
    def test_last_non_finite_entry_on_the_fast_path(self, name, bad, scale):
        # float64 arrays are not scanned up front: ||C||_F^2 and ||L||_F^2,
        # which the doubling takes anyway, find the one bad entry, with no warning
        rng = np.random.default_rng(3)
        data = {"L": scale * 0.5 * rng.standard_normal((8, 8)) / np.sqrt(8.0),
                "C": scale * self._random_symmetric(rng, 8)}
        data[name][-1, -1] = bad
        with pytest.raises(NonFiniteInput, match=f"{name} contains"):
            nme.solve_stein(data["L"], data["C"])

    @pytest.mark.parametrize("rho", [0.6, 1.3])
    def test_asymmetric_c_is_its_symmetric_part(self, rho):
        # doubling symmetrizes C / s, the Schur solve C; either gives the bits
        # of a solve with symmetric_part(C)
        rng = np.random.default_rng(9)
        L = rho * rng.standard_normal((8, 8)) / np.sqrt(8.0)
        C = rng.standard_normal((8, 8))
        X = nme.solve_stein(L, C)
        assert same_bits(X, nme.solve_stein(L, nme.symmetric_part(C)))
        assert np.linalg.norm(X - L.T @ X @ L - nme.symmetric_part(C)) <= 1e-12 * np.linalg.norm(X)

    def test_integer_list_and_fortran_inputs(self):
        L, C = [[0, 1], [0, 0]], [[1, 2], [2, 3]]
        X = nme.solve_stein(np.array(L, dtype=float), np.array(C, dtype=float))
        assert np.array_equal(X, [[1.0, 2.0], [2.0, 4.0]])  # C + L^T C L
        for args in ((L, C), (np.array(L), np.array(C)),
                     (np.asfortranarray(L, dtype=float), np.asfortranarray(C, dtype=float))):
            assert same_bits(nme.solve_stein(*args), X)

    def test_finite_l_whose_norm_overflows(self):
        # ||L||_F^2 = 2e308 is inf while every entry is finite: the reading
        # passes it, the doubling gives up and the Schur solve returns X
        L = np.diag([1e154, 1e154])
        assert problem_module._sum_sq(L) == math.inf
        X = nme.solve_stein(L, np.eye(2))
        assert np.array_equal(X, np.diag([1.0, 1.0]) / (1.0 - 1e308))

    @pytest.mark.parametrize("rho", [0.9, 1.3])
    def test_power_of_two_scaling_and_memory_order_keep_bits(self, rho):
        # X / s is formed from C / s, s a power of two of ||C||_F, so scaling C
        # by 2^k scales X by 2^k exactly, on the doubling and the Schur path;
        # the doubling and its check take L in Fortran order, so the memory
        # order changes no bit (at rho = 0.9 a C-ordered L once made the
        # check's L^T X L differ in the last bits and flip its decision)
        rng = np.random.default_rng(0)
        L = rho * rng.standard_normal((32, 32)) / np.sqrt(32.0)
        C = self._random_symmetric(rng, 32)
        X = nme.solve_stein(L, C)
        for k in (-600, -1, 1, 600):
            for lo in "CF":
                for co in "CF":
                    L_o, C_o = np.asarray(L, order=lo), np.asarray(2.0 ** k * C, order=co)
                    assert same_bits(nme.solve_stein(L_o, C_o), 2.0 ** k * X), (k, lo, co)

    @pytest.mark.parametrize("L,X", [
        ([[0.0, 2e154], [0.0, 0.0]], None),  # X = diag(1, 1 + 4e308)
        ([[0.5, 2e154], [0.0, 0.25]], None),
        (np.diag([1.5e154, -1.5e154]), -np.eye(2) / 1.5e154 / 1.5e154),  # 1 / (1 - 2.25e308)
        (np.full((3, 3), 1e154), SingularSteinOperator),  # gaps from 1 to 9e308
    ])
    def test_huge_l_ends_in_a_finite_x_or_a_typed_error(self, L, X):
        # a solution that overflows raises Diverged rather than coming back
        # as NaN, and the Schur solve's eigenvalue gaps are taken over the
        # power of two of max |lambda|, so lambda_i lambda_j cannot overflow
        L = np.array(L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if X is None:
                with pytest.raises(Diverged, match="overflows"):
                    nme.solve_stein(L, np.eye(L.shape[0]))
            elif X is SingularSteinOperator:
                with pytest.raises(SingularSteinOperator):
                    nme.solve_stein(L, np.eye(L.shape[0]))
            else:
                assert np.allclose(nme.solve_stein(L, np.eye(L.shape[0])), X, rtol=1e-12, atol=0.0)

    def test_tiny_c_with_a_huge_nilpotent_l(self):
        # X = C + L^T C L = diag(1e-300, 4e8) is finite, but L^T (C / s) L
        # overflows for s the power of two of ||C||_F; s also takes ||L||_F^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = nme.solve_stein(np.array([[0.0, 2e154], [0.0, 0.0]]), 1e-300 * np.eye(2))
        assert np.allclose(X, np.diag([1e-300, 4e8]), rtol=1e-12, atol=0.0)

    def test_overflow_is_read_per_entry(self):
        # ||X||_F overflows while every entry of X fits, on the doubling path
        # (X = C) and on the Schur path (X = -C / 3); a solution 5e308 does
        # not fit and raises
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            C = 1e308 * np.eye(4)
            assert same_bits(nme.solve_stein(np.zeros((4, 4)), C), C)
            X = nme.solve_stein(2.0 * np.eye(16), 1.7e308 * np.eye(16))
            assert np.allclose(X, -1.7e308 / 3.0 * np.eye(16), rtol=1e-14, atol=0.0)
            with pytest.raises(Diverged, match="overflows"):
                nme.solve_stein(0.9 * np.eye(4), C)

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

    @pytest.mark.parametrize("rho", [0.9, 1.3])
    def test_subnormal_c(self, rho):
        # with every entry of C below 2^-1024, s stops at 2^-1024, so 0.5 / s
        # stays finite; on either path X is C's solution up to the rounding of
        # the subnormal data, 2^-34 relative to 2^-1040
        rng = np.random.default_rng(5)
        L = rho * rng.standard_normal((8, 8)) / np.sqrt(8)
        C = self._random_symmetric(rng, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = nme.solve_stein(L, 2.0 ** -1040 * C)
        ref = nme.solve_stein(L, C)
        assert np.abs(np.ldexp(X, 1040) - ref).max() <= 1e-9 * np.abs(ref).max()

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
        # a stable, near-normal L is summed by doubling with no schur call;
        # rho(L) = 1.46 and a non-normal L whose doubling residual is 8.6e-11
        # go to the Schur solve
        calls = []
        schur = scipy.linalg.schur

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return schur(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", counting)
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

    def test_doubling_accepts_the_same_scalars(self, monkeypatch):
        # the stop on ||L^(2^j)||_F within STEIN_DOUBLINGS = 15 steps sums
        # l = 1 - 2^-k for k <= 10 and leaves k >= 11 to the Schur solve, as
        # 16 steps of the stop on the last term did
        calls = count_calls(monkeypatch, "schur")
        for k in range(1, 16):
            before = calls["schur"]
            ell = 1.0 - 2.0 ** -k
            x = nme.solve_stein([[ell]], [[1.0]])[0, 0]
            assert calls["schur"] - before == (k >= 11), k
            if k <= 10:
                exact = 1.0 / (1.0 - ell * ell)
                assert abs(x - exact) <= 3e-15 * exact, k

    @staticmethod
    def _doubled(L, C):
        """solve_stein's doubling as a loop that always squares: positional
        dgemm, stop on ||M_{j+1}||_F^2.  Returns X, the step count and whether
        ||M_{j}||_F^4 met the bound at the last step j, so that its square is
        not needed."""
        dgemm, ddot = scipy.linalg.blas.dgemm, scipy.linalg.blas.ddot
        s = problem_module._pow2_scale(np.linalg.norm(C))
        X = np.add(C * (0.5 / s), C.T * (0.5 / s), order="F")
        M = np.asfortranarray(L)
        m = [ddot(M.T.ravel(), M.T.ravel())]  # ||M_j||_F^2 over M's Fortran memory
        bound = np.finfo(float).eps / (4.0 * (1.0 + m[0]))
        while len(m) == 1 or m[-1] > bound:
            X = dgemm(1.0, dgemm(1.0, M, X, 0.0, None, 1, 0, 0), M, 1.0, X, 0, 0, 0)
            M = dgemm(1.0, M, M, 0.0, None, 0, 0, 0)
            m.append(ddot(M.T.ravel(), M.T.ravel()))
        return (X + X.T) * 0.5 * s, len(m) - 1, bool(m[-2] * m[-2] <= bound)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_doubling_is_three_dgemm_a_step_in_place(self, order, monkeypatch):
        # X accumulates through dgemm's overwrite_c, in a copy: the arrays
        # the caller passed keep their bits, in either memory order.  The
        # solve makes three dgemm a step and two for the check, no Schur
        # solve, and skips the last squaring where ||M_j||_F^4 meets the
        # bound (seed 7; not seed 28), with the bits of a loop that squares
        for seed, skipped in ((7, True), (28, False)):
            rng = np.random.default_rng(seed)
            L = np.asarray(0.6 * rng.standard_normal((8, 8)) / np.sqrt(8.0), order=order)
            C = np.asarray(self._random_symmetric(rng, 8), order=order)
            L0, C0 = L.copy(), C.copy()
            X0, steps, skip = self._doubled(L, C)
            calls = count_calls(monkeypatch, "dgemm", "schur")
            X = nme.solve_stein(L, C)
            monkeypatch.undo()
            assert skip is skipped and 2 <= steps < solvers.STEIN_DOUBLINGS
            assert calls == {"dgemm": 3 * steps + 2 - skip, "schur": 0}
            assert same_bits(X, X0) and same_bits(L, L0) and same_bits(C, C0)
            assert np.linalg.norm(X - L.T @ X @ L - C) <= 1e-14 * np.linalg.norm(X)

    def test_loose_rtol_stops_the_doubling_early(self, monkeypatch):
        # rho(L) = .999: rtol = 1e-3 stops at ||M_j||_F^2 <= 1e-3 / (4 (1 +
        # ||L||_F^2)), two steps and six dgemm before eps does, and the sum
        # it keeps is within rtol ||X||_F / 4 of the default's
        rng = np.random.default_rng(0)
        L = rng.standard_normal((8, 8))
        L *= 0.999 / spectral_radius(L)
        C = self._random_symmetric(rng, 8)
        runs = {}
        for rtol in (np.finfo(float).eps, 1e-3):
            calls = count_calls(monkeypatch, "dgemm", "schur")
            runs[rtol] = nme.solve_stein(L, C, rtol=rtol), calls
            monkeypatch.undo()
        (X, full), (X_loose, loose) = runs.values()
        assert same_bits(X, nme.solve_stein(L, C))
        assert full["schur"] == loose["schur"] == 0
        assert loose["dgemm"] == full["dgemm"] - 6
        assert 0.0 < np.linalg.norm(X_loose - X) <= 1e-3 / 4.0 * np.linalg.norm(X)

    @pytest.mark.parametrize("rtol", [np.finfo(float).eps, 1e-3, 0.1])
    def test_rho_at_least_one_reaches_the_schur_solve_at_any_rtol(self, rtol, monkeypatch):
        # ||L^(2^j)||_F^2 >= rho(L)^(2^(j+1)) >= 1 never meets a bound below one,
        # so the Schur solve runs, whose X does not depend on rtol
        rng = np.random.default_rng(9)
        L = 1.3 * rng.standard_normal((8, 8)) / np.sqrt(8.0)
        C = self._random_symmetric(rng, 8)
        X = nme.solve_stein(L, C)
        calls = count_calls(monkeypatch, "schur")
        assert same_bits(nme.solve_stein(L, C, rtol=rtol), X)
        with pytest.raises(SingularSteinOperator):
            nme.solve_stein(np.diag([1.0, 0.5]), np.eye(2), rtol=rtol)
        assert calls["schur"] == 2

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_step_buffers_live_only_for_the_call(self, order):
        # each call allocates its own buffers: a second solve on other data
        # writes nothing that the first X or the caller's L and C hold, and
        # the first solve, repeated, gives the same bits
        rng = np.random.default_rng(11)
        Ls = [np.asarray(r * rng.standard_normal((9, 9)) / 3.0, order=order) for r in (0.6, 0.8)]
        Cs = [np.asarray(self._random_symmetric(rng, 9), order=order) for _ in Ls]
        saved = [M.copy(order="K") for M in Ls + Cs]
        X = nme.solve_stein(Ls[0], Cs[0])
        X0 = X.copy()
        assert not np.shares_memory(X, nme.solve_stein(Ls[1], Cs[1]))
        assert same_bits(X, X0) and same_bits(nme.solve_stein(Ls[0], Cs[0]), X0)
        assert all(same_bits(M, M0) for M, M0 in zip(Ls + Cs, saved))

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
        assert rep.converged and rep.iterations == 0
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
        # the exact step is x <- 2x/(x+1); the Stein solve stops at the
        # forcing term eta_k = min(0.1, max(r_k, eps / r_k)), r_k the relative
        # residual of x_k, so each step is the exact one to eta_k of its size
        eps = np.finfo(float).eps
        for x_prev, x_next in zip(xs, xs[1:]):
            r = abs(2.0 - x_prev - 1.0 / x_prev) / 2.0
            eta = min(0.1, max(r, eps / r)) if r else 0.1
            exact = 2.0 * x_prev / (x_prev + 1.0)
            assert abs(x_next - exact) <= eta * abs(exact - x_prev)
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

    def test_aux1_is_rho_of_the_previous_iterate(self):
        # record k holds rho(L_{k-1}) = rho(X_{k-1}^{-1} A), the L of the step to
        # X_k like its step_norm: record 1 reads rho(Q^{-1} A)
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=3))
        rep = nme.solve_newton(rec.problem, nme.SolverConfig(record_history=True))
        assert len(rep.history) >= 4
        for h in rep.history:
            expected = nme.spectral_radius_ratio(rec.problem, rep.iterates[h.k - 1])
            assert h.aux1 == pytest.approx(expected, rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("n", [16, 24, 32])
    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.999])
    def test_no_schur_solve_on_bench_sized_cells(self, n, rho, monkeypatch):
        calls = count_calls(monkeypatch, "schur")
        for seed in range(3):
            rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
            rep = nme.solve_newton(rec.problem)
            X_plus = rec.known_solution
            assert rep.converged
            assert np.linalg.norm(rep.X - X_plus) <= 1e-9 * np.linalg.norm(X_plus)
        assert calls["schur"] == 0

    def test_stein_solves_go_through_the_module_global(self, monkeypatch):
        # a tracer that wraps solvers.solve_stein sees every Stein solve
        calls = []
        stein = solvers.solve_stein

        def counting(L, C, **kwargs):
            calls.append(L.shape)
            return stein(L, C, **kwargs)

        monkeypatch.setattr(solvers, "solve_stein", counting)
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=4))
        rep = nme.solve_newton(rec.problem)
        assert rep.converged and calls == [(8, 8)] * rep.iterations

    def test_stein_dgemm_count_on_a_bench_cell(self, monkeypatch):
        # the inexact Stein solves of a newton-stein cell: 345 dgemm over 12
        # iterations (408 when every solve ran its doubling to eps)
        rec = nme.generate_problem(nme.GeneratorSpec(n=24, rho_target=0.999, seed=0))
        calls = count_calls(monkeypatch, "dgemm", "schur")
        rep = nme.solve_newton(rec.problem)
        assert rep.converged and rep.iterations == 12
        assert calls == {"dgemm": 345, "schur": 0}

    @pytest.mark.parametrize("A", [np.zeros((2, 2)), np.diag([0.5, 1.0])])
    def test_forcing_term(self, A, monkeypatch):
        # rtol = min(0.1, max(r_k, eps / r_k)), r_k the relative residual of
        # X_k; at A = 0, r_k = 0 and min_iter runs take 0.1, where E_k = 0
        rtols = []
        stein = solvers.solve_stein
        monkeypatch.setattr(solvers, "solve_stein",
                            lambda L, C, rtol: rtols.append(rtol) or stein(L, C, rtol=rtol))
        p = nme.new_problem(A, np.diag([2.0, 4.0]))
        rep = nme.solve_newton(p, nme.SolverConfig(min_iter=2, record_history=True))
        r = [nme.residual(p, X).rel_norm for X in rep.iterates[:-1]]
        eps = np.finfo(float).eps
        assert rtols == [min(0.1, max(r_k, eps / r_k)) if r_k else 0.1 for r_k in r]
        if not A.any():
            assert rtols == [0.1, 0.1] and same_bits(rep.X, p.Q) and rep.iterations == 2

    def test_checked_data_is_not_read_again(self, monkeypatch):
        # the Stein data are built from the checked problem, so solve_stein
        # takes its fast path and no caller array is read in the loop
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=4))
        calls = []
        matrix = problem_module._matrix

        def reading(M, name, *args, **kwargs):
            calls.append(name)
            return matrix(M, name, *args, **kwargs)

        monkeypatch.setattr(problem_module, "_matrix", reading)
        rep = nme.solve_newton(rec.problem)
        assert rep.converged and rep.iterations >= 3 and calls == []

    def test_stein_c_is_exactly_symmetric(self, monkeypatch):
        # C_k = R(X_k) = Q - X_k - G with G = Y^T Y from the residual's Cholesky factor
        seen = []
        stein = solvers.solve_stein
        monkeypatch.setattr(solvers, "solve_stein",
                            lambda L, C, **kwargs: seen.append(C) or stein(L, C, **kwargs))
        rec = nme.generate_problem(nme.GeneratorSpec(n=16, rho_target=0.99, seed=2))
        rep = nme.solve_newton(rec.problem)
        assert rep.converged and len(seen) == rep.iterations > 2
        assert all(np.array_equal(C, C.T) for C in seen)

    def test_schur_failure_is_typed(self, monkeypatch):
        # schur's LinAlgError (dgees info > 0: no QR convergence) is a
        # SolverFailure with Newton's partial report, never a raw LinAlgError.
        # A stable L is solved by doubling, so both inputs have rho(L) = 1 or
        # more to reach schur
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")

        monkeypatch.setattr(scipy.linalg, "schur", failing)
        with pytest.raises(SolverFailure, match="no Schur form of L") as info:
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
        ("info", "the leading minor of order 2 is not positive"),
        ("nan", "its Cholesky factor holds NaN"),
    ], ids=["info", "nan"])
    def test_factorization_failure_is_breakdown(self, monkeypatch, fault, detail):
        # a dpotrf that fails on the step's D, or that is handed a D holding
        # NaN and passes it with info 0 (as dpotrf does), ends the run at that
        # step; without the NaN test it would iterate on NaN to max_iter
        dpotrf = scipy.linalg.lapack.dpotrf

        def failing(D, **kwargs):
            if fault == "info":
                return dpotrf(D, **kwargs)[0], 2
            D = np.array(D)
            D[-1, -1] = math.nan
            return dpotrf(D, **kwargs)

        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.9, seed=19))
        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", failing)
        with pytest.raises(DoublingBreakdown) as info:
            nme.solve_sda(rec.problem)
        assert info.value.iteration == 1 and info.value.report.iterations == 0
        assert isinstance(info.value.__cause__, NotPositiveDefinite)
        assert str(info.value.__cause__) == f"Q_k - P_k is not positive definite: {detail}"

    def test_nan_in_the_trailing_block_is_breakdown(self, monkeypatch):
        # a NaN that enters D's trailing block at step 2 reaches the blocked
        # inverse only through the Schur complement, and ends the run there
        kernel, seen = solvers._cholesky_inverse, []

        def poisoned(M, name):
            seen.append(M.shape[0])
            if len(seen) == 2:
                M = M.copy(order="F")
                M[-1, -2] = math.nan
            return kernel(M, name)

        rec = nme.generate_problem(nme.GeneratorSpec(n=96, rho_target=0.9, seed=3))
        monkeypatch.setattr(solvers, "_cholesky_inverse", poisoned)
        with pytest.raises(DoublingBreakdown) as info:
            nme.solve_sda(rec.problem)
        assert seen == [96, 96] and info.value.iteration == 2
        assert info.value.report.iterations == 1
        assert str(info.value.__cause__) == (
            "Q_k - P_k is not positive definite: its Cholesky factor holds NaN")

    def test_factors_d_once_per_step(self, monkeypatch):
        # one dpotrf of D = Q_k - P_k per step, before that of the residual of
        # Q_{k+1}; the gate holds Q_0 out, and history has no record of it; no LU
        calls = {name: [] for name in ("dpotrf", "dgetrf", "dgetrs")}

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
        assert len(calls["dpotrf"]) == 2 * rep.iterations
        for D, Qk, Pk in zip(calls["dpotrf"][::2], qs, ps):
            assert np.array_equal(D, Qk - Pk)
        for M, Qk in zip(calls["dpotrf"][1::2], qs[1:]):
            assert np.array_equal(M, Qk)

    def test_one_factor_and_three_products_per_step(self, monkeypatch):
        # the step inverts D's Cholesky factor once and applies it by one
        # triangular product, with no Bunch-Kaufman factor or permutation;
        # the updates are one dgemm and two dsyrk whose triangles are
        # copied, so no symmetric_part runs
        rec = nme.generate_problem(nme.GeneratorSpec(n=6, rho_target=0.9, seed=19))
        calls = count_calls(monkeypatch, "dtrtri", "dtrmm", "dgemm", "dsyrk",
                            "dsytrf", "dsyconv", "dlaswp")
        symmetrized = []
        for module in (solvers, problem_module):
            monkeypatch.setattr(module, "symmetric_part", symmetrized.append)
        rep = nme.solve_sda(rec.problem)
        assert rep.converged and rep.iterations >= 4
        assert calls == {"dtrtri": rep.iterations, "dtrmm": rep.iterations,
                         "dgemm": rep.iterations, "dsyrk": 2 * rep.iterations,
                         "dsytrf": 0, "dsyconv": 0, "dlaswp": 0}
        assert symmetrized == []

    @pytest.mark.parametrize("n, ill_conditioned",
                             [(16, False), (16, True), (96, False), (96, True)],
                             ids=["False", "True", "96-False", "96-True"])
    def test_step_is_the_blocks_of_w_transpose_w(self, n, ill_conditioned):
        # one step against W_i^T W_j, [W_1, W_2] = C^{-1} [A, A^T] for the
        # Cholesky factor C of D = Q, and against the dense solve; Q_1 and P_1
        # exactly symmetric.  At n = 96 the step's C^{-1} is blocked
        if ill_conditioned:
            Q, A = TestSpdSolve.ill_conditioned_spd(n, seed=4)
        else:
            rng = np.random.default_rng(4)
            M = rng.standard_normal((n, n))
            Q, A = M @ M.T + n * np.eye(n), rng.standard_normal((n, n))
        A *= 0.1 * math.sqrt(min_eig(Q)) / np.linalg.norm(A, 2)
        p = nme.new_problem(A, Q)
        A1, Q1, P1 = TestSpdSolve.first_step(p.A, p.Q)
        W = scipy.linalg.solve_triangular(_cholesky(p.Q, "D"), np.concatenate((A, A.T), axis=1),
                                          lower=True)
        W1, W2 = W[:, :n], W[:, n:]
        for got, ref in ((A1, W2.T @ W1), (Q1, p.Q - W1.T @ W1), (P1, W2.T @ W2)):
            assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
        TestSpdSolve.assert_step_matches(p.A, p.Q, A1, Q1, P1)
        assert np.array_equal(Q1, Q1.T) and np.array_equal(P1, P1.T)

    def test_residual_only_where_it_can_end_the_run(self, monkeypatch):
        # the early steps of a quadratic run skip the residual; history
        # takes one per record, and Q_0 has none
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
        assert len(calls) == rep.iterations

    def test_no_residual_of_q0_above_the_gate(self, monkeypatch):
        # ||A||_F is far above RESIDUAL_GATE sqrt(tol) ||Q||_F, so Q_0 = Q
        # cannot end the run and its residual is skipped, also with history,
        # which has no record of Q_0; A = 0 (the k = 0 stop) still takes it
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
        assert tested and not any(np.array_equal(X, problem.Q) for X in tested)
        tested.clear()
        zero = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        assert nme.solve_sda(zero).iterations == 0
        assert len(tested) == 1 and np.array_equal(tested[0], zero.Q)

    def test_debug_logs_the_residual_of_gated_steps_and_changes_no_bit(self, monkeypatch, caplog):
        # DEBUG logging has the driver take the residual of each Q_k that the
        # gate holds out (a None residual), for its line only: every line reads
        # a finite residual, and X and the iteration count keep their bits
        calls = []

        def counted(*args):
            calls.append(1)
            return cholesky_residual(*args)

        monkeypatch.setattr(solvers, "cholesky_residual", counted)
        problem = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.999, seed=0)).problem
        plain = nme.solve_sda(problem)
        assert plain.converged and plain.iterations + 1 - len(calls) >= 3  # gated steps
        with caplog.at_level(logging.DEBUG, logger="nmesolve.solvers"):
            logged = nme.solve_sda(problem)
        residuals = [float(re.search(r"rel_residual=(\S+)", record.getMessage()).group(1))
                     for record in caplog.records if "rel_residual=" in record.getMessage()]
        assert len(residuals) == logged.iterations and all(map(math.isfinite, residuals))
        assert logged.iterations == plain.iterations and same_bits(logged.X, plain.X)

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
    """The doubling step's SPD solve, seen through solve_sda: D = Q_k - P_k =
    C C^T and C^{-1} by ``problem._cholesky_inverse``, W = C^{-1} [A_k, A_k^T]
    by ``dtrmm``, and at n = 1 the sqrt-free t = A_k (A_k / D)."""

    @staticmethod
    def ill_conditioned_spd(n, seed):
        # SPD blocks [[1e-3, 1], [1, 1e4]] (for which Bunch-Kaufman would take
        # the 1e4 pivot first; Cholesky needs no pivoting) plus a PSD coupling,
        # in a random symmetric order
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        D = 1e-2 * M @ M.T / n
        D += scipy.linalg.block_diag(*[[[1e-3, 1.0], [1.0, 1e4]]] * (n // 2), np.eye(n % 2))
        order = rng.permutation(n)
        return D[order][:, order], rng.standard_normal((n, n))

    @staticmethod
    def first_step(A, Q):
        """A_1, Q_1 and P_1 of solve_sda on the (possibly hand-built) pair (A, Q)."""
        try:
            rep = nme.solve_sda(problem_module.NmeProblem(A=A, Q=Q),
                                nme.SolverConfig(max_iter=1, record_history=True))
        except SolverFailure as exc:
            rep = exc.report
        return rep.aux_iterates["A"][1], rep.iterates[1], rep.aux_iterates["P"][1]

    @staticmethod
    def assert_step_matches(A, D, A1, Q1, P1):
        # the blocks of B^T D^{-1} B, B = [A, A^T], by a dense solve
        B = np.concatenate((A, A.T), axis=1)
        ref, n = B.T @ np.linalg.solve(D, B), A.shape[0]
        tol = 1e-14 * (np.linalg.norm(D) + np.linalg.cond(D) * np.linalg.norm(ref))
        for got, want in ((Q1, D - ref[:n, :n]), (A1, ref[n:, :n]), (P1, ref[n:, n:])):
            assert np.linalg.norm(got - want) <= tol

    @pytest.mark.parametrize("n,seed", [(1, 0), (8, 1), (64, 10)])
    def test_matches_dense_solve(self, n, seed):
        D, A = self.ill_conditioned_spd(n, seed)
        p = nme.new_problem(A, D)
        self.assert_step_matches(p.A, p.Q, *self.first_step(p.A, p.Q))

    def test_fortran_right_hand_side_is_overwritten(self, monkeypatch):
        # dtrmm writes W over the Fortran-ordered [A_k, A_k^T]: no copy
        dtrmm, shared = scipy.linalg.blas.dtrmm, []

        def recorded(alpha, a, b, **kwargs):
            W = dtrmm(alpha, a, b, **kwargs)
            shared.append(b.flags.f_contiguous and np.shares_memory(W, b))
            return W

        monkeypatch.setattr(scipy.linalg.blas, "dtrmm", recorded)
        rep = nme.solve_sda(nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9)).problem)
        assert rep.converged and shared == [True] * rep.iterations

    @pytest.mark.parametrize("a,d", [(1.0, 2.0), (0.375, 1.25), (-3.0, 0.75), (1.0, 3.0)])
    def test_scalar_is_one_division(self, a, d):
        A1, Q1, P1 = self.first_step(scalar(a), scalar(d))
        t = a * (a / d)
        assert (A1.tolist(), Q1.tolist(), P1.tolist()) == ([[t]], [[d - t]], [[t]])

    @pytest.mark.parametrize("D,detail", [
        ([[0.1, 1.0], [1.0, 0.1]], "the leading minor of order 2 is not positive"),
        ([[1.0, 0.0], [0.0, -1.0]], "the leading minor of order 2 is not positive"),
        ([[math.nan]], "its Cholesky factor holds NaN"),
        ([[0.0, 0.0], [0.0, 0.0]], "the leading minor of order 1 is not positive"),
        (coupled_identity(96, 50), "the leading minor of order 50 is not positive"),
    ], ids=["2x2-pivot", "negative-pivot", "nan", "zero", "schur-complement"])
    def test_not_spd_raises(self, D, detail):
        # a hand-built Q that is not SPD is the first step's D; the first case
        # has a positive diagonal (Bunch-Kaufman would take it as one 2x2 pivot),
        # and the last fails only in the Schur complement of the step's split at
        # k = 48, so the order named is k + 2
        D = np.array(D)
        with pytest.raises(DoublingBreakdown) as info:
            nme.solve_sda(problem_module.NmeProblem(A=np.ones(D.shape), Q=D))
        assert info.value.iteration == 1
        assert str(info.value.__cause__) == f"Q_k - P_k is not positive definite: {detail}"


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

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_q_rejected(self, q):
        # q is read as the Q of new_problem([[a]], [[q]])
        with pytest.raises(NonFiniteInput, match="^Q contains NaN/Inf"):
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

    @pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
    def test_inversion_free_where_max_q_is_subnormal(self, n):
        # Y_0 = I / ||Q||_inf overflowed there, and the run ended Diverged with its report at X_0
        s = 2.0 ** -1030
        for seed in range(3):
            rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=0.5, seed=seed))
            unit = nme.solve_inversion_free(rec.problem)
            tiny = nme.solve_inversion_free(nme.new_problem(s * rec.problem.A, s * rec.problem.Q))
            assert tiny.converged and tiny.iterations == unit.iterations
            assert np.abs(tiny.X / s - unit.X).max() <= 4.2e-14 * np.abs(unit.X).max()

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
        # a hand-built NmeProblem skips new_problem's validation, so q = inf
        # reaches the doubling, which must not call its X converged
        with pytest.raises(Diverged) as info:
            nme.solve_sda(nme.NmeProblem(A=scalar(1.0), Q=scalar(math.inf)))
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

    def test_linear_rate_is_below_the_stall_ratio(self):
        # Newton on this non-normal critical cell ends in LostPositiveDefiniteness with
        # growing steps (its last ratios 140 and 1.47); a linear rate reads the window
        # the stall test reads, so it stays below STALL_RATIO and below 1
        problem, _ = nonnormal_planted(32, 1.0, 3.0, 0)
        with pytest.raises(LostPositiveDefiniteness) as info:
            nme.solve_newton(problem)
        est = info.value.report.estimated_rate
        assert est.kind != "linear" or est.rate < solvers.STALL_RATIO


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
        # history off keeps no records or iterates, but the step sizes and so the rate
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=16))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=False))
        assert rep.history == [] and rep.iterates == []
        assert len(rep.step_norms) == rep.iterations
        assert rep.estimated_rate == nme.RateEstimate("quadratic")

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_default_solve_fits_no_rate(self, solver, monkeypatch):
        # the rate is fitted when it is first read, never at the stop, and only once
        calls = []
        fit = solvers.estimate_rate
        monkeypatch.setattr(solvers, "estimate_rate", lambda steps: calls.append(steps) or fit(steps))
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=16))
        rep = solver(rec.problem)
        assert rep.converged and calls == []
        assert rep.estimated_rate is not None and rep.estimated_rate is rep.estimated_rate
        assert calls == [rep.step_norms]

    @pytest.mark.parametrize("rho", [0.9, 1.0])
    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_step_norms_do_not_depend_on_history(self, solver, rho):
        # one rate path: history off and on give the same step sizes and rate,
        # and each history record holds its step's size
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=5))
        reps = []
        for history in (False, True):
            try:
                reps.append(solver(rec.problem, nme.SolverConfig(max_iter=60, record_history=history)))
            except MaxIterationsExceeded as exc:
                reps.append(exc.report)
        off, on = reps
        assert len(off.step_norms) >= 4 and all(type(step) is float for step in off.step_norms)
        assert same_bits(np.array(off.step_norms), np.array(on.step_norms))
        assert [h.step_norm for h in on.history] == on.step_norms
        assert off.estimated_rate == on.estimated_rate is not None

    @pytest.mark.parametrize("rho", [0.9, 1.0])
    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_step_norms_measure_the_step(self, solver, rho):
        # doubling's step size is tr(Q_{k-1} - Q_k) = ||W_1||_F^2, the others'
        # ||X_k - X_{k-1}||_F, to the rounding of the difference of the iterates
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=rho, seed=3))
        try:
            rep = solver(rec.problem, nme.SolverConfig(max_iter=60, record_history=True))
        except MaxIterationsExceeded as exc:
            rep = exc.report
        xs = rep.iterates
        size = np.trace if solver is nme.solve_sda else np.linalg.norm
        steps = [size(prev - x if solver is nme.solve_sda else x - prev)
                 for prev, x in zip(xs, xs[1:])]
        assert len(steps) == len(rep.step_norms) >= 6
        tol = 8 * np.finfo(float).eps * np.linalg.norm(rec.problem.Q)
        assert np.abs(np.array(rep.step_norms) - steps).max() <= tol

    def test_scalar_doubling_step_is_t(self):
        # at n = 1 doubling's step size is t = a_k^2 / (q_k - p_k) = q_k - q_{k+1},
        # exact on the dyadic critical scalar
        rep = nme.solve_sda_scalar(1.0, 2.0, nme.SolverConfig(record_history=True))
        qs = [float(q[0, 0]) for q in rep.iterates]
        assert rep.step_norms == [prev - q for prev, q in zip(qs, qs[1:])]
        assert rep.estimated_rate.kind == "linear"
        assert rep.estimated_rate.rate == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("n", [1, 8, 33])
    def test_w0_is_the_cho_solve_of_q(self, n, monkeypatch):
        # Newton's L_1 = W_0 is two right-side triangular solves on the
        # factor of X_0 = Q: Y^T = A^T C^{-T}, whose Y gives G_0 = Y^T Y, then
        # W_0^T = Y^T C^{-1}; it is cho_solve's W_0 to rounding
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=0.9, seed=n))
        A, Q = rec.problem.A, rec.problem.Q
        *_, C, Y, G0 = solvers._Run(A, Q, None, "test").factored_residual(Q)
        assert same_bits(C, _cholesky(Q, "Q"))
        Yt = scipy.linalg.blas.dtrsm(1.0, C, A.T, side=1, lower=1, trans_a=1)
        assert same_bits(Y, Yt.T)
        assert same_bits(G0, Y.T @ Y) and np.array_equal(G0, G0.T)
        seen = []
        stein = solvers.solve_stein
        monkeypatch.setattr(solvers, "solve_stein",
                            lambda L, C, **kwargs: seen.append(L) or stein(L, C, **kwargs))
        nme.solve_newton(rec.problem)
        assert same_bits(seen[0], scipy.linalg.blas.dtrsm(1.0, C, Yt, side=1, lower=1).T)
        W0 = scipy.linalg.cho_solve(scipy.linalg.cho_factor(Q, lower=True), A)
        assert np.linalg.norm(seen[0] - W0) <= 4 * n * np.finfo(float).eps * np.linalg.norm(W0)

    @pytest.mark.parametrize("solver", [nme.solve_newton, nme.solve_fixed_point, nme.solve_sda])
    def test_blas_gets_fortran_arrays(self, solver, monkeypatch):
        # every triangular solve and Cholesky factor of a solve at n = 8 is
        # handed Fortran-contiguous arrays, so f2py makes no transposed copy
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=8))
        handed = []
        for module, name in ((scipy.linalg.blas, "dtrsm"), (scipy.linalg.lapack, "dpotrf")):
            def call(*args, _routine=getattr(module, name), **kwargs):
                handed.extend(a.flags.f_contiguous for a in args if isinstance(a, np.ndarray))
                return _routine(*args, **kwargs)
            monkeypatch.setattr(module, name, call)
        assert solver(rec.problem).converged
        assert handed and all(handed)

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
        # a hand-built NmeProblem skips new_problem's validation; X_0 = Q is
        # the first iterate to lose positive definiteness, and its report
        # records the message
        p = nme.NmeProblem(A=scalar(0.5), Q=scalar(-1.0))
        with pytest.raises(LostPositiveDefiniteness) as info:
            solver(p)
        assert "iterate 0 is not positive definite" in str(info.value)
        assert info.value.report.failure == str(info.value)

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_x0_is_tested_like_every_iterate(self, solver):
        # every solver yields X_0 = Q first and takes its residual by the
        # route of its later iterates
        zero = nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
        for record_history in (False, True):
            rep = solver(zero, nme.SolverConfig(record_history=record_history))
            assert rep.converged and rep.iterations == 0 and same_bits(rep.X, zero.Q)
        Q = np.array([[1.0, 0.0], [0.0, -1.0]])
        expected = {nme.solve_fixed_point: (LostPositiveDefiniteness, 0),
                    nme.solve_newton: (LostPositiveDefiniteness, 0),
                    nme.solve_inversion_free: (Diverged, 0),
                    nme.solve_sda: (DoublingBreakdown, 1)}[solver]
        with pytest.raises(SolverFailure) as info:
            solver(nme.NmeProblem(A=0.5 * np.eye(2), Q=Q))
        assert (type(info.value), info.value.iteration) == expected
        report = info.value.report
        assert report.iterations == 0 and same_bits(report.X, Q)
        assert report.failure == str(info.value)

    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_overflowing_x0_residual(self, solver):
        # A^T Q^{-1} A and ||A / s||_F overflow: X_0's residual ends the three
        # monitored solvers at X_0, while doubling's own test at k = 0 stays
        # A = 0, so it runs to the non-finite Q_1 as before
        with pytest.raises(Diverged) as info:
            solver(nme.new_problem(scalar(1e10), scalar(1e-300)))
        assert info.value.iteration == (1 if solver is nme.solve_sda else 0)
        if solver is not nme.solve_sda:
            assert same_bits(info.value.report.X, scalar(1e-300))

    @pytest.mark.parametrize("record_history", [False, True])
    def test_newton_stein_data_overflow(self, record_history):
        # G_0 = a^2 / q = 1.44e308 leaves R(X_0) = -G_0 finite, and the Stein
        # solve gives E_0 = R / (1 - a^2) = 1: X_1 = 2 rises above Q at iterate 1
        with pytest.raises(Diverged) as info:
            nme.solve_newton(nme.new_problem(scalar(1.2e154), scalar(1.0)),
                             nme.SolverConfig(record_history=record_history))
        assert info.value.iteration == 1 and "iterate 1 rose above Q" in str(info.value)
        assert info.value.report.iterations == 0 and same_bits(info.value.report.X, scalar(1.0))

    def test_newton_stein_solution_overflow(self):
        # q = 1e308 and a just below it have no solution: L_0 = a / q is
        # 1 - 1e-10, and E_0 = R / (1 - L_0^2) overflows in solve_stein
        with pytest.raises(Diverged, match="iterate 1 is not finite") as info:
            nme.solve_newton(nme.new_problem(scalar(1e308 * (1.0 - 1e-10)), scalar(1e308)))
        assert info.value.iteration == 1
        assert info.value.report.iterations == 0 and same_bits(info.value.report.X, scalar(1e308))

    def test_non_finite_iterate_message(self):
        # R(X_0) overflows: the run ends at X_0, not as a residual that grew
        with pytest.raises(Diverged) as info:
            nme.solve_inversion_free(nme.new_problem(scalar(1e200), scalar(1.0)))
        assert info.value.iteration == 0
        assert "iterate 0 is not positive definite or its residual overflows" in str(info.value)
        assert "grew" not in str(info.value)

    @pytest.mark.parametrize("record_history", [False, True])
    def test_rejected_iterate_is_not_reported(self, record_history):
        # q < 2|a|, so there is no solution: X_7 has no Cholesky factor, and
        # the failure at iterate 7 reports X_6, the last iterate accepted
        with pytest.raises(Diverged) as info:
            nme.solve_inversion_free(nme.new_problem(scalar(0.6), scalar(1.0)),
                                     nme.SolverConfig(record_history=record_history))
        rep = info.value.report
        assert info.value.iteration == 7 and rep.iterations == 6
        assert rep.X[0, 0] == pytest.approx(0.2165014, rel=1e-6)
        assert not record_history or same_bits(rep.X, rep.iterates[6])

    @pytest.mark.parametrize("a, q, exc_cls, iteration", [(1e200, 1.0, DoublingBreakdown, 2),
                                                          (1e10, 1e-300, Diverged, 1)])
    def test_sda_accepts_no_iterate_with_an_infinite_residual(self, a, q, exc_cls, iteration):
        # R(Q_0) overflows and Q_1 is -inf: doubling runs on past both, but
        # accepts neither, so the failure reports X_0 = Q at iteration 0
        with pytest.raises(exc_cls) as info:
            nme.solve_sda(nme.new_problem(scalar(a), scalar(q)))
        assert info.value.iteration == iteration
        assert info.value.report.iterations == 0 and same_bits(info.value.report.X, scalar(q))

    def test_gated_iterates_are_tested_before_a_report_holds_them(self):
        # q < 2|a|: Q_0, Q_1 = 5/6 and Q_2 = -11/6 lie beyond doubling's
        # residual gate, so no residual of them is tested, with history or
        # without; the breakdown at 3 tests Q_2, finds it indefinite, then
        # Q_1, whose residual is finite, and reports Q_1; the history shows
        # Q_2's residual as inf
        reports = []
        for record_history in (False, True):
            with pytest.raises(DoublingBreakdown) as info:
                nme.solve_sda(nme.new_problem(scalar(1.0), scalar(1.5)),
                              nme.SolverConfig(record_history=record_history))
            assert info.value.iteration == 3
            reports.append(info.value.report)
        assert reports[0].iterations == reports[1].iterations == 1
        q1 = scalar(1.5 - 1.0 / 1.5)
        assert same_bits(reports[0].X, q1) and same_bits(reports[1].X, q1)
        assert [math.isfinite(h.rel_residual) for h in reports[1].history] == [True, False]

    def test_grown_residual_reports_the_iterate_before(self):
        # a residual beyond DIVERGENCE_FACTOR x its minimum rejects X_k: the
        # report carries X_{k-1} (the class of this cell, not its k, is pinned)
        problem, _ = nonnormal_planted(8, 0.999, 3.0, 0)
        with pytest.raises(Diverged, match="grew beyond") as info:
            nme.solve_newton(problem, nme.SolverConfig(record_history=True))
        rep, k = info.value.report, info.value.iteration
        assert rep.iterations == k - 1 and len(rep.iterates) == k + 1
        assert same_bits(rep.X, rep.iterates[k - 1])

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

    @pytest.mark.parametrize("solver,A,Q", [
        (nme.solve_sda, 1e200 * np.random.default_rng(0).standard_normal((3, 3)), np.eye(3)),
        (nme.solve_newton, 1e180 * np.array([[1.0, 2.0], [3.0, 4.0]]), 1e-214 * np.eye(2)),
    ], ids=["sda", "newton"])
    def test_history_does_not_change_the_failure(self, solver, A, Q):
        # Q_k - P_k and Newton's L_k overflow: their history-only diagnostics
        # read NaN rather than end the run in eigvalsh's or eigvals' LinAlgError;
        # Newton's R(X_0) overflows too, so its run ends at X_0 either way
        problem, outcomes = nme.new_problem(A, Q), []
        for record_history in (False, True):
            with pytest.raises(NmeError) as info:
                solver(problem, nme.SolverConfig(record_history=record_history))
            outcomes.append((type(info.value), info.value.iteration))
        assert outcomes[0] == outcomes[1] == (
            (DoublingBreakdown, 2) if solver is nme.solve_sda else (Diverged, 0))
        assert math.isnan(info.value.report.history[-1].aux2 if solver is nme.solve_sda
                          else spectral_radius(np.full((2, 2), math.inf)))

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

    @pytest.mark.parametrize("case", ["converged", "max-iter", "gated-x0", "overflowing-x0",
                                      "gated-overflowing-x0", "not-spd-x0"])
    @pytest.mark.parametrize("solver", MATRIX_SOLVERS)
    def test_rel_residual_is_that_of_x(self, solver, case, monkeypatch):
        # the report keeps the residual its run took of X, bit for bit that of
        # residual(problem, X): of a converged X, of the X a failure reports, of
        # X_0 = Q, which doubling's gate holds out and the breakdown on (2I, I)
        # adopts (the other three reject X_1 back to it), and of a Q whose residual
        # overflows, which no run accepts (inf), also where doubling's gate holds
        # it out (A = 1e200); none is measured a second time when the report is made.
        # Only a hand-built Q that is not SPD, where an update raises before it
        # yields X_0 or doubling's gate holds X_0 out untested, is measured then: inf
        kept = []
        report = solvers._Run.report
        monkeypatch.setattr(solvers._Run, "report",
                            lambda run, *args: kept.append(run.out.rel_residual) or report(run, *args))
        problem, config = {
            "converged": (nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.5)).problem,
                          None),
            "max-iter": (nme.generate_problem(nme.GeneratorSpec(n=32, rho_target=0.999)).problem,
                         nme.SolverConfig(max_iter=3)),
            "gated-x0": (nme.new_problem(2.0 * np.eye(3), np.eye(3)), None),
            "overflowing-x0": (nme.new_problem(scalar(1e10), scalar(1e-300)), None),
            "gated-overflowing-x0": (nme.new_problem(scalar(1e200), scalar(1.0)), None),
            "not-spd-x0": (problem_module.NmeProblem(A=np.ones((2, 2)), Q=np.diag([1.0, -1.0])),
                           None)}[case]
        try:
            rep = solver(problem, config)
        except SolverFailure as exc:
            assert case != "converged"
            assert case != "max-iter" or type(exc) is MaxIterationsExceeded
            rep = exc.report
        assert rep.converged == (case == "converged")
        assert len(kept) == 1 and (case == "not-spd-x0" or not math.isnan(kept[0]))
        if case == "not-spd-x0":  # the public residual refuses an X that is not SPD
            with pytest.raises(NotPositiveDefinite):
                nme.residual(problem, rep.X)
        else:
            assert rep.rel_residual == nme.residual(problem, rep.X).rel_norm
        if case == "gated-x0":
            assert rep.iterations == 0 and rep.rel_residual == 4.0
        if case.endswith(("overflowing-x0", "not-spd-x0")):
            assert rep.iterations == 0 and rep.rel_residual == math.inf

    def test_hand_built_report_has_no_residual(self):
        assert math.isnan(nme.SolveReport(X=np.eye(2), iterations=0, converged=True).rel_residual)

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

    def test_rho_ratio_without_a_is_nan(self):
        assert math.isnan(nme.SolveReport(X=np.eye(2), iterations=0, converged=True).rho_ratio)

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

    def test_rho_ratio_of_overflowing_w_is_nan(self):
        # X is finite and SPD, but X^{-1} A = 1e600 overflows: NaN, not
        # eigvals' LinAlgError
        X, A = np.diag([1e-300, 1.0]), 1e300 * np.eye(2)
        rep = nme.SolveReport(X=X, iterations=0, converged=False, A=A)
        assert math.isnan(rep.rho_ratio)
        assert math.isnan(nme.spectral_radius_ratio(nme.new_problem(A, np.eye(2)), X))

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

    def test_dispatch_by_name(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=17))
        by_name, by_member = (nme.solve(rec.problem, a) for a in ("sda", nme.Algorithm.SDA))
        assert same_bits(by_name.X, by_member.X)
        assert by_name.iterations == by_member.iterations
        # a raw KeyError before Algorithm read its own names
        message = "unknown algorithm 'bogus'; choose from fixed-point, inversion-free, newton, sda"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            nme.solve(rec.problem, "bogus")

    def test_history_csv(self, tmp_path):
        rec = nme.generate_problem(nme.GeneratorSpec(n=2, rho_target=0.5, seed=18))
        rep = nme.solve_sda(rec.problem, nme.SolverConfig(record_history=True))
        path = tmp_path / "h.csv"
        nme.write_history_csv(rep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "k,rel_residual,step_norm,aux1,aux2"
        assert len(lines) == 1 + rep.iterations
        assert lines[1].startswith("1,")
