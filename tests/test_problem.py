import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmesolve as nme
from helpers import match_distance, scalar_x_plus
from nmesolve import solvers
from nmesolve.exceptions import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    OddDimension,
    ProblemFileError,
    ZeroLambda,
)
from nmesolve.problem import cholesky_residual


class TestNewProblem:
    def test_zero_a(self):
        p = nme.new_problem([[0.0]], [[1.0]])
        assert p.n == 1
        assert p.A[0, 0] == 0.0

    def test_critical_scalar(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        assert p.Q[0, 0] == 2.0

    def test_negative_q_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            nme.new_problem([[1.0]], [[-1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nme.new_problem(np.eye(2), np.eye(3))
        with pytest.raises(DimensionMismatch):
            nme.new_problem(np.ones((2, 3)), np.eye(2))

    def test_empty_rejected(self):
        # an empty problem would reach the solvers and fail there with a raw
        # ZeroDivisionError or ValueError
        with pytest.raises(DimensionMismatch):
            nme.new_problem(np.zeros((0, 0)), np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteInput):
            nme.new_problem([[bad]], [[1.0]])
        with pytest.raises(NonFiniteInput):
            nme.new_problem([[1.0]], [[bad]])

    def test_gross_asymmetry_rejected(self):
        Q = np.array([[2.0, 0.5], [0.0, 2.0]])
        with pytest.raises(NotSymmetric):
            nme.new_problem(np.zeros((2, 2)), Q)

    def test_tiny_asymmetry_symmetrized(self):
        Q = np.array([[2.0, 1e-14], [0.0, 2.0]])
        p = nme.new_problem(np.zeros((2, 2)), Q)
        assert np.array_equal(p.Q, p.Q.T)


class TestResidual:
    def test_zero_a_solution(self):
        p = nme.new_problem(np.zeros((2, 2)), np.eye(2))
        r = nme.residual(p, np.eye(2))
        assert r.fro_norm == 0.0
        assert r.rel_norm == 0.0

    def test_critical_solution(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        r = nme.residual(p, [[1.0]])
        assert abs(r.fro_norm) <= 1e-15

    def test_scalar_value(self):
        # q - x - a^2/x = 2 - 2 - 0.5 = -0.5
        p = nme.new_problem([[1.0]], [[2.0]])
        r = nme.residual(p, [[2.0]])
        assert r.matrix[0, 0] == pytest.approx(-0.5, abs=1e-15)
        assert r.fro_norm == pytest.approx(0.5, abs=1e-15)
        assert r.rel_norm == pytest.approx(0.25, abs=1e-15)

    def test_requires_spd(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        with pytest.raises(NotPositiveDefinite):
            nme.residual(p, [[-1.0]])

    def test_indefinite_x_has_infinite_residual(self):
        # the kernel refuses X; the solvers' monitor reads that as residual inf
        p = nme.new_problem(0.3 * np.eye(3), 2.0 * np.eye(3))
        X = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefinite):
            cholesky_residual(p.A, p.Q, X, 2.0 * math.sqrt(3.0))
        assert solvers._Run(p.A, p.Q, None, "monitor").residual(X) == math.inf

    def test_exactly_symmetric(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=32, rho_target=0.9, seed=3))
        rng = np.random.default_rng(3)
        E = rng.standard_normal((32, 32))
        R = nme.residual(rec.problem, rec.known_solution + 1e-3 * (E + E.T)).matrix
        assert np.array_equal(R, R.T)

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_matches_lu_formula(self, n):
        # the reference: W = X^{-1} A by LU, R = sym(Q - X - A^T W)
        for seed in range(4):
            for rho in (0.5, 0.9, 0.999, 1.0):
                rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
                A, Q = rec.problem.A, rec.problem.Q
                for X in (rec.known_solution, Q):
                    R_lu = nme.symmetric_part(Q - X - A.T @ np.linalg.solve(X, A))
                    ref = np.linalg.norm(R_lu) / np.linalg.norm(Q)
                    assert abs(nme.residual(rec.problem, X).rel_norm - ref) <= 1e-14, (seed, rho)


class TestCandidateShape:
    @pytest.mark.parametrize("diagnostic", [nme.residual, nme.spectral_radius_ratio,
                                            nme.invariant_subspace_defect])
    def test_wrong_shape_x(self, diagnostic):
        p = nme.new_problem(0.3 * np.eye(2), 2.0 * np.eye(2))
        with pytest.raises(DimensionMismatch):
            diagnostic(p, np.eye(3))
        with pytest.raises(DimensionMismatch):
            diagnostic(p, np.ones((2, 3)))


class TestBuildPencil:
    def test_scalar_blocks(self):
        pen = nme.build_pencil(nme.new_problem([[1.0]], [[2.0]]))
        assert np.array_equal(pen.M.real, [[1.0, 0.0], [2.0, -1.0]])
        assert np.array_equal(pen.L.real, [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_a_blocks(self):
        pen = nme.build_pencil(nme.new_problem([[0.0]], [[1.0]]))
        assert np.array_equal(pen.M.real, [[0.0, 0.0], [1.0, -1.0]])
        assert np.array_equal(pen.L.real, [[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed,n,rho", [(0, 2, 0.4), (1, 5, 0.9), (2, 8, 1.0)])
    def test_always_symplectic(self, seed, n, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        pen = nme.build_pencil(rec.problem)
        assert nme.is_symplectic_pencil(pen)

    def test_ssf2_blocks_roundtrip(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.5, seed=11))
        A, Q, P = nme.ssf2_blocks(nme.build_pencil(rec.problem))
        assert np.allclose(A, rec.problem.A)
        assert np.allclose(Q, rec.problem.Q)
        assert np.allclose(P, 0.0)


class TestSymplecticPencil:
    def test_zero_imaginary_part_stored_real(self):
        pen = nme.SymplecticPencil(M=np.eye(2, dtype=complex),
                                   L=np.array([[0.0, 1.0], [1.0, 1e-12j]]))
        assert pen.M.dtype == np.float64 and pen.L.dtype == np.float64
        assert np.array_equal(pen.L, [[0.0, 1.0], [1.0, 0.0]])

    def test_imaginary_part_above_tolerance_kept(self):
        pen = nme.SymplecticPencil(M=np.eye(2), L=np.array([[0.0, 1.0], [1.0, 1e-8j]]))
        assert pen.M.dtype == np.float64 and pen.L.dtype == np.complex128
        with pytest.raises(ValueError, match="imaginary"):
            nme.ssf2_blocks(pen)


class TestIsSymplecticPencil:
    def test_scalar_pencil_true(self):
        assert nme.is_symplectic_pencil(nme.build_pencil(nme.new_problem([[1.0]], [[2.0]])))

    def test_mismatched_factors_false(self):
        pen = nme.SymplecticPencil(M=np.eye(2, dtype=complex),
                                   L=np.diag([1.0, 2.0]).astype(complex))
        assert not nme.is_symplectic_pencil(pen)

    def test_identity_pair_true(self):
        pen = nme.SymplecticPencil(M=np.eye(2, dtype=complex), L=np.eye(2, dtype=complex))
        assert nme.is_symplectic_pencil(pen)

    def test_odd_dimension(self):
        pen = nme.SymplecticPencil(M=np.eye(3, dtype=complex), L=np.eye(3, dtype=complex))
        with pytest.raises(OddDimension):
            nme.is_symplectic_pencil(pen)


class TestPsi:
    def test_scalar_on_circle(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            lam = complex(math.cos(theta), math.sin(theta))
            val = nme.psi(p, lam)[0, 0]
            assert val == pytest.approx(2 * math.cos(theta) + 2.0, abs=1e-14)

    def test_zero_a(self):
        p = nme.new_problem(np.zeros((2, 2)), np.diag([1.0, 3.0]))
        assert np.allclose(nme.psi(p, 0.7 + 0.2j), p.Q)

    def test_boundary_value(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        assert abs(nme.psi(p, -1.0)[0, 0]) <= 1e-15

    def test_zero_lambda(self):
        with pytest.raises(ZeroLambda):
            nme.psi(nme.new_problem([[1.0]], [[2.0]]), 0.0)

    def test_hermitian_on_circle(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.7, seed=3))
        for theta in (0.3, 1.1, 2.9):
            H = nme.psi(rec.problem, complex(math.cos(theta), math.sin(theta)))
            asym = np.linalg.norm(H - H.conj().T)
            assert asym <= 1e-13 * np.linalg.norm(H)


class TestSolvabilityCheck:
    def test_critical_case_solvable(self):
        v = nme.solvability_check(nme.new_problem([[1.0]], [[2.0]]))
        assert v.verdict is nme.Verdict.SOLVABLE
        assert v.min_eig_on_circle == pytest.approx(0.0, abs=1e-14)
        assert v.regular

    def test_unsolvable(self):
        v = nme.solvability_check(nme.new_problem([[1.0]], [[1.0]]))
        assert v.verdict is nme.Verdict.NOT_SOLVABLE
        assert v.min_eig_on_circle == pytest.approx(-1.0, abs=1e-12)

    def test_zero_a_solvable(self):
        v = nme.solvability_check(nme.new_problem(np.zeros((2, 2)), np.eye(2)))
        assert v.verdict is nme.Verdict.SOLVABLE

    @pytest.mark.parametrize("seed,rho", [(4, 0.3), (5, 1.0)])
    def test_generated_problems_solvable(self, seed, rho):
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=rho, seed=seed))
        assert nme.solvability_check(rec.problem).verdict is nme.Verdict.SOLVABLE

    def test_dip_between_samples(self):
        # A = R(phi): lambda_min(psi(e^{i theta})) = q + 2 cos(theta + phi) dips
        # to q - 2 = -1e-6 on an arc about 2e-3 wide around pi - phi, which
        # falls between the sample angles
        phi = math.pi / 512
        A = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        v = nme.solvability_check(nme.new_problem(A, (2.0 - 1e-6) * np.eye(2)))
        assert v.verdict is nme.Verdict.NOT_SOLVABLE
        assert v.min_eig_on_circle == pytest.approx(-1e-6, abs=1e-12)

    def test_small_scale_solvable(self):
        rec = nme.generate_problem(nme.GeneratorSpec(n=64, rho_target=0.9, seed=1))
        p = nme.new_problem(1e-6 * rec.problem.A, 1e-6 * rec.problem.Q)
        v = nme.solvability_check(p)
        assert v.verdict is nme.Verdict.SOLVABLE and v.regular
        assert v.min_eig_on_circle > 0.0

    def test_singular_pencil_inconclusive(self):
        # det psi(lambda) = 1 - 1 = 0 for every lambda, while psi >= 0 on the circle
        v = nme.solvability_check(nme.new_problem([[0.0, 0.0], [1.0, 0.0]], np.eye(2)))
        assert not v.regular
        assert v.verdict is nme.Verdict.INCONCLUSIVE

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.integers(-1000, 1000), n=st.integers(1, 4), seed=st.integers(0, 1000),
           rho=st.sampled_from([0.3, 0.9, 1.0]))
    @example(k=-1000, n=1, seed=0, rho=1.0)
    @example(k=1000, n=4, seed=3, rho=0.9)
    def test_homogeneity(self, k, n, seed, rho):
        # (A, Q) -> (2^k A, 2^k Q) keeps the verdict and scales the minimum by 2^k
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        A, Q = rec.problem.A, rec.problem.Q
        for p in (rec.problem, nme.new_problem(A, 0.5 * Q)):
            base = nme.solvability_check(p)
            scaled = nme.solvability_check(nme.new_problem(np.ldexp(p.A, k), np.ldexp(p.Q, k)))
            assert scaled.verdict is base.verdict
            assert scaled.regular == base.regular
            assert math.ldexp(scaled.min_eig_on_circle, -k) == pytest.approx(
                base.min_eig_on_circle, rel=1e-12, abs=0.0)


class TestSpectralRadiusRatio:
    def test_critical(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        assert nme.spectral_radius_ratio(p, [[1.0]]) == pytest.approx(1.0, abs=1e-14)

    def test_zero_a(self):
        p = nme.new_problem(np.zeros((3, 3)), np.eye(3))
        assert nme.spectral_radius_ratio(p, 2 * np.eye(3)) == 0.0

    def test_shifted_scalar(self):
        r = 0.9
        p = nme.new_problem([[1.0]], [[r + 1.0 / r]])
        assert nme.spectral_radius_ratio(p, [[1.0 / r]]) == pytest.approx(r, abs=1e-13)


class TestInvariantSubspaceDefect:
    def test_critical_solution(self):
        p = nme.new_problem([[1.0]], [[2.0]])
        assert nme.invariant_subspace_defect(p, [[1.0]]) <= 1e-14

    def test_zero_a(self):
        Q = np.diag([2.0, 5.0])
        p = nme.new_problem(np.zeros((2, 2)), Q)
        assert nme.invariant_subspace_defect(p, Q) <= 1e-14

    def test_scalar_nonsolution(self):
        # block expansion leaves exactly |q - x - a^2/x| = 0.5
        p = nme.new_problem([[1.0]], [[2.0]])
        assert nme.invariant_subspace_defect(p, [[2.0]]) == pytest.approx(0.5, abs=1e-14)

    def test_matches_residual_vanishing(self):
        rng = np.random.default_rng(9)
        rec = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.6, seed=9))
        p = rec.problem
        tol = 1e-12 * np.linalg.norm(p.Q)
        # the planted solution zeroes both diagnostics
        assert nme.residual(p, rec.known_solution).fro_norm <= tol
        assert nme.invariant_subspace_defect(p, rec.known_solution) <= tol
        # random SPD non-solutions zero neither
        for _ in range(5):
            W = rng.standard_normal((4, 4))
            X = W @ W.T + np.eye(4)
            assert nme.residual(p, X).fro_norm > tol
            assert nme.invariant_subspace_defect(p, X) > tol


class TestReciprocalSpectrum:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairing(self, seed):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.6, seed=seed))
        pen = nme.build_pencil(rec.problem)
        eigs = scipy.linalg.eigvals(pen.M, pen.L)
        finite = np.array([w for w in eigs if np.isfinite(w) and 1e-6 < abs(w) < 1e6])
        # lambda and 1/lambda both occur, matched as multisets
        recip = 1.0 / finite
        assert match_distance(finite, recip) <= 1e-8 * max(1.0, np.max(np.abs(finite)))


class TestProblemFiles:
    def test_round_trip(self, tmp_path):
        rec = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.4, seed=2))
        path = tmp_path / "p.json"
        nme.save_problem(rec.problem, path)
        loaded = nme.load_problem(path)
        assert np.array_equal(loaded.A, rec.problem.A)
        assert np.array_equal(loaded.Q, rec.problem.Q)

    def test_rejects_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "A": [float("nan")], "Q": [1.0]}))
        with pytest.raises(ProblemFileError):
            nme.load_problem(path)

    def test_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "A": [1.0, 2.0], "Q": [1.0, 0.0, 0.0, 1.0]}))
        with pytest.raises(ProblemFileError):
            nme.load_problem(path)

    def test_rejects_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "A": [0.0]}))
        with pytest.raises(ProblemFileError):
            nme.load_problem(path)

    def test_oracle_solution_survives_round_trip(self, tmp_path):
        a, q = 0.5, 2.0
        path = tmp_path / "p.json"
        nme.save_problem(nme.new_problem([[a]], [[q]]), path)
        p = nme.load_problem(path)
        x = scalar_x_plus(a, q)
        assert nme.residual(p, [[x]]).rel_norm <= 1e-15
