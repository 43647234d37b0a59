import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmesolve as nme
from helpers import (MALFORMED_PROBLEMS, count_calls, coupled_identity, match_distance,
                     nonnormal_planted, same_bits, scalar_x_plus)
from nmesolve import problem as problem_module
from nmesolve import solvers
from nmesolve.exceptions import (
    DimensionMismatch,
    EigensolverFailure,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSymmetric,
    OddDimension,
    ProblemFileError,
    ZeroLambda,
)
from nmesolve.problem import _cholesky, cholesky_residual


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

    @pytest.mark.parametrize("big", [10**400, -10**400])
    def test_integer_beyond_float_range_is_non_finite(self, big):
        # astype raises OverflowError for it; the reader types it as NaN/Inf,
        # also for the q of solve_sda_scalar, which is read as Q
        with pytest.raises(NonFiniteInput, match="^A contains NaN/Inf"):
            nme.new_problem([[big]], [[2.0]])
        with pytest.raises(NonFiniteInput):
            nme.new_problem([[1.0]], [[big]])
        with pytest.raises(NonFiniteInput):
            nme.solve_sda_scalar(1.0, big)

    def test_gross_asymmetry_rejected(self):
        Q = np.array([[2.0, 0.5], [0.0, 2.0]])
        with pytest.raises(NotSymmetric):
            nme.new_problem(np.zeros((2, 2)), Q)

    def test_asymmetry_rejected_where_norm_of_q_overflows(self):
        # ||Q||_F and Q - Q^T overflow here, which once made the tolerance inf
        Q = 1.2e308 * np.array([[1.0, 0.9], [-0.9, 1.0]])
        with pytest.raises(NotSymmetric):
            nme.new_problem(np.zeros((2, 2)), Q)

    @pytest.mark.parametrize("tiny", [5e-324, 1.5e-323])
    def test_subnormal_kept_beside_near_overflow(self, tiny):
        # the largest double makes Q + Q^T overflow; halving every entry
        # before adding once rounded 5e-324 to 0 and 1.5e-323 to 2e-323
        Q = np.diag([1.7976931348623157e308, tiny])
        p = nme.new_problem(np.zeros((2, 2)), Q)
        assert np.array_equal(p.Q, Q)

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

    def test_rel_norm_where_norm_of_q_overflows(self):
        # ||Q||_F is above finfo.max while every entry is below it; the
        # relative residual once read 0 here
        p = nme.generate_problem(nme.GeneratorSpec(n=4, rho_target=0.6, seed=1)).problem
        big = nme.new_problem(np.ldexp(p.A, 1022), np.ldexp(p.Q, 1022))
        with np.errstate(over="ignore"):
            assert np.linalg.norm(big.Q) == math.inf
        unit = nme.residual(p, p.Q).rel_norm
        assert unit > 0.1
        assert nme.residual(big, big.Q).rel_norm == pytest.approx(unit, rel=1e-15)

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

    @pytest.mark.parametrize("n", [1, 8, 33])
    def test_memory_order_keeps_the_bits(self, n):
        # C- and F-ordered copies of one exactly symmetric X give one (R, C, Y, G)
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=0.9, seed=n))
        A, Q = rec.problem.A, rec.problem.Q
        X = nme.symmetric_part(rec.known_solution + 0.1 * Q)
        got = [cholesky_residual(A, Q, order(X), 1.0) for order in (np.ascontiguousarray,
                                                                      np.asfortranarray)]
        for i in (0, 3, 4, 5):
            assert same_bits(got[0][i], got[1][i])

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


class TestMatrixAndNorm:
    @pytest.mark.parametrize("big", [1e200, 1e200 + 1e200j], ids=["real", "complex"])
    def test_sum_of_squares_overflow_is_finite(self, big):
        # vdot(M, M) overflows here; the reader scans M and accepts it, and
        # fro_norm rescales, with no RuntimeWarning
        M = np.full((3, 3), big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert problem_module._matrix(M, "M") is M
            assert problem_module.fro_norm(M) == pytest.approx(3.0 * abs(big), rel=1e-15)

    def test_complex_modulus_beyond_the_float_range(self):
        # |z| overflows although re and im do not: the norm is inf, with no warning
        M = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert problem_module.fro_norm(M) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.inf)], ids=["last-nan", "inf-imag"])
    def test_one_non_finite_entry_is_refused(self, bad):
        for scale in (1.0, 1e200):
            M = np.full((16, 16), scale, dtype=type(bad))
            M[-1, -1] = bad
            with pytest.raises(NonFiniteInput):
                problem_module._matrix(M, "M")

    @pytest.mark.parametrize("n", [1, 3, 16, 64, 256])
    def test_fro_norm_is_numpy_norm_bit_for_bit(self, n):
        M = np.random.default_rng(n).standard_normal((n, n))
        for F in (M, np.asfortranarray(M), M[:, ::2]):
            assert problem_module.fro_norm(F) == np.linalg.norm(F)


class TestCholesky:
    @pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
    def test_matches_numpy_in_fortran_order(self, n):
        rng = np.random.default_rng(n)
        B = rng.standard_normal((n, n))
        M = nme.symmetric_part(B @ B.T + n * np.eye(n))
        C = _cholesky(M, "M")
        ref = np.linalg.cholesky(M)
        assert C.flags.f_contiguous
        # dpotrf runs with clean=0: the strict upper triangle, which no caller reads, is M's
        assert np.array_equal(np.triu(C, 1), np.triu(M, 1))
        assert np.max(np.abs(np.tril(C) - ref)) <= 10 * n * np.finfo(float).eps * np.max(np.abs(ref))

    @pytest.mark.parametrize("M", [np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3))],
                             ids=["indefinite", "zero"])
    def test_not_positive_definite_names_the_matrix(self, M):
        with pytest.raises(NotPositiveDefinite, match="^Q_k - P_k is not positive definite") as info:
            _cholesky(M, "Q_k - P_k")
        assert info.value.name == "Q_k - P_k"


class TestCholeskyInverse:
    @staticmethod
    def spd(n, cond):
        # a random orthogonal basis with eigenvalues spread over [1, cond]
        rng = np.random.default_rng(n)
        U = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return np.asfortranarray(nme.symmetric_part((U * np.geomspace(1.0, cond, n)) @ U.T))

    @pytest.mark.parametrize("cond", [1e2, 1e8])
    @pytest.mark.parametrize("n", [65, 96, 130, 256])
    def test_matches_factor_then_dtrtri(self, n, cond):
        # the blocked recursion against the unsplit inverse of the one dpotrf
        # factor, whose own forward error grows as eps kappa(C)^2 = eps kappa(M):
        # at kappa(M) = 1e8 the two differ by 2 to 4 n eps kappa(C), at 1e12 by
        # 200 to 450; M is not written
        M = self.spd(n, cond)
        kept = M.copy()
        got = problem_module._cholesky_inverse(M, "M")
        C = _cholesky(M, "M")
        ref = np.tril(scipy.linalg.lapack.dtrtri(C, lower=1)[0])
        kappa = np.linalg.cond(np.tril(C))
        assert got.flags.f_contiguous and np.array_equal(M, kept)
        assert (np.linalg.norm(np.tril(got) - ref)
                <= n * np.finfo(float).eps * kappa**2 * np.linalg.norm(ref))

    @pytest.mark.parametrize("n, leaves", [(1, 1), (8, 1), (64, 1), (65, 2), (128, 2), (256, 4)])
    def test_one_factor_and_inverse_per_leaf(self, monkeypatch, n, leaves):
        # up to order 64, one dpotrf and one dtrtri with the bits of the
        # unsplit route; above, one of each per leaf of at most 64 rows
        M = self.spd(n, 1e4)
        ref = scipy.linalg.lapack.dtrtri(_cholesky(M, "M"), lower=1, overwrite_c=1)[0]
        calls = count_calls(monkeypatch, "dpotrf", "dtrtri")
        got = problem_module._cholesky_inverse(M, "M")
        assert calls == {"dpotrf": leaves, "dtrtri": leaves}
        assert same_bits(got, ref) == (leaves == 1)

    @pytest.mark.parametrize("n, order", [(96, 3), (96, 50), (256, 200), (256, 256)])
    def test_failure_names_the_global_order(self, n, order):
        # in a leaf of the leading half, or in a Schur complement of a split
        # (order > n // 2), the order named is that of M's own leading minor
        with pytest.raises(NotPositiveDefinite) as info:
            problem_module._cholesky_inverse(coupled_identity(n, order), "D")
        assert str(info.value) == (
            f"D is not positive definite: the leading minor of order {order} is not positive")


class TestCandidateShape:
    @pytest.mark.parametrize("diagnostic", [nme.residual, nme.spectral_radius_ratio,
                                            nme.invariant_subspace_defect])
    def test_wrong_shape_x(self, diagnostic):
        p = nme.new_problem(0.3 * np.eye(2), 2.0 * np.eye(2))
        with pytest.raises(DimensionMismatch):
            diagnostic(p, np.eye(3))
        with pytest.raises(DimensionMismatch):
            diagnostic(p, np.ones((2, 3)))

    @pytest.mark.parametrize("diagnostic", [nme.residual, nme.spectral_radius_ratio,
                                            nme.invariant_subspace_defect])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_x(self, diagnostic, bad):
        p = nme.new_problem([[0.3]], [[2.0]])
        with pytest.raises(NonFiniteInput):
            diagnostic(p, [[bad]])


def _pencil_with(x):
    # x sits in the fixed -I block, whose tolerance test in ssf2_blocks NaN passes
    return nme.SymplecticPencil(M=[[1.0, 0.0], [2.0, x]], L=[[0.0, 1.0], [1.0, 0.0]])


def _critical_pencil():
    return nme.build_pencil(nme.new_problem([[1.0]], [[2.0]]))


def _spec(lam=(1.0,), lam_hat=(0.9,)):
    return nme.ShiftSpec(V=[[1.0], [1.0]], lam=lam, lam_hat=lam_hat, R1=[[1.0], [1.0]],
                         R2=[[0.0], [0.0]])


# each entry point with x put into one caller array; x complex, non-finite,
# non-numeric or a sequence ends in the typed error.  In a vector x sits
# beside a number, so a sequence x makes it ragged
CALLER_ARRAYS = {
    "new_problem A": lambda x: nme.new_problem(np.array([[x]]), [[2.0]]),
    "new_problem Q": lambda x: nme.new_problem([[0.3]], np.array([[x]])),
    "residual": lambda x: nme.residual(nme.new_problem([[0.3]], [[2.0]]), np.array([[x]])),
    "spectral_radius_ratio": lambda x: nme.spectral_radius_ratio(
        nme.new_problem([[0.3]], [[2.0]]), np.array([[x]])),
    "invariant_subspace_defect": lambda x: nme.invariant_subspace_defect(
        nme.new_problem([[0.3]], [[2.0]]), np.array([[x]])),
    "solve_stein L": lambda x: nme.solve_stein(np.array([[x]]), [[1.0]]),
    "solve_stein C": lambda x: nme.solve_stein([[0.5]], np.array([[x]])),
    "SymplecticPencil": _pencil_with,
    "psi": lambda x: nme.psi(nme.new_problem([[0.3]], [[2.0]]), x),
    "solve_sda_scalar a": lambda x: nme.solve_sda_scalar(x, 2.0),
    "solve_sda_scalar q": lambda x: nme.solve_sda_scalar(1.0, x),
    "solve_scalar_shifted a": lambda x: nme.solve_scalar_shifted(x, 2.0),
    "solve_scalar_shifted q": lambda x: nme.solve_scalar_shifted(1.0, x),
    "shift_single v": lambda x: nme.shift_single(_critical_pencil(), [1.0, x], 1.0, 0.9,
                                                 [1.0, 0.0]),
    "shift_single r": lambda x: nme.shift_single(_critical_pencil(), [1.0, 1.0], 1.0, 0.9,
                                                 [1.0, x]),
    "shift_multi lam": lambda x: nme.shift_multi(_critical_pencil(), _spec(lam=[1.0, x])),
    "shift_multi lam_hat": lambda x: nme.shift_multi(_critical_pencil(),
                                                     _spec(lam_hat=[0.9, x])),
    "build_shift_factors lam": lambda x: nme.build_shift_factors([[1.0], [1.0]], [1.0, x],
                                                                 [0.9]),
    "build_shift_factors lam_hat": lambda x: nme.build_shift_factors([[1.0], [1.0]], [1.0],
                                                                     [0.9, x]),
}
BAD_ENTRIES = {"complex": (0.5 + 1j, DimensionMismatch), "nan": (math.nan, NonFiniteInput),
               "inf": (math.inf, NonFiniteInput), "text": ("a", DimensionMismatch),
               "sequence": ([1.0], DimensionMismatch), "none": (None, DimensionMismatch)}
#: entries where complex data is valid: lambda, pencils and the shifting vectors
COMPLEX_VALID = ("SymplecticPencil", "psi", "shift_single v", "shift_single r",
                 "shift_multi lam", "shift_multi lam_hat", "build_shift_factors lam",
                 "build_shift_factors lam_hat")


@pytest.mark.parametrize("entry,kind", [
    (entry, kind) for entry in sorted(CALLER_ARRAYS) for kind in BAD_ENTRIES
    if not (kind == "complex" and entry in COMPLEX_VALID)])
def test_caller_arrays_end_in_typed_errors(entry, kind):
    x, error = BAD_ENTRIES[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would mean a dropped imaginary part
        with pytest.raises(error):
            CALLER_ARRAYS[entry](x)


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

    def test_pencil_is_built_by_its_constructor(self, monkeypatch):
        # build_pencil has no path of its own past the constructor's checks: its
        # factors are read like any caller's, and keep the bits of the blocks
        rec = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.9, seed=5))
        M, L = problem_module._pencil(rec.problem.A, rec.problem.Q)
        calls = []
        matrix = problem_module._matrix

        def reading(F, name, *args, **kwargs):
            calls.append(name)
            return matrix(F, name, *args, **kwargs)

        monkeypatch.setattr(problem_module, "_matrix", reading)
        pen = nme.build_pencil(rec.problem)
        assert calls == ["M", "L"]
        assert same_bits(pen.M, M) and same_bits(pen.L, L)


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

    def test_imaginary_part_kept_at_large_scale(self):
        # ||M||_F overflows in a plain sum of squares; a 10% imaginary part stays
        pen = nme.SymplecticPencil(M=np.array([[1e200, 1e199j], [0.0, 1e200]]), L=np.eye(2))
        assert pen.M.dtype == np.complex128
        assert pen.M[0, 1] == 1e199j

    def test_realness_test_is_homogeneous(self):
        # ||M||_F overflows to inf here, so max |Im M| <= REAL_RTOL ||M||_F
        # held and the imaginary part was dropped; on M / 2^1023 it does not hold
        M = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pen = nme.SymplecticPencil(M=M, L=np.eye(2))
            assert pen.M.dtype == np.complex128 and same_bits(pen.M, M)
            # a negligible imaginary part at the same scale is still dropped
            tiny = nme.SymplecticPencil(M=M.real + 1e290j * np.eye(2), L=np.eye(2))
            assert tiny.M.dtype == np.float64 and same_bits(tiny.M, M.real)

    def test_list_factors_read_as_float_arrays(self):
        pen = nme.SymplecticPencil(M=[[1.0, 0.0], [2.0, -1.0]], L=[[0, 1], [1, 0]])
        ref = nme.build_pencil(nme.new_problem([[1.0]], [[2.0]]))
        assert same_bits(pen.M, ref.M) and same_bits(pen.L, ref.L)

    def test_rejects_empty_factors(self):
        # ssf2_blocks and detect_unimodular raised a raw ValueError on it
        with pytest.raises(DimensionMismatch, match="non-empty"):
            nme.SymplecticPencil(M=np.zeros((0, 0)), L=np.zeros((0, 0)))


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
        # refused when built, so is_symplectic_pencil never sees one
        with pytest.raises(OddDimension, match="dimension 3 is odd"):
            nme.SymplecticPencil(M=np.eye(3, dtype=complex), L=np.eye(3, dtype=complex))

    def test_ssf2_blocks_of_odd_dimension(self):
        # refused when built, so ssf2_blocks never sees one
        with pytest.raises(OddDimension):
            nme.SymplecticPencil(M=np.eye(3), L=np.eye(3))

    def test_large_scale(self):
        # M J M^T overflows in the entries' own scale; the test is homogeneous
        p = nme.generate_problem(nme.GeneratorSpec(n=3, rho_target=0.9, seed=1)).problem
        pen = nme.build_pencil(p)
        assert nme.is_symplectic_pencil(nme.SymplecticPencil(M=1e100 * pen.M, L=1e100 * pen.L))


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

    @pytest.mark.parametrize("lam", [5e-324, -5e-324, 1e-310, 5e-324j, -1e-309 + 5e-324j])
    def test_reciprocal_overflow_is_zero_lambda(self, lam):
        # 1 / lambda is inf, and inf times the 0j of A's entries was a NaN matrix
        with pytest.raises(ZeroLambda):
            nme.psi(nme.new_problem([[0.3]], [[2.0]]), lam)

    @pytest.mark.parametrize("lam", [1e308, -1e308, 1e-308, 2e307j, 1.8e307])
    def test_entry_overflow_is_typed(self, lam):
        # an entry of lambda A or A^T / lambda beyond the float range
        with pytest.raises(NonFiniteInput):
            nme.psi(nme.new_problem(np.diag([1.0, 10.0]), 25.0 * np.eye(2)), lam)

    @pytest.mark.parametrize("a,lam", [
        (10.0, 1.7e307), (10.0, -1.7e307j), (10.0, 1e-307), (0.3, 1e-308),
        (0.3, 2.0 ** -1022), (0.3, -1e-308 + 1e-308j), (10.0, 1.0 + 1e-300j), (0.0, 1e308)])
    def test_values_next_to_the_overflow_keep_their_bits(self, a, lam):
        # where nothing overflows psi is Q + lambda A + (1 / lambda) A^T, bit for bit
        p = nme.new_problem(np.diag([1.0, a]), 25.0 * np.eye(2))
        expected = p.Q.astype(complex) + lam * p.A + (1.0 / lam) * p.A.T
        assert np.isfinite(expected).all() and same_bits(nme.psi(p, lam), expected)

    @pytest.mark.parametrize("a,q,lam", [(0.25e308, 1e308, 3.0), (1e308, 1.7e308, 1.0)])
    def test_sum_overflow_is_typed(self, a, q, lam):
        # no term of psi overflows, but their sum does: it was an inf matrix
        # behind an "overflow encountered in add" warning
        with pytest.raises(NonFiniteInput):
            nme.psi(nme.new_problem(a * np.eye(2), q * np.eye(2)), lam)

    def test_partial_sum_overflow_is_typed(self):
        # Q + lambda A overflows in entry (0, 1) before A^T / lambda takes 1e308 off
        A = np.array([[0.0, 1e308], [-1e308, 0.0]])
        p = nme.new_problem(A, np.array([[1.7e308, 1e308], [1e308, 1.7e308]]))
        with pytest.raises(NonFiniteInput):
            nme.psi(p, 1.0)

    @pytest.mark.parametrize("a,q,lam", [(0.25e308, 1e308, 2.5), (0.5e308, 0.7e308, 1.0)])
    def test_sums_next_to_the_overflow_keep_their_bits(self, a, q, lam):
        p = nme.new_problem(a * np.eye(2), q * np.eye(2))
        expected = p.Q.astype(complex) + lam * p.A + (1.0 / lam) * p.A.T
        assert np.isfinite(expected).all() and same_bits(nme.psi(p, lam), expected)

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

    def test_near_overflow(self):
        # the power of two of an entry in [2^1023, 2^1024) is at most 2^1023
        v = nme.solvability_check(nme.new_problem(0.25e308 * np.eye(2), 1e308 * np.eye(2)))
        assert v.verdict is nme.Verdict.SOLVABLE
        assert v.min_eig_on_circle == pytest.approx(0.5e308, rel=1e-14)

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
        assert v.min_eig_on_circle == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.integers(-1000, 1000), n=st.integers(1, 4), seed=st.integers(0, 1000),
           rho=st.sampled_from([0.3, 0.9, 1.0]))
    @example(k=-1000, n=1, seed=0, rho=1.0)
    @example(k=1000, n=4, seed=3, rho=0.9)
    @example(k=1021, n=4, seed=0, rho=1.0)  # largest entry in [2^1023, 2^1024)
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

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("rho", [0.9, 0.999, 1.0])
    def test_homogeneity_of_the_solve_first_path(self, n, rho):
        # from order SOLVE_FIRST_N on, each twin's verdict doubles its own pair, so the
        # twins agree on the verdict and, within eigvalsh's error, on the minimum; a
        # certified run is kept and solve_sda of the twin returns its own bits
        for seed in range(3):
            rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
            for p in (rec.problem, nme.new_problem(rec.problem.A, rec.problem.Q / 2.0)):
                base = nme.solvability_check(p)
                err = problem_module._eig_error(p.A, p.Q)
                for k in (-1000, -600, 600, 1000, 1021):
                    twin = nme.new_problem(np.ldexp(p.A, k), np.ldexp(p.Q, k))
                    scaled = nme.solvability_check(twin)
                    assert (scaled.verdict, scaled.regular) == (base.verdict, base.regular), (seed, k)
                    assert abs(math.ldexp(scaled.min_eig_on_circle, -k) - base.min_eig_on_circle) <= err
                    kept = "_certified_run" in vars(twin)
                    assert kept == (base.verdict is nme.Verdict.SOLVABLE), (seed, k)
                    if kept:
                        fresh = nme.solve_sda(nme.new_problem(twin.A, twin.Q))
                        assert same_bits(nme.solve_sda(twin).X, fresh.X), (seed, k)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(n=st.integers(1, 4), seed=st.integers(0, 1000),
           rho=st.sampled_from([0.3, 0.9, 0.999, 1.0 - 1e-6, 1.0]))
    @example(n=1, seed=1, rho=1.0)  # Q lowered by 1e-10 lambda_min(Q) falls in the band
    def test_verdict_agrees_with_the_minimum(self, n, seed, rho):
        # NOT_SOLVABLE means a minimum on the circle below -SOLVABILITY_TOL, also
        # where the verdict comes from the arcs alone; Q lowered by c lambda_min(Q)
        # puts the minimum near the tolerance
        p = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed)).problem
        lam = np.linalg.eigvalsh(p.Q)[0]
        for c in (0.0, 1e-12, 1e-10, 1e-8, 0.1):
            q = nme.new_problem(p.A, p.Q - c * lam * np.eye(n))
            v = nme.solvability_check(q)
            scale = problem_module._pow2_scale(max(np.abs(q.A).max(), np.abs(q.Q).max()))
            assert ((v.min_eig_on_circle < -problem_module.SOLVABILITY_TOL * scale)
                    == (v.verdict is nme.Verdict.NOT_SOLVABLE))

    @staticmethod
    def _eigensolver_calls(monkeypatch, forget_analysis):
        """The QZs ("eigvals") and stacked eigvalsh calls in order, with no remembered QZ."""
        calls = []
        for module, name in ((np.linalg, "eigvalsh"), (scipy.linalg, "eigvals")):
            def counted(*args, real=getattr(module, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        forget_analysis()
        return calls

    @pytest.mark.parametrize("n", [8, 32])
    def test_verdict_runs_no_grid(self, monkeypatch, forget_analysis, n):
        # a verdict the solve certifies (from order SOLVE_FIRST_N) runs no 2n-by-2n
        # QZ, and below it one QZ runs: then one stacked eigvalsh of psi at the
        # critical angles and arc midpoints decides; the first read of the
        # minimum takes psi at 0 and pi, then one QZ and one stacked eigvalsh a
        # level; the second runs nothing
        calls = self._eigensolver_calls(monkeypatch, forget_analysis)
        v = nme.solvability_check(
            nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=7)).problem)
        assert v.verdict is nme.Verdict.SOLVABLE
        verdict = ([] if n >= problem_module.SOLVE_FIRST_N else ["eigvals"]) + ["eigvalsh"]
        assert calls == verdict
        first = v.min_eig_on_circle
        levels = calls.count("eigvals") - verdict.count("eigvals")
        assert levels >= 1 and calls[len(verdict):] == ["eigvalsh"] + ["eigvals", "eigvalsh"] * levels
        calls.clear()
        assert same_bits(v.min_eig_on_circle, first)
        assert calls == []

    def test_band_decides_by_the_minimum(self, monkeypatch, forget_analysis):
        # on the arcs lambda_min is above -SOLVABILITY_TOL but below eigvalsh's
        # error; at pi it reads q - 2 < -SOLVABILITY_TOL, and the minimum the
        # check needed is kept
        calls = self._eigensolver_calls(monkeypatch, forget_analysis)
        v = nme.solvability_check(nme.new_problem([[1.0]], [[2.0 - 1e-10]]))
        assert v.verdict is nme.Verdict.NOT_SOLVABLE
        calls.clear()
        assert v.min_eig_on_circle == pytest.approx(-1e-10, rel=1e-6)
        assert calls == []

    @staticmethod
    def _planted_variants(seed, n, rho):
        p = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed)).problem
        return p, nme.new_problem(p.A, p.Q / 2.0), nme.new_problem(-p.A, p.Q)

    @classmethod
    def _count_refinement(cls, monkeypatch, forget_analysis, p):
        # the QZs that _level_min runs, each a level of the level-set iteration;
        # the verdict's own QZ, where its solve does not certify it, is not one
        calls = cls._eigensolver_calls(monkeypatch, forget_analysis)
        levels = []

        def counted(*args, real=problem_module._level_min):
            start = calls.count("eigvals")
            low = real(*args)
            levels.append(calls.count("eigvals") - start)
            return low

        monkeypatch.setattr(problem_module, "_level_min", counted)
        verdict = nme.solvability_check(p)
        verdict.min_eig_on_circle  # the level-set iteration runs by the time it is read
        monkeypatch.undo()
        return verdict, sum(levels)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [1, 8, 32])
    @pytest.mark.parametrize("rho", [0.3, 0.999, 1.0])
    def test_refinement_evaluations(self, monkeypatch, forget_analysis, seed, n, rho):
        # lambda_min of a planted problem is least at 0 or pi, where the
        # iteration starts: one level finds no lower arc
        for p in self._planted_variants(seed, n, rho):
            assert self._count_refinement(monkeypatch, forget_analysis, p)[1] <= 1

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_against_dense_sample(self, seed, n):
        # lambda_min of a planted problem is least at 0 or pi, which the
        # dense sample holds; the check may only go below it by roundoff
        thetas = np.linspace(0.0, math.pi, 4097)
        for rho in (0.3, 0.9, 0.999, 1.0):
            for p in self._planted_variants(seed, n, rho):
                dense = float(problem_module._eigs_on_circle(p.A, p.Q, thetas).min())
                v = nme.solvability_check(p)
                scale = 2.0 ** math.frexp(max(np.max(np.abs(p.A)), np.max(np.abs(p.Q))))[1]
                assert dense - 1e-13 * scale <= v.min_eig_on_circle <= dense
                expected = (nme.Verdict.NOT_SOLVABLE
                            if dense < -problem_module.SOLVABILITY_TOL * scale
                            else nme.Verdict.SOLVABLE)
                assert v.verdict is expected

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("eta", [1.0, 3.0])
    def test_nonnormal_against_dense_sample(self, monkeypatch, forget_analysis, seed, n, eta):
        # lambda_min of these is often least off 0 and pi, and near them it
        # may peak at 0 or pi; the check may not sit above the dense sample
        # by more than roundoff
        thetas = np.linspace(0.0, math.pi, 4097)
        for rho in (0.3, 0.9, 0.999):
            p, _ = nonnormal_planted(n=n, rho=rho, eta=eta, seed=seed)
            dense = float(problem_module._eigs_on_circle(p.A, p.Q, thetas).min())
            v, evaluations = self._count_refinement(monkeypatch, forget_analysis, p)
            scale = 2.0 ** math.frexp(max(np.max(np.abs(p.A)), np.max(np.abs(p.Q))))[1]
            assert v.min_eig_on_circle <= dense + 1e-14 * scale
            assert v.verdict is nme.Verdict.SOLVABLE
            assert evaluations <= 6

    @pytest.mark.parametrize("n, seed", [(8, 2), (32, 3)])
    def test_interior_minimum_found(self, monkeypatch, forget_analysis, n, seed):
        # S = X^{-1} A is not normal here.  At n = 8 lambda_min is least
        # about 0.0224 rad above the grid angle 31 pi / 32; at n = 32 it
        # peaks at pi and is least 0.0234 rad to either side
        p, _ = nonnormal_planted(n=n, rho=0.9, eta=1.0, seed=seed)
        v, evaluations = self._count_refinement(monkeypatch, forget_analysis, p)
        step = math.pi / 32
        thetas = np.linspace(30 * step, 32 * step, 4097)
        dense = float(problem_module._eigs_on_circle(p.A, p.Q, thetas).min())
        # the sample misses the minimum by at most about 4e-8 of its value
        assert dense * (1.0 - 1e-6) <= v.min_eig_on_circle <= dense
        assert evaluations <= 6


class TestCriticalAngles:
    """From order ``SOLVE_FIRST_N`` on, ``problem._critical_angles`` takes the
    angles from a solve whose residual certifies them, and falls back on the QZ
    of ``_crossings`` elsewhere; below that order the QZ runs alone."""

    @staticmethod
    def _qzs(monkeypatch, forget_analysis):
        """The QZs run from now on, with no remembered analysis."""
        calls = count_calls(monkeypatch, "eigvals")
        forget_analysis()
        return calls

    @pytest.mark.parametrize("n", [problem_module.SOLVE_FIRST_N, 32, 64])
    def test_certified_angles_are_the_qz_angles(self, monkeypatch, forget_analysis, n):
        # the unimodular eigenvalues of X^{-1} A put psi's singular angles where
        # the QZ of the pencil puts them, up to the scatter of a defective pair
        qzs = self._qzs(monkeypatch, forget_analysis)
        for seed in range(5):
            p = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=seed)).problem
            for A in (p.A, -p.A):
                _, As, Qs, regular, angles, _, _ = problem_module._critical_angles(A, p.Q)
                assert regular and angles.size and qzs["eigvals"] == 0
                gaps = np.abs(np.subtract.outer(angles, problem_module._crossings(As, Qs)[1]))
                qzs["eigvals"] = 0
                assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-6, seed

    @pytest.mark.parametrize("rho", [0.9, 1.0])
    def test_certified_angles_of_rotations(self, monkeypatch, forget_analysis, rho):
        # A = rho diag(R(theta_k)), Q = (1 + rho^2) I: X_+ = I and S = A, whose
        # eigenvalues rho e^{+-i theta_k} put psi's singular angles at pi - theta_k
        # for rho = 1, and nowhere for rho < 1
        thetas = 0.1 + 0.19 * np.arange(16)
        A = rho * scipy.linalg.block_diag(*(np.array([[math.cos(t), -math.sin(t)],
                                                      [math.sin(t), math.cos(t)]]) for t in thetas))
        qzs = self._qzs(monkeypatch, forget_analysis)
        _, _, _, regular, angles, _, _ = problem_module._critical_angles(A, (1 + rho**2) * np.eye(32))
        assert regular and qzs["eigvals"] == 0
        expected = np.sort(math.pi - thetas) if rho == 1.0 else np.empty(0)
        assert angles.shape == expected.shape and np.allclose(angles, expected, rtol=0, atol=1e-6)

    def test_below_the_order_the_qz_runs_alone(self, monkeypatch, forget_analysis):
        calls = []
        monkeypatch.setattr(solvers, "solve_sda", lambda *args, **kwargs: calls.append(1))
        qzs = self._qzs(monkeypatch, forget_analysis)
        n = problem_module.SOLVE_FIRST_N - 1
        p = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=7)).problem
        assert nme.solvability_check(p).verdict is nme.Verdict.SOLVABLE
        assert calls == [] and qzs["eigvals"] == 1

    def test_failed_solve_falls_back(self, monkeypatch, forget_analysis):
        # doubling breaks down on the unsolvable (A, Q / 2): the QZ decides
        p = nme.generate_problem(nme.GeneratorSpec(n=32, rho_target=1.0, seed=7)).problem
        qzs = self._qzs(monkeypatch, forget_analysis)
        v = nme.solvability_check(nme.new_problem(p.A, p.Q / 2.0))
        assert v.verdict is nme.Verdict.NOT_SOLVABLE and v.regular
        assert qzs["eigvals"] == 1

    def test_large_residual_falls_back(self, monkeypatch, forget_analysis):
        # a solve whose residual is above SOLVABILITY_TOL, in units of the pair's
        # scale s, certifies nothing: the solve is of the unscaled pair
        p = nme.generate_problem(nme.GeneratorSpec(n=32, rho_target=1.0, seed=7)).problem
        expected = nme.solvability_check(p)
        real = solvers.solve_sda

        def loose(problem, *args, **kwargs):
            rep = real(problem, *args, **kwargs)
            s = problem_module._unit_scaled(problem.A, problem.Q)[0]
            rep.rel_residual = 2.0 * problem_module.SOLVABILITY_TOL / problem_module.fro_norm(problem.Q / s)
            return rep

        monkeypatch.setattr(solvers, "solve_sda", loose)
        qzs = self._qzs(monkeypatch, forget_analysis)
        v = nme.solvability_check(p)
        assert qzs["eigvals"] == 1
        assert v == expected

    def test_no_certified_regularity_falls_back(self, monkeypatch, forget_analysis):
        # A = 0 solves at X = Q, but lambda_min(psi) = 1e-20 at every angle taken
        # is below eigvalsh's error: the QZ decides regularity
        n = problem_module.SOLVE_FIRST_N
        qzs = self._qzs(monkeypatch, forget_analysis)
        _, _, _, regular, _, _, _ = problem_module._critical_angles(
            np.zeros((n, n)), np.diag([1.0] * (n - 1) + [1e-20]))
        assert qzs["eigvals"] == 1 and not regular

    def test_eigvals_failure_falls_back(self, monkeypatch, forget_analysis):
        # an n-by-n eigvals that does not converge leaves the answer to the QZ;
        # where the QZ fails too, the error is typed
        p = nme.generate_problem(nme.GeneratorSpec(n=32, rho_target=1.0, seed=7)).problem
        expected = nme.solvability_check(p)
        found = nme.detect_unimodular(nme.build_pencil(p))

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        qzs = self._qzs(monkeypatch, forget_analysis)
        assert nme.solvability_check(p) == expected and qzs["eigvals"] == 1
        again = nme.detect_unimodular(nme.build_pencil(p))
        assert np.array_equal(again.eigenvalues, found.eigenvalues)
        monkeypatch.setattr(scipy.linalg, "eigvals", failing)
        forget_analysis()
        with pytest.raises(EigensolverFailure, match="did not converge"):
            nme.solvability_check(p)


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


    @pytest.mark.parametrize("n", [1, 4, 16])
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_matches_pencil_reference(self, n, rho):
        # the defect as written with the pencil, M U - L U W for U = [I; X],
        # at the planted solution and at random SPD non-solutions
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=n))
        p, pen = rec.problem, nme.build_pencil(rec.problem)
        rng = np.random.default_rng(n)
        G = [rng.standard_normal((n, n)) for _ in range(3)]
        for X in [rec.known_solution] + [g @ g.T + np.eye(n) for g in G]:
            Xs, W = problem_module._candidate_w(p.A, X)
            U = np.vstack([np.eye(n), Xs])
            MU, LUW = pen.M @ U, pen.L @ (U @ W)
            ref = np.linalg.norm(MU - LUW)
            scale = np.linalg.norm(MU) + np.linalg.norm(LUW)
            assert abs(nme.invariant_subspace_defect(p, X) - ref) <= 1e-13 * scale


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


# finite doubles for a problem file: the edges of the exponent range, both
# zeros, subnormals and integral values, then any finite double
FILE_ENTRY = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 3.0,
                     -1024.0, 2.0 ** 53, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 60, 2 ** 60).map(float))


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

    @pytest.mark.parametrize("name", sorted(MALFORMED_PROBLEMS))
    def test_rejects_malformed_file(self, tmp_path, name):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_PROBLEMS[name])
        with pytest.raises(ProblemFileError):
            nme.load_problem(path)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.integers(1, 3).flatmap(lambda n: st.tuples(
               st.lists(FILE_ENTRY, min_size=n * n, max_size=n * n),
               st.lists(st.floats(2.0 ** -400, 2.0 ** 400), min_size=n, max_size=n))),
           negative_zeros=st.booleans())
    @example(case=([-0.0, 5e-324, -0.0, 1.7976931348623157e308], [1.0, 0.1]),
             negative_zeros=True)
    def test_bitwise_round_trip(self, tmp_path_factory, case, negative_zeros):
        # every finite double, -0.0 and subnormals included, reads back as
        # the bits that were written; Q is SPD diagonal, its zeros of either sign
        entries, diag = case
        n = len(diag)
        Q = np.diag(diag)
        if negative_zeros:
            Q[Q == 0.0] = -0.0
        p = nme.new_problem(np.reshape(entries, (n, n)), Q)
        path = tmp_path_factory.mktemp("problem") / "p.json"
        nme.save_problem(p, path)
        loaded = nme.load_problem(path)
        assert same_bits(loaded.A, p.A)
        assert same_bits(loaded.Q, p.Q)

    def test_oracle_solution_survives_round_trip(self, tmp_path):
        a, q = 0.5, 2.0
        path = tmp_path / "p.json"
        nme.save_problem(nme.new_problem([[a]], [[q]]), path)
        p = nme.load_problem(path)
        x = scalar_x_plus(a, q)
        assert nme.residual(p, [[x]]).rel_norm <= 1e-15
