import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmesolve as nme
from helpers import (conjugate_inconsistent_shift, match_distance, nonnormal_planted,
                     pencil_with_spectrum, same_bits)
from nmesolve.shifting import EIGENPAIR_RTOL, _critical_shift
from nmesolve.exceptions import (
    ConjugateClosureViolated,
    DimensionMismatch,
    DoublingBreakdown,
    EigensolverFailure,
    NonFiniteInput,
    NotAnEigenpair,
    NotCriticalCase,
    NotNormalized,
    NotPositiveDefinite,
    ProblemFileError,
    RankDeficientV,
    ReciprocalPairingWarning,
    RepeatedEigenvalue,
    SpecInvariantViolated,
    Stagnated,
)


def critical_pencil(a=1.0):
    return nme.build_pencil(nme.new_problem([[a]], [[2.0 * a]]))


def oracle_eigs(pen):
    return scipy.linalg.eigvals(pen.M, pen.L)


class TestShiftSingle:
    def test_stage_one_matrices(self):
        pen = critical_pencil()
        out = nme.shift_single(pen, [1.0, 1.0], 1.0, 0.9, [1.0, 0.0])
        assert np.allclose(out.M.real, [[0.9, 0.0], [1.9, -1.0]], atol=1e-15)
        assert np.allclose(out.L, pen.L)

    def test_equal_targets_is_identity(self):
        pen = critical_pencil()
        out = nme.shift_single(pen, [1.0, 1.0], 1.0, 1.0, [1.0, 0.0])
        assert np.array_equal(out.M, pen.M)
        assert np.array_equal(out.L, pen.L)

    def test_rejects_non_eigenpair(self):
        pen = critical_pencil()
        with pytest.raises(NotAnEigenpair):
            nme.shift_single(pen, [1.0, 0.0], 1.0, 0.9, [1.0, 0.0])

    def test_rejects_non_eigenpair_at_large_scale(self):
        # the bound (||M|| + |lambda| ||L||) ||v|| must not overflow to inf
        pen = nme.build_pencil(nme.new_problem([[1e200]], [[3e200]]))
        with pytest.raises(NotAnEigenpair):
            nme.shift_single(pen, [1.0, 0.0], 5.0, 0.5, [1.0, 0.0])

    def test_rejects_non_eigenpair_where_the_bound_overflows(self):
        # |lambda| ||L||_F is above finfo.max, so the bound is taken of
        # (M, L) divided by a power of two
        pen = nme.build_pencil(nme.new_problem([[0.5e308]], [[1.5e308]]))
        with pytest.raises(NotAnEigenpair):
            nme.shift_single(pen, [1.0, 0.0], 5.0, 0.5, [1.0, 0.0])

    def test_rejects_vector_of_other_dimension(self):
        with pytest.raises(DimensionMismatch, match="pencil dimension"):
            nme.shift_single(critical_pencil(), [1.0, 1.0, 0.0], 1.0, 0.9, [1.0, 0.0, 0.0])

    def test_rejects_unnormalized_r(self):
        pen = critical_pencil()
        with pytest.raises(NotNormalized):
            nme.shift_single(pen, [1.0, 1.0], 1.0, 0.9, [0.5, 0.0])

    @pytest.mark.parametrize("field", ["v", "lambda0", "lambda1", "r"])
    def test_rejects_non_finite_input(self, field):
        # NaN passes a test written resid > tol, so each input is checked
        args = {"v": [1.0, 1.0], "lambda0": 1.0, "lambda1": 0.5, "r": [1.0, 0.0]}
        args[field] = [math.nan, 1.0] if field in ("v", "r") else math.nan
        with pytest.raises(NonFiniteInput, match=field):
            nme.shift_single(critical_pencil(), **args)

    def test_non_finite_pencil_is_no_eigenpair(self):
        # a NaN pencil is refused when it is built, so no shift is made from it
        pen = critical_pencil()
        with pytest.raises(NonFiniteInput):
            pen = nme.SymplecticPencil(M=np.where(pen.M == 0.0, math.nan, pen.M), L=pen.L)
            nme.shift_single(pen, [1.0, 1.0], 1.0, 0.5, [1.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replaces_exactly_one_eigenvalue(self, seed):
        rng = np.random.default_rng(seed)
        pen, spectrum, pairs = pencil_with_spectrum(rng, [0.3, 0.8, 1.6, 2.5])
        lam, v = pairs[1]
        r = v.conj() / np.dot(v.conj(), v)  # any r with r^T v = 1
        out = nme.shift_single(pen, v, lam, 0.45, r)
        expected = spectrum.copy()
        expected[1] = 0.45
        assert match_distance(oracle_eigs(out), expected) <= 1e-8

    @pytest.mark.parametrize("seed", [3, 4])
    def test_determinant_ratio_identity(self, seed):
        rng = np.random.default_rng(seed)
        pen, spectrum, pairs = pencil_with_spectrum(rng, [0.4, 1.1, 2.0, 3.1])
        lam0, v = pairs[2]
        lam1 = 0.25
        out = nme.shift_single(pen, v, lam0, lam1, v.conj() / np.dot(v.conj(), v))
        for _ in range(20):
            probe = complex(*rng.uniform(-2, 2, 2))
            if min(abs(probe - lam0), abs(probe - lam1)) < 0.05:
                continue
            lhs = np.linalg.det(out.M - probe * out.L) * (lam0 - probe)
            rhs = np.linalg.det(pen.M - probe * pen.L) * (lam1 - probe)
            assert abs(lhs - rhs) <= 1e-8 * (abs(lhs) + abs(rhs))


class TestShiftMulti:
    def test_single_column_matches_shift_single(self):
        pen = critical_pencil()
        lam0, lam1 = 1.0, 0.9
        r = np.array([1.0, 0.0])
        v = np.array([1.0, 1.0])
        ref = nme.shift_single(pen, v, lam0, lam1, r)
        spec = nme.ShiftSpec(V=v.reshape(2, 1).astype(complex),
                             lam=np.array([lam0], dtype=complex),
                             lam_hat=np.array([lam1], dtype=complex),
                             R1=((lam1 - lam0) * r).reshape(2, 1).astype(complex),
                             R2=np.zeros((2, 1), dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = nme.shift_multi(pen, spec)
        assert np.allclose(out.M, ref.M, atol=1e-15)
        assert np.allclose(out.L, ref.L, atol=1e-15)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_two_stage_shift_restores_structure(self, a, r):
        # relocate the defective unit eigenvalue pair {1, 1} to {r, 1/r}
        pen = critical_pencil(a)
        stage1 = nme.shift_single(pen, [1.0, a], 1.0, r, [1.0, 0.0])
        assert np.allclose(stage1.M.real, [[a * r, 0.0], [a * (1 + r), -1.0]], atol=1e-14)
        stage2 = nme.shift_single(stage1, [1.0, a * r], 1.0, 1.0 / r, [1.0, 0.0])
        q_hat = a * (r + 1.0 / r)
        assert np.allclose(stage2.M.real, [[a, 0.0], [q_hat, -1.0]], atol=1e-14)
        assert np.allclose(stage2.L.real, [[0.0, 1.0], [a, 0.0]], atol=1e-14)
        assert nme.is_symplectic_pencil(stage2)
        # the shifted pencil is exactly the pencil of x + a^2/x = a(r + 1/r)
        target = nme.build_pencil(nme.new_problem([[a]], [[q_hat]]))
        assert np.max(np.abs(stage2.M - target.M)) <= 1e-14 * max(1.0, q_hat)
        assert np.max(np.abs(stage2.L - target.L)) <= 1e-14
        expected = sorted([r, 1.0 / r])
        got = np.sort_complex(oracle_eigs(stage2))
        assert np.allclose(got.real, expected, atol=1e-8)
        assert np.allclose(got.imag, 0.0, atol=1e-8)

    def test_two_stage_shift_via_multi(self):
        # same relocation as the shift_single two-stage recipe, through the
        # simultaneous interface with hand-picked factors
        a, r = 1.0, 0.9
        pen = critical_pencil(a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s1 = nme.shift_multi(pen, nme.ShiftSpec(
                V=np.array([[1.0], [a]], dtype=complex),
                lam=np.array([1.0 + 0j]), lam_hat=np.array([r + 0j]),
                R1=np.array([[r - 1.0], [0.0]], dtype=complex),
                R2=np.zeros((2, 1), dtype=complex)))
            s2 = nme.shift_multi(s1, nme.ShiftSpec(
                V=np.array([[1.0], [a * r]], dtype=complex),
                lam=np.array([1.0 + 0j]), lam_hat=np.array([1.0 / r + 0j]),
                R1=np.array([[1.0 / r - 1.0], [0.0]], dtype=complex),
                R2=np.zeros((2, 1), dtype=complex)))
        assert np.allclose(s2.M.real, [[a, 0.0], [a * (r + 1.0 / r), -1.0]], atol=1e-14)
        assert np.allclose(s2.L.real, [[0.0, 1.0], [a, 0.0]], atol=1e-14)

    def test_equal_targets_is_identity(self):
        rng = np.random.default_rng(5)
        pen, spectrum, pairs = pencil_with_spectrum(rng, [0.5, 1.4, 2.2, 3.0])
        V = np.column_stack([pairs[0][1], pairs[2][1]])
        lam = np.array([pairs[0][0], pairs[2][0]])
        spec = nme.build_shift_factors(V, lam, lam)
        out = nme.shift_multi(pen, spec)
        assert np.allclose(out.M, pen.M, atol=1e-14 * np.linalg.norm(pen.M))
        assert np.allclose(out.L, pen.L)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_simultaneous_real_shift(self, seed):
        rng = np.random.default_rng(seed)
        pen, spectrum, pairs = pencil_with_spectrum(rng, [0.3, 0.9, 1.7, 2.6])
        V = np.column_stack([pairs[1][1], pairs[3][1]])
        lam = np.array([pairs[1][0], pairs[3][0]])
        lam_hat = np.array([0.5 + 0j, 4.0 + 0j])
        spec = nme.build_shift_factors(V, lam, lam_hat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = nme.shift_multi(pen, spec)
        expected = spectrum.copy()
        expected[1] = 0.5
        expected[3] = 4.0
        assert match_distance(oracle_eigs(out), expected) <= 1e-8
        # eigenpair preservation: the shifted pencil maps V to the targets
        scale = np.linalg.norm(out.M) + np.linalg.norm(out.L)
        defect = np.linalg.norm(out.M @ V - out.L @ V @ np.diag(lam_hat))
        assert defect <= 1e-8 * scale
        # determinant-ratio identity, multi-shift form
        for _ in range(20):
            probe = complex(*rng.uniform(-2, 2, 2))
            if np.min(np.abs(probe - np.concatenate([lam, lam_hat]))) < 0.05:
                continue
            lhs = np.linalg.det(out.M - probe * out.L) * np.prod(lam - probe)
            rhs = np.linalg.det(pen.M - probe * pen.L) * np.prod(lam_hat - probe)
            assert abs(lhs - rhs) <= 1e-8 * (abs(lhs) + abs(rhs))

    def test_conjugate_pair_shift_stays_real(self):
        rng = np.random.default_rng(8)
        pen, spectrum, pairs = pencil_with_spectrum(rng, [0.4, 1.0 + 0.5j, 2.1])
        lam_c, v_c = pairs[1]
        V = np.column_stack([v_c, v_c.conj()])
        lam = np.array([lam_c, lam_c.conjugate()])
        lam_hat = np.array([0.6 + 0.2j, 0.6 - 0.2j])
        spec = nme.build_shift_factors(V, lam, lam_hat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = nme.shift_multi(pen, spec)
        assert np.max(np.abs(out.M.imag)) <= 1e-9 * np.linalg.norm(out.M)
        expected = spectrum.copy()
        expected[1] = 0.6 + 0.2j
        expected[2] = 0.6 - 0.2j
        assert match_distance(oracle_eigs(out), expected) <= 1e-8

    def test_half_of_conjugate_pair_rejected(self):
        rng = np.random.default_rng(9)
        pen, spectrum, pairs = pencil_with_spectrum(rng, [0.4, 1.0 + 0.5j, 2.1])
        lam_c, v_c = pairs[1]
        spec = nme.build_shift_factors(v_c.reshape(-1, 1), [lam_c], [0.3 + 0j])
        with pytest.raises(ConjugateClosureViolated):
            nme.shift_multi(pen, spec)

    def test_conjugate_inconsistent_factor_rejected(self):
        # the targets are conjugate closed, but R1 is not: the shifted pencil
        # is complex, and its stored realness refuses the spec
        pen, spec = conjugate_inconsistent_shift()
        assert np.abs(spec.R1.T @ spec.V - np.diag(spec.lam_hat - spec.lam)).max() <= 1e-14
        with pytest.raises(ConjugateClosureViolated, match=r"max \|Im F\| = 1\.77e-01 \|\|F\|\|_F"):
            nme.shift_multi(pen, spec)

    def test_empty_spec_names_missing_eigenvalue(self):
        # the spec refuses itself when built, before it reaches shift_multi
        pen = critical_pencil()
        empty = np.zeros((2, 0), dtype=complex)
        with pytest.raises(RankDeficientV, match="no columns: there is no eigenvalue to shift"):
            nme.shift_multi(pen, nme.ShiftSpec(V=empty, lam=np.zeros(0, dtype=complex),
                                               lam_hat=np.zeros(0, dtype=complex), R1=empty, R2=empty))

    def test_rejects_spec_of_other_dimension(self):
        spec = nme.build_shift_factors(np.eye(4, 1), [1.0], [0.9])
        with pytest.raises(DimensionMismatch, match="inconsistent with the pencil"):
            nme.shift_multi(critical_pencil(), spec)

    def test_repeated_eigenvalues_rejected(self):
        pen = critical_pencil()
        V = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        spec = nme.ShiftSpec(V=V, lam=np.array([1.0, 1.0], dtype=complex),
                             lam_hat=np.array([0.9, 1.1], dtype=complex),
                             R1=np.zeros((2, 2), dtype=complex),
                             R2=np.zeros((2, 2), dtype=complex))
        with pytest.raises(RepeatedEigenvalue):
            nme.shift_multi(pen, spec)

    def test_bad_factors_rejected(self):
        pen = critical_pencil()
        spec = nme.ShiftSpec(V=np.array([[1.0], [1.0]], dtype=complex),
                             lam=np.array([1.0], dtype=complex),
                             lam_hat=np.array([0.9], dtype=complex),
                             R1=np.array([[1.0], [1.0]], dtype=complex),  # R1^T V = 2 != -0.1
                             R2=np.zeros((2, 1), dtype=complex))
        with pytest.raises(SpecInvariantViolated):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                nme.shift_multi(pen, spec)

    def test_nonzero_r2_coupling_rejected(self):
        # R1^T V = lam_hat - lam holds, but R2^T V = 1 != 0
        pen = nme.SymplecticPencil(M=np.diag([2.0, 3.0]), L=np.eye(2))
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        spec = nme.ShiftSpec(V=e1, lam=np.array([2.0], dtype=complex),
                             lam_hat=np.array([0.5], dtype=complex), R1=-1.5 * e1, R2=e1)
        with pytest.raises(SpecInvariantViolated, match=r"R2\^T V"):
            nme.shift_multi(pen, spec)

    def test_warns_when_pairing_breaks(self):
        pen = critical_pencil()
        spec = nme.build_shift_factors(np.array([[1.0], [1.0]], dtype=complex),
                                       [1.0], [0.9])
        with pytest.warns(ReciprocalPairingWarning):
            nme.shift_multi(pen, spec)

    def test_zero_target_warns(self):
        # 0 has no reciprocal, so a target 0 breaks the pairing
        spec = nme.build_shift_factors([[1.0], [1.0]], [1.0], [0.0])
        with pytest.warns(ReciprocalPairingWarning):
            out = nme.shift_multi(critical_pencil(), spec)
        assert match_distance(oracle_eigs(out), [0.0, 1.0]) <= 1e-7

    @pytest.mark.parametrize("lam_hat,warns", [((0.4, 2.5), False), ((0.4, 2.4), True)],
                             ids=["reciprocal-closed", "not-closed"])
    def test_warns_only_when_the_targets_are_not_reciprocal_closed(self, lam_hat, warns):
        # moving the pair (0.5, 2.0) to (0.4, 2.5) keeps lambda -> 1/lambda closed
        pen, spectrum, pairs = pencil_with_spectrum(np.random.default_rng(0), [0.5, 2.0, 0.8, 1.25])
        V = np.column_stack([pairs[0][1], pairs[1][1]])
        spec = nme.build_shift_factors(V, [pairs[0][0], pairs[1][0]], np.array(lam_hat, complex))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = nme.shift_multi(pen, spec)
        assert [w.category for w in caught] == [ReciprocalPairingWarning] * warns
        assert match_distance(oracle_eigs(out), [*lam_hat, *spectrum[2:]]) <= 1e-8

    @pytest.mark.parametrize("field", ["V", "lam", "lam_hat", "R1", "R2"])
    def test_rejects_non_finite_input(self, field):
        spec = nme.build_shift_factors(np.array([[1.0], [1.0]]), [1.0], [0.9])
        bad = getattr(spec, field).copy()
        bad[0] = math.nan
        with pytest.raises(NonFiniteInput, match=field):
            nme.shift_multi(critical_pencil(), replace(spec, **{field: bad}))


class TestBuildShiftFactors:
    def test_scalar_example(self):
        spec = nme.build_shift_factors(np.array([[1.0], [1.0]], dtype=complex),
                                       [1.0], [0.9])
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1, abs=1e-14)
        assert np.array_equal(spec.R2, np.zeros((2, 1)))

    def test_no_displacement_gives_zero_factor(self):
        V = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]], dtype=complex)
        spec = nme.build_shift_factors(V, [0.5, 1.5], [0.5, 1.5])
        assert np.allclose(spec.R1, 0.0)

    @pytest.mark.parametrize("seed", [10, 11])
    def test_random_orthonormal_block(self, seed):
        rng = np.random.default_rng(seed)
        V = np.linalg.qr(rng.standard_normal((6, 3)))[0].astype(complex)
        lam = rng.uniform(0.5, 2.0, 3).astype(complex)
        lam_hat = rng.uniform(0.5, 2.0, 3).astype(complex)
        spec = nme.build_shift_factors(V, lam, lam_hat)
        D = np.diag(lam_hat - lam)
        assert np.linalg.norm(spec.R1.T @ spec.V - D) <= 1e-12 * (1 + np.linalg.norm(D))
        assert np.linalg.norm(spec.R2.T @ spec.V) == 0.0

    @pytest.mark.parametrize("v", [1e200, 1e-200])
    def test_scale_of_v(self, v):
        # V^T V overflowed (a raw warning) or underflowed to 0 ("V^T V is
        # singular") for a V of full rank; R1 is formed on V over its power of two
        spec = nme.build_shift_factors([[v], [v]], [1.0], [0.9])
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1, rel=1e-14)
        assert np.array_equal(spec.R2, np.zeros((2, 1)))

    def test_rank_deficient_rejected(self):
        V = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(RankDeficientV):
            nme.build_shift_factors(V, [1.0, 2.0], [0.5, 0.7])

    def test_singular_gram_rejected(self):
        # V has full rank, but the plain-transpose Gram V^T V = 1 + i^2 is 0
        with pytest.raises(RankDeficientV, match=r"V\^T V is singular"):
            nme.build_shift_factors([[1], [1j]], [1], [0.5])

    def test_empty_v_names_missing_eigenvalue(self):
        # the report of a rho = 1 problem whose unimodular pair was missed
        with pytest.raises(RankDeficientV, match="no columns: there is no eigenvalue to shift"):
            nme.build_shift_factors(np.zeros((4, 0), dtype=complex), [], [])

    @pytest.mark.parametrize("V, lam, lam_hat", [([[math.nan], [1.0]], [1.0], [0.9]),
                                                 ([[1.0], [1.0]], [math.nan], [0.9]),
                                                 ([[1.0], [1.0]], [1.0], [math.inf])])
    def test_rejects_non_finite_input(self, V, lam, lam_hat):
        # a NaN in V reached np.linalg.svd, which raised a raw LinAlgError
        with pytest.raises(NonFiniteInput):
            nme.build_shift_factors(V, lam, lam_hat)


class TestShiftSpec:
    def test_fields_are_read_when_built(self):
        spec = nme.ShiftSpec([[1.0], [1.0]], [1.0], [0.9], [[-0.1], [0.0]])
        assert [getattr(spec, name).dtype for name in ("V", "lam", "lam_hat", "R1", "R2")] \
            == [np.complex128] * 5
        assert spec.lam.shape == (1,) and np.array_equal(spec.R2, np.zeros((2, 1)))

    def test_absent_r1_is_built_as_build_shift_factors_builds_it(self):
        V = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 2)))[0]
        built = nme.build_shift_factors(V, [0.5, 2.0], [0.4, 2.5])
        spec = nme.ShiftSpec(V, [0.5, 2.0], [0.4, 2.5], R2=np.ones((6, 2)))
        assert same_bits(spec.R1, built.R1) and np.array_equal(spec.R2, np.ones((6, 2)))

    @pytest.mark.parametrize("field,value", [
        ("lam", [1.0, 2.0]), ("lam_hat", []), ("R1", np.zeros((2, 2))), ("R2", np.zeros((3, 1)))])
    def test_shapes_are_checked_when_built(self, field, value):
        args = {"V": [[1.0], [1.0]], "lam": [1.0], "lam_hat": [0.9], field: value}
        with pytest.raises(DimensionMismatch, match="column count"):
            nme.ShiftSpec(**args)


class TestDetectUnimodular:
    def test_defective_critical_eigenvalue(self):
        rep = nme.detect_unimodular(critical_pencil())
        assert rep.eigenvalues.shape == (1,)
        assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-7)
        v = rep.eigenvectors[:, 0]
        assert abs(v[1] / v[0] - 1.0) <= 1e-7  # direction [1, 1]

    def test_near_overflow(self):
        rep = nme.detect_unimodular(nme.build_pencil(nme.new_problem([[0.5e308]], [[1e308]])))
        assert rep.eigenvalues.tolist() == [1.0]

    def test_subcritical_pencil_empty(self):
        pen = nme.build_pencil(nme.new_problem([[0.5]], [[2.0]]))
        rep = nme.detect_unimodular(pen)
        assert rep.eigenvalues.size == 0

    def test_zero_a_empty(self):
        pen = nme.build_pencil(nme.new_problem([[0.0]], [[1.0]]))
        assert nme.detect_unimodular(pen).eigenvalues.size == 0

    def test_reported_pairs_satisfy_residual_bound(self):
        pen = critical_pencil(2.0)
        rep = nme.detect_unimodular(pen)
        scale = np.linalg.norm(pen.M) + np.linalg.norm(pen.L)
        for lam, v in zip(rep.eigenvalues, rep.eigenvectors.T):
            assert abs(1.0 - abs(lam)) <= 1e-15
            resid = np.linalg.norm(pen.M @ v - lam * pen.L @ v)
            assert resid <= 1e-8 * scale * np.linalg.norm(v)

    def test_semisimple_unimodular_pair(self):
        # x + 1/x = 1: psi(e^{i theta}) = 1 + 2 cos(theta) has simple zeros,
        # the pencil's eigenvalues are the roots e^{+-i pi/3} of 1 - l + l^2
        pen = nme.build_pencil(nme.new_problem([[1.0]], [[1.0]]))
        rep = nme.detect_unimodular(pen)
        assert rep.eigenvalues.size == 2
        pair = np.exp(1j * math.pi / 3 * np.array([1.0, -1.0]))
        assert match_distance(rep.eigenvalues, pair) <= 1e-15
        for lam, v in zip(rep.eigenvalues, rep.eigenvectors.T):
            assert np.linalg.norm(pen.M @ v - lam * pen.L @ v) <= 1e-15 * np.linalg.norm(v)

    def test_non_ssf2_pencil_rejected(self):
        pen = pencil_with_spectrum(np.random.default_rng(12), [0.4, 1.0, 2.5, 0.7])[0]
        with pytest.raises(ValueError, match="SSF-2"):
            nme.detect_unimodular(pen)

    def test_shifted_pencil_rejected_typed(self):
        pen = critical_pencil()
        rep = nme.detect_unimodular(pen)
        shifted = nme.shift_multi(pen, nme.build_shift_factors(
            rep.eigenvectors, rep.eigenvalues, 0.9 * rep.eigenvalues))
        with pytest.raises(nme.NmeError, match="SSF-2"):
            nme.detect_unimodular(shifted)

    @pytest.mark.parametrize("n,seed", [(32, 2001), (64, 3002)])
    def test_defective_pair_near_other_eigenvalue_reported_once(self, n, seed):
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=seed))
        pen = nme.build_pencil(rec.problem)
        rep = nme.detect_unimodular(pen)
        assert rep.eigenvalues.shape == (1,)
        spec = nme.build_shift_factors(rep.eigenvectors, rep.eigenvalues,
                                       0.9 * rep.eigenvalues)
        shifted = nme.shift_multi(pen, spec)
        spectrum = nme.generalized_eigenvalues(shifted)
        assert np.min(np.abs(spectrum - spec.lam_hat[0])) <= 1e-6

    @pytest.mark.parametrize("a", [2.0 ** 600, 2.0 ** -600])
    def test_extreme_scale_critical_scalar(self, a):
        rep = nme.detect_unimodular(critical_pencil(a))
        assert rep.eigenvalues.tolist() == [1.0]
        v = rep.eigenvectors[:, 0]
        assert v[1] / v[0] == a

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(k=st.integers(-600, 600), n=st.integers(1, 4), seed=st.integers(0, 1000),
           rho=st.sampled_from([0.3, 0.9, 1.0]))
    @example(k=-600, n=1, seed=0, rho=1.0)
    @example(k=600, n=4, seed=3, rho=1.0)
    @example(k=1021, n=2, seed=1, rho=1.0)  # largest entry in [2^1023, 2^1024)
    def test_homogeneity(self, k, n, seed, rho):
        # (A, Q) -> (2^k A, 2^k Q) keeps lambda and x to the bit and scales
        # the lower half A x / lambda + P x by 2^k
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        A, Q = rec.problem.A, rec.problem.Q
        for p in (rec.problem, nme.new_problem(A, 0.5 * Q)):
            base = nme.detect_unimodular(nme.build_pencil(p))
            scaled = nme.detect_unimodular(nme.build_pencil(
                nme.new_problem(np.ldexp(p.A, k), np.ldexp(p.Q, k))))
            assert np.array_equal(scaled.eigenvalues, base.eigenvalues)
            assert np.array_equal(scaled.eigenvectors[:n], base.eigenvectors[:n])
            assert np.array_equal(scaled.eigenvectors[n:] * 2.0 ** -k, base.eigenvectors[n:])

    def test_qz_failure_is_typed(self, monkeypatch, forget_analysis):
        # scipy raises LinAlgError when the QZ (dggev) returns info > 0; the
        # unsolvable (1, 1) is below SOLVE_FIRST_N, and its doubling would break
        # down, so its analysis runs the QZ
        def failing_eigvals(*args, **kwargs):
            raise np.linalg.LinAlgError("generalized eig algorithm did not converge")

        monkeypatch.setattr(scipy.linalg, "eigvals", failing_eigvals)
        forget_analysis()  # no remembered analysis of this pair
        p = nme.new_problem([[1.0]], [[1.0]])
        with pytest.raises(EigensolverFailure, match="did not converge"):
            nme.solvability_check(p)
        with pytest.raises(EigensolverFailure, match="did not converge"):
            nme.detect_unimodular(nme.build_pencil(p))

    def test_generalized_eigenvalues_failure_is_typed(self, monkeypatch):
        # a QZ that does not converge is an EigensolverFailure, not a raw LinAlgError
        def failing_eigvals(*args, **kwargs):
            raise np.linalg.LinAlgError("generalized eig algorithm did not converge")

        monkeypatch.setattr(scipy.linalg, "eigvals", failing_eigvals)
        pencil = nme.build_pencil(nme.new_problem([[1.0]], [[2.0]]))
        with pytest.raises(EigensolverFailure, match="did not converge"):
            nme.generalized_eigenvalues(pencil)

    @pytest.mark.parametrize("n,seed", [(8, 0), (8, 1), (8, 2), (32, 0), (32, 1),
                                        (32, 2), (32, 3), (32, 4)])
    def test_nonnormal_critical_cells(self, n, seed):
        # S = X+^{-1} A is not normal (eta = 1), so QZ scatters the defective
        # pair at 1 by up to sqrt(eps * kappa); psi's null space is still one line
        prob = nonnormal_planted(n, 1.0, 1.0, seed)[0]
        pen = nme.build_pencil(prob)
        rep = nme.detect_unimodular(pen)
        assert rep.eigenvalues.tolist() == [1.0]
        v = rep.eigenvectors[:, 0]
        scale = (np.linalg.norm(pen.M) + np.linalg.norm(pen.L)) * np.linalg.norm(v)
        assert np.linalg.norm(pen.M @ v - pen.L @ v) <= EIGENPAIR_RTOL * scale
        spec = nme.build_shift_factors(rep.eigenvectors, rep.eigenvalues, 0.9 * rep.eigenvalues)
        miss = np.min(np.abs(nme.generalized_eigenvalues(nme.shift_multi(pen, spec)) - 0.9))
        # open at (32, 3): the QZ of the shifted pencil misses 0.9 by 7.5e-5
        # (kappa of 1 in X+^{-1} A is 4.5e3); detection is not at fault there
        assert miss <= (1e-4 if (n, seed) == (32, 3) else 1e-6)

    @pytest.mark.parametrize("n,seed", [(32, 1), (64, 9)])
    def test_close_second_eigenvalue_counts_once(self, n, seed):
        # rho_2 = 0.99979 and 0.99988: psi(-1)'s second eigenvalue is 1.7e-9
        # and 4.1e-10 of ||Q||_F + 2 ||A||_F, far above the null tolerance
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=seed))
        assert nme.detect_unimodular(nme.build_pencil(rec.problem)).eigenvalues.tolist() == [1.0]

    @pytest.mark.parametrize("bench_seed", [1, 2, 3, 4, 5])
    def test_bench_critical_pipeline(self, bench_seed):
        # the matrix jobs of the critical-shift benchmark at this seed: each
        # detected lambda moves to 0.9 lambda, and the shifted spectrum holds it
        for i, n in enumerate((8, 32, 64, 8, 32, 64)):
            gen = nme.GeneratorSpec(n=n, rho_target=1.0, seed=1000 * bench_seed + i)
            pen = nme.build_pencil(nme.generate_problem(gen).problem)
            rep = nme.detect_unimodular(pen)
            spec = nme.build_shift_factors(rep.eigenvectors, rep.eigenvalues,
                                           0.9 * rep.eigenvalues)
            spectrum = nme.generalized_eigenvalues(nme.shift_multi(pen, spec))
            assert all(np.min(np.abs(spectrum - t)) <= 1e-6 for t in spec.lam_hat)

    def test_real_pencil_stays_real(self):
        # A = R(0.8)/2, Q = I: psi is singular at a conjugate pair e^{+-i theta}
        t = 0.8
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        pen = nme.build_pencil(nme.new_problem(0.5 * rot, np.eye(2)))
        assert pen.M.dtype == np.float64 and pen.L.dtype == np.float64
        rep = nme.detect_unimodular(pen)
        assert rep.eigenvalues.size == 2 and abs(rep.eigenvalues[0].imag) > 0.5
        spec = nme.build_shift_factors(rep.eigenvectors, rep.eigenvalues,
                                       0.9 * rep.eigenvalues)
        shifted = nme.shift_multi(pen, spec)
        assert not np.iscomplexobj(shifted.M) and not np.iscomplexobj(shifted.L)


def planted_critical(n, seed):
    return nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=seed)).problem


def counting(calls: list, name: str, real):
    """real, which appends name to calls on each call."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper


class TestOneQZ:
    """``solvability_check`` and ``detect_unimodular`` of one (A, Q) share the
    analysis that ``problem._critical_angles`` remembers: its solve, and the
    QZ where it falls back on one."""

    def test_one_qz_per_pair(self, monkeypatch, forget_analysis):
        # each analysis of a pair starts with one solve
        calls = []
        for module, name in ((nme.solvers, "solve_sda"), (scipy.linalg, "eigvals")):
            monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
        forget_analysis()
        p = planted_critical(32, 4242)
        pen = nme.build_pencil(p)
        nme.solvability_check(p)
        nme.detect_unimodular(pen)
        assert calls == ["solve_sda"]
        # one ulp in one entry of Q is another pair
        Q = p.Q.copy()
        Q[0, 0] = np.nextafter(Q[0, 0], math.inf)
        nme.solvability_check(nme.new_problem(p.A, Q))
        assert calls == ["solve_sda"] * 2
        # P != 0 changes Q - P, and Q - 1e-3 I is no longer solvable: the
        # analysis falls back on the QZ
        n = p.n
        L = pen.L.copy()
        L[:n, :n] = -1e-3 * np.eye(n)
        nme.detect_unimodular(nme.SymplecticPencil(pen.M, L))
        assert calls == ["solve_sda"] * 3 + ["eigvals"]
        # the unsolvable (A, Q / 2) falls back on one QZ, which detection shares
        q = nme.new_problem(p.A, p.Q / 2.0)
        nme.solvability_check(q)
        nme.detect_unimodular(nme.build_pencil(q))
        assert calls == ["solve_sda"] * 3 + ["eigvals", "solve_sda", "eigvals"]

    @pytest.mark.parametrize("n,normal", [(8, True), (32, True), (8, False)])
    def test_hit_is_exact(self, n, normal, forget_analysis):
        p = planted_critical(n, 17) if normal else nonnormal_planted(n, 1.0, 1.0, 1)[0]
        pen = nme.build_pencil(p)
        warm_verdict = nme.solvability_check(p)
        warm = nme.detect_unimodular(pen)
        forget_analysis()
        cold = nme.detect_unimodular(pen)
        forget_analysis()
        verdict = nme.solvability_check(p)
        assert verdict == warm_verdict
        assert same_bits(verdict.min_eig_on_circle, warm_verdict.min_eig_on_circle)
        for field in ("eigenvalues", "eigenvectors"):
            a, b = getattr(warm, field), getattr(cold, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_detect_after_check_runs_no_eigensolver(self, monkeypatch, forget_analysis):
        # the analysis and psi's spectra on the arcs are read from the remembered entry
        calls = []
        for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigvals"),
                             (scipy.linalg, "eigvals"), (nme.solvers, "solve_sda")):
            monkeypatch.setattr(module, name, counting(calls, name, getattr(module, name)))
        forget_analysis()
        p = planted_critical(32, 4242)
        nme.solvability_check(p)
        assert calls.count("solve_sda") == 1 and "eigvalsh" in calls
        calls.clear()
        assert nme.detect_unimodular(nme.build_pencil(p)).eigenvalues.tolist() == [1.0]
        assert calls == []

    def test_returned_arrays_are_read_only(self, forget_analysis):
        # the remembered analysis goes to every caller of the pair, from the QZ (n = 8)
        # or the solve (n = 32): none can write to it
        for n in (8, 32):
            p = planted_critical(n, 17)
            forget_analysis()
            first = nme.problem._critical_angles(p.A, p.Q)
            remembered = nme.problem._critical_angles(p.A, p.Q)
            _, A, Q, _, angles, points, spectra = remembered
            assert remembered is first and angles.size
            for F in (A, Q, angles, points, spectra):
                with pytest.raises(ValueError):
                    F[0] = 0.0


class TestCriticalShift:
    """``shifting._critical_shift`` moves the eigenvalue +-1 of S = X_+^{-1} A
    to 0 and keeps X_+, checked against the planted solution."""

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_planted_oracle(self, n, sign):
        for seed in range(5):
            rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=1.0, seed=seed))
            A, Q, X = sign * rec.problem.A, rec.problem.Q, rec.known_solution
            shifted = nme.new_problem(*_critical_shift(A, Q))
            assert nme.residual(shifted, X).rel_norm <= 1e-13, seed
            # Brauer: the eigenvalue sign of S moves to 0, the rest stay
            before = scipy.linalg.eigvals(np.linalg.solve(X, A))
            before[np.argmin(np.abs(before - sign))] = 0.0
            after = scipy.linalg.eigvals(np.linalg.solve(X, shifted.A))
            assert match_distance(before, after) <= 1e-12, seed
            rep = nme.solve_sda(shifted)
            assert np.linalg.norm(rep.X - X) <= 1e-9 * np.linalg.norm(X), seed

    @pytest.mark.parametrize("seed", range(3))
    def test_scalar_pair_becomes_zero_and_its_modulus(self, seed):
        # a / x_+ = sign(a) moves to 0: A_hat = 0 and Q_hat = |a| to roundoff
        p = planted_critical(1, seed)
        for a in (p.A, -p.A):
            A_hat, Q_hat = _critical_shift(a, p.Q)
            assert abs(A_hat[0, 0]) <= 4e-16 * abs(a[0, 0])
            assert abs(Q_hat[0, 0] - abs(a[0, 0])) <= 4e-16 * abs(a[0, 0])

    def test_no_null_vector_returns_the_pair(self):
        p = nme.generate_problem(nme.GeneratorSpec(n=8, rho_target=0.5, seed=0)).problem
        A_hat, Q_hat = _critical_shift(p.A, p.Q)
        assert same_bits(A_hat, p.A) and same_bits(Q_hat, p.Q)

    def test_g_not_positive_definite_is_typed(self):
        # e1 is null for psi(-1) and e2 for psi(1), but G = [[1, -2], [-2, 1]]
        # is indefinite: psi(i) = 2 I + i (A - A^T) has eigenvalue -2, so there
        # is no X_+ to make G = Y^T X_+ Y
        with pytest.raises(NotPositiveDefinite, match="Y\\^T A Y"):
            _critical_shift(np.array([[1.0, 2.0], [-2.0, -1.0]]), 2.0 * np.eye(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_false_null_on_nonnormal_cells(self, seed):
        # ROADMAP Direction 13's cells: rho(S) = 0.9, yet psi(-1) = (I - S)^T X (I - S)
        # passes the null test, as sigma_min(I - S) is 1e-6 to 1e-9.  The
        # helper shifts on that false null vector, X_+ no longer solves the
        # pair (residuals 9e-11 to 4e-8), and doubling on it fails.  This pins
        # today's behaviour: the gate of Direction 13 must change it on purpose
        p, X = nonnormal_planted(32, 0.9, 3.0, seed)
        A_hat, Q_hat = _critical_shift(p.A, p.Q)
        assert not same_bits(A_hat, p.A)
        shifted = nme.new_problem(A_hat, Q_hat)
        assert nme.residual(shifted, X).rel_norm > 1e-11
        with pytest.raises((Stagnated, DoublingBreakdown)):
            nme.solve_sda(shifted)


class TestSolveScalarShifted:
    def test_one_shift_stops_at_iteration_zero(self):
        result = nme.solve_scalar_shifted(1.0, 2.0)
        assert result.x_plus == 1.0
        assert len(result.per_r) == 1
        assert result.per_r[0].converged and result.per_r[0].iterations == 0

    def test_negative_a_by_symmetry(self):
        result = nme.solve_scalar_shifted(-1.0, 2.0)
        assert abs(result.x_plus - 1.0) <= 1e-10

    def test_zero_a_rejected(self):
        with pytest.raises(NotCriticalCase, match="a = 0"):
            nme.solve_scalar_shifted(0.0, 0.0)

    def test_subcritical_rejected(self):
        with pytest.raises(NotCriticalCase):
            nme.solve_scalar_shifted(0.5, 2.0)

    def test_near_critical_rejected(self):
        with pytest.raises(NotCriticalCase):
            nme.solve_scalar_shifted(1.0, 2.001)

    def test_below_critical_has_no_real_solution(self):
        # x + 1/x = q has no real root for q < 2, however close q is to 2
        with pytest.raises(NotCriticalCase, match="no real solution"):
            nme.solve_scalar_shifted(1.0, 1.99999999999)

    @pytest.mark.parametrize("q", [2.00000001, 2.00000002])
    def test_just_above_critical_rejected(self, q):
        # x+ = 1.0001 and 1.00014 here: answering |a| = 1 would be off by 1e-4
        with pytest.raises(NotCriticalCase, match=r"needs q = 2\|a\|"):
            nme.solve_scalar_shifted(1.0, q)

    def test_tiny_a_with_large_q_rejected(self):
        # q / 2^e overflows when the exponent of a small a scales q
        with pytest.raises(NotCriticalCase):
            nme.solve_scalar_shifted(1e-300, 1e10)

    @pytest.mark.parametrize("a, q", [(math.inf, math.inf), (math.nan, math.nan),
                                      (1.0, math.inf), (-math.inf, 2.0)])
    def test_non_finite_rejected(self, a, q):
        with pytest.raises(NonFiniteInput):
            nme.solve_scalar_shifted(a, q)

    @pytest.mark.parametrize("a", [1e-200, -1e-200, 1e200])
    def test_extreme_scale(self, a):
        res = nme.solve_scalar_shifted(a, 2.0 * abs(a))
        assert abs(res.x_plus - abs(a)) <= 1e-10 * abs(a)

    @pytest.mark.parametrize("a", [7.2e307, -8e307, np.finfo(float).max / 2.0])
    def test_near_overflow(self, a):
        # |a|(r + 1/r) overflows unless a is scaled down first
        res = nme.solve_scalar_shifted(a, 2.0 * abs(a))
        assert abs(res.x_plus - abs(a)) <= 1e-14 * abs(a)

    def test_scaled_coefficient(self):
        result = nme.solve_scalar_shifted(3.0, 6.0)
        assert abs(result.x_plus - 3.0) <= 3e-10

    def test_fixed_set_to_roundoff(self):
        # seeded magnitudes over four decades, both signs, and the ends of
        # the exponent range up to the subnormal 2e-323
        rng = np.random.default_rng(0)
        signs = rng.choice((-1.0, 1.0), 200)
        values = list(signs * 10.0 ** rng.uniform(-2.0, 2.0, 200))
        values += [1.0, -1.0, 1e-200, -1e-200, 1e200, 2.0 ** 600, 2e-323]
        for a in values:
            result = nme.solve_scalar_shifted(a, 2.0 * abs(a))
            assert abs(result.x_plus - abs(a)) <= 1e-14 * abs(a), a
            assert result.per_r[0].iterations <= 8, a


class TestPencilFiles:
    def test_round_trip(self, tmp_path):
        pen = critical_pencil()
        shifted = nme.shift_single(pen, [1.0, 1.0], 1.0, 0.9 + 0.1j, [1.0, 0.0])
        path = tmp_path / "pen.json"
        nme.save_pencil(shifted, path)
        loaded = nme.load_pencil(path)
        assert np.array_equal(loaded.M, shifted.M)
        assert np.array_equal(loaded.L, shifted.L)

    def test_bitwise_round_trip_keeps_negative_zeros(self, tmp_path):
        # -0.0 in real and imaginary parts, of a complex and of a real factor
        M = np.array([[-0.0 + 1j, 2.0 - 0.0j], [complex(-0.0, -0.0), 5e-324 + 0.5j]])
        L = np.array([[1.0, -0.0], [-0.0, -1.0]])
        pen = nme.SymplecticPencil(M=M, L=L)
        path = tmp_path / "pen.json"
        nme.save_pencil(pen, path)
        loaded = nme.load_pencil(path)
        assert same_bits(loaded.M, M)
        assert same_bits(loaded.L, L)

    def test_real_pencil_loads_real(self, tmp_path):
        path = tmp_path / "pen.json"
        nme.save_pencil(critical_pencil(), path)
        loaded = nme.load_pencil(path)
        assert loaded.M.dtype == np.float64 and loaded.L.dtype == np.float64
        assert np.array_equal(loaded.M, critical_pencil().M)

    def test_rejects_odd_dim(self, tmp_path):
        path = tmp_path / "pen.json"
        path.write_text('{"dim": 3, "M": [], "L": []}')
        with pytest.raises(ProblemFileError):
            nme.load_pencil(path)

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "M": [{"x": 1}, 0, 0, 0, 0, 0, 0, 0], "L": [0, 0, 0, 0, 0, 0, 0, 0]}',
        '[2, [], []]',
    ])
    def test_rejects_malformed_pencil(self, tmp_path, text):
        path = tmp_path / "pen.json"
        path.write_text(text)
        with pytest.raises(ProblemFileError):
            nme.load_pencil(path)

    def test_spec_rejects_object_entry(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,{"x":1},0], "lambda": [1,0], "lambda_hat": [0.9,0]}')
        with pytest.raises(ProblemFileError):
            nme.load_shift_spec(path, 2)

    def test_spec_with_factors(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,0], "lambda": [1,0], "lambda_hat": [0.9,0],'
                        ' "R1": [-0.1,0,0,0]}')
        spec = nme.load_shift_spec(path, 2)
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1)

    def test_spec_r2_overrides_zero_default(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,0], "lambda": [1,0], "lambda_hat": [0.9,0],'
                        ' "R2": [0.5,0,-0.5,0]}')
        spec = nme.load_shift_spec(path, 2)
        assert np.array_equal(spec.R2, [[0.5], [-0.5]])
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1)

    def test_spec_builds_missing_factors(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,0], "lambda": [1,0], "lambda_hat": [0.9,0]}')
        spec = nme.load_shift_spec(path, 2)
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1)
        assert np.allclose(spec.R2, 0.0)

    def test_spectra_csv_flags_one_row_per_target(self):
        # both targets are nearest 0.5: the second flags the nearest row still free
        spec = nme.ShiftSpec(np.eye(2), [0.5, 0.6], [0.5, 0.6])
        fh = io.StringIO()
        nme.write_spectra_csv(fh, np.array([2.0, 0.5]), np.array([0.5, 2.0]), spec)
        assert fh.getvalue().splitlines()[1:] == ["0.5,0.0,1", "2.0,0.0,1"] * 2

    def test_spec_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0], "lambda": [1,0], "lambda_hat": [0.9,0]}')
        with pytest.raises(ProblemFileError):
            nme.load_shift_spec(path, 2)

    def test_spec_rejects_scalar_lambda(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,0], "lambda": 5, "lambda_hat": [0.9,0]}')
        with pytest.raises(ProblemFileError):
            nme.load_shift_spec(path, 2)

    def test_spec_rejects_nan(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,NaN], "lambda": [1,0], "lambda_hat": [0.9,0]}')
        with pytest.raises(ProblemFileError):
            nme.load_shift_spec(path, 2)
