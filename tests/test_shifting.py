import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import nmesolve as nme
from helpers import match_distance, pencil_with_spectrum, scalar_x_plus
from nmesolve.shifting import UNIMODULAR_TOL
from nmesolve.exceptions import (
    ConjugateClosureViolated,
    InvalidR,
    NonFiniteInput,
    NotAnEigenpair,
    NotCriticalCase,
    NotNormalized,
    ProblemFileError,
    RankDeficientV,
    ReciprocalPairingWarning,
    RepeatedEigenvalue,
    SpecInvariantViolated,
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

    def test_rejects_unnormalized_r(self):
        pen = critical_pencil()
        with pytest.raises(NotNormalized):
            nme.shift_single(pen, [1.0, 1.0], 1.0, 0.9, [0.5, 0.0])

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

    def test_empty_spec_names_missing_eigenvalue(self):
        pen = critical_pencil()
        empty = np.zeros((2, 0), dtype=complex)
        spec = nme.ShiftSpec(V=empty, lam=np.zeros(0, dtype=complex),
                             lam_hat=np.zeros(0, dtype=complex), R1=empty, R2=empty)
        with pytest.raises(RankDeficientV, match="no columns: there is no eigenvalue to shift"):
            nme.shift_multi(pen, spec)

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

    def test_warns_when_pairing_breaks(self):
        pen = critical_pencil()
        spec = nme.build_shift_factors(np.array([[1.0], [1.0]], dtype=complex),
                                       [1.0], [0.9])
        with pytest.warns(ReciprocalPairingWarning):
            nme.shift_multi(pen, spec)


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

    def test_rank_deficient_rejected(self):
        V = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]], dtype=complex)
        with pytest.raises(RankDeficientV):
            nme.build_shift_factors(V, [1.0, 2.0], [0.5, 0.7])

    def test_empty_v_names_missing_eigenvalue(self):
        # the report of a rho = 1 problem whose unimodular pair was missed
        with pytest.raises(RankDeficientV, match="no columns: there is no eigenvalue to shift"):
            nme.build_shift_factors(np.zeros((4, 0), dtype=complex), [], [])


class TestDetectUnimodular:
    def test_defective_critical_eigenvalue(self):
        rep = nme.detect_unimodular(critical_pencil())
        assert rep.eigenvalues.shape == (1,)
        assert rep.eigenvalues[0] == pytest.approx(1.0, abs=1e-7)
        v = rep.eigenvectors[:, 0]
        assert abs(v[1] / v[0] - 1.0) <= 1e-7  # direction [1, 1]

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
            assert abs(1.0 - abs(lam)) <= UNIMODULAR_TOL
            resid = np.linalg.norm(pen.M @ v - lam * pen.L @ v)
            assert resid <= 1e-8 * scale * np.linalg.norm(v)

    def test_semisimple_unimodular_pair(self):
        rng = np.random.default_rng(12)
        theta = 0.8
        pen, spectrum, pairs = pencil_with_spectrum(
            rng, [complex(math.cos(theta), math.sin(theta)), 0.4, 2.5])
        rep = nme.detect_unimodular(pen)
        assert rep.eigenvalues.size == 2
        assert match_distance(rep.eigenvalues,
                              [spectrum[0], spectrum[1]]) <= 1e-7

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


class TestShiftedScalarProblem:
    def test_values(self):
        a_hat, q_hat = nme.shifted_scalar_problem(1.0, 0.9)
        assert a_hat == 1.0
        assert q_hat == pytest.approx(0.9 + 1.0 / 0.9, abs=1e-15)

    def test_limit_recovers_critical(self):
        _, q_hat = nme.shifted_scalar_problem(1.0, 1.0 - 1e-8)
        assert q_hat == pytest.approx(2.0, abs=1e-15)

    def test_solution_is_a_over_r(self):
        a_hat, q_hat = nme.shifted_scalar_problem(2.0, 0.5)
        assert (a_hat, q_hat) == (2.0, 5.0)
        assert scalar_x_plus(a_hat, q_hat) == pytest.approx(4.0, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidR):
            nme.shifted_scalar_problem(1.0, 1.0)
        with pytest.raises(InvalidR):
            nme.shifted_scalar_problem(1.0, 0.0)
        with pytest.raises(InvalidR):
            nme.shifted_scalar_problem(0.0, 0.5)


class TestSolveScalarShifted:
    def test_one_relocation(self):
        result = nme.solve_scalar_shifted(1.0, 2.0)
        assert abs(result.x_plus - 1.0) <= 1e-10
        assert len(result.per_r) == 1
        for step in result.per_r:
            assert step.iterations <= 18
            assert abs(step.x_hat - 1.0 / step.r) <= 1e-10
            # the product r * x_hat(r) recovers |a| up to roundoff
            assert abs(step.r * step.x_hat - 1.0) <= 1e-12

    def test_negative_a_by_symmetry(self):
        result = nme.solve_scalar_shifted(-1.0, 2.0)
        assert abs(result.x_plus - 1.0) <= 1e-10

    def test_subcritical_rejected(self):
        with pytest.raises(NotCriticalCase):
            nme.solve_scalar_shifted(0.5, 2.0)

    def test_near_critical_rejected(self):
        with pytest.raises(NotCriticalCase):
            nme.solve_scalar_shifted(1.0, 2.001)

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

    def test_spec_with_factors(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,0], "lambda": [1,0], "lambda_hat": [0.9,0],'
                        ' "R1": [-0.1,0,0,0]}')
        spec = nme.load_shift_spec(path, 2)
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1)

    def test_spec_builds_missing_factors(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"V": [1,0,1,0], "lambda": [1,0], "lambda_hat": [0.9,0]}')
        spec = nme.load_shift_spec(path, 2)
        assert complex((spec.R1.T @ spec.V)[0, 0]) == pytest.approx(-0.1)
        assert np.allclose(spec.R2, 0.0)

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
