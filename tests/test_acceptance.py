"""End-to-end acceptance checks, one test per criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see the lines for passing tests).

Criterion 5 checks, among other orderings, that the Newton iterates are
nonincreasing in the semidefinite order from X_1 on: Newton on this equation
descends from X_0 = Q toward X+ (e.g. a=0.5, q=2 gives x_1=1.8671875 >
x_2=1.86602549 > x_+=1.86602540), as the ``solve_newton`` docstring
states.  Its n = 4 counterpart, which calls ``solve_newton`` directly and
also checks X_k >= X+, is tests/test_solvers.py,
TestNewton.test_descends_from_q.
"""

import math
import warnings

import numpy as np
import scipy.linalg

import nmesolve as nme
from helpers import match_distance, min_eig, pencil_with_spectrum


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_scalar_doubling_closed_forms():
    rep = nme.solve_sda_scalar(1.0, 2.0, nme.SolverConfig(max_iter=45, min_iter=40,
                                                         record_history=True))
    qs = [float(np.ravel(m)[0]) for m in rep.iterates]
    ps = [float(np.ravel(m)[0]) for m in rep.aux_iterates["P"]]
    a_s = [float(np.ravel(m)[0]) for m in rep.aux_iterates["A"]]
    assert len(qs) >= 41
    worst = 0.0
    for k in range(41):
        two_k = 2.0 ** k
        worst = max(worst,
                    abs(qs[k] - (two_k + 1.0) / two_k),
                    abs(ps[k] - (two_k - 1.0) / two_k),
                    abs(a_s[k] - 1.0 / two_k))
    est = nme.estimate_rate([abs(q - 1.0) for q in qs])
    ok = worst <= 1e-13 and est.kind == "linear" and abs(est.rate - 0.5) <= 0.02
    _verdict(1, ok, f"closed-form error {worst:.2e}, rate {est.kind}({est.rate})")
    assert worst <= 1e-13
    assert est.kind == "linear"
    assert abs(est.rate - 0.5) <= 0.02


def test_criterion_2_shift_acceleration():
    r = 0.9
    q_hat = r + 1.0 / r
    rep = nme.solve_sda_scalar(1.0, q_hat, nme.SolverConfig(record_history=True))
    x_hat_err = abs(rep.X[0, 0] - 1.0 / r)
    pipeline = nme.solve_scalar_shifted(1.0, 2.0)
    x_plus_err = abs(pipeline.x_plus - 1.0)
    ok = (rep.converged and rep.iterations <= 9
          and rep.history[-1].rel_residual <= 1e-12
          and x_hat_err <= 1e-11 and x_plus_err <= 1e-10)
    _verdict(2, ok, f"{rep.iterations} iterations, x_hat error {x_hat_err:.2e}, "
                    f"pipeline error {x_plus_err:.2e}")
    assert rep.converged and rep.iterations <= 9
    assert rep.history[-1].rel_residual <= 1e-12
    assert x_hat_err <= 1e-11
    assert x_plus_err <= 1e-10


def test_criterion_3_newton_critical_rate():
    p = nme.new_problem([[1.0]], [[2.0]])
    rep = nme.solve_newton(p, nme.SolverConfig(tol=1e-15, max_iter=60, record_history=True))
    errs = [abs(float(m[0, 0]) - 1.0) for m in rep.iterates]
    assert len(errs) >= 21
    ratios = [errs[k + 1] / errs[k] for k in range(3, 20)]
    ok = all(0.45 <= ratio <= 0.55 for ratio in ratios)
    _verdict(3, ok, f"ratio range [{min(ratios):.4f}, {max(ratios):.4f}]")
    assert ok


def test_criterion_4_fixed_point_rate_law():
    worst = 0.0
    for n in (1, 8):
        for rho in (0.3, 0.6, 0.9):
            rec = nme.generate_problem(
                nme.GeneratorSpec(n=n, rho_target=rho, seed=100 + 10 * n + int(10 * rho)))
            rep = nme.solve_fixed_point(rec.problem, nme.SolverConfig(record_history=True))
            est = nme.estimate_rate([h.rel_residual for h in rep.history])
            assert est.kind == "linear"
            worst = max(worst, abs(est.rate - rho * rho) / (rho * rho))
    ok = worst <= 0.15
    _verdict(4, ok, f"worst relative deviation from rho^2: {worst:.2%}")
    assert ok


def test_criterion_5_oracle_equivalence_and_monotonicity():
    combos = [(n, rho) for n in (2, 8) for rho in (0.2, 0.5, 0.8)]
    outcomes = {"oracle": 0.0, "fixed-point-decreasing": 0.0,
                "inversion-free-two-sided": 0.0,
                "newton-nonincreasing-from-X1": 0.0, "sda-order-relations": 0.0}
    for seed in range(20):
        n, rho = combos[seed % len(combos)]
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        nme.run_experiment(rec, list(nme.Algorithm), nme.SolverConfig(record_history=True))
        X_star = rec.known_solution
        q_norm = np.linalg.norm(rec.problem.Q)
        for rep in rec.reports.values():
            assert rep.converged, f"seed {seed}: solver failed"
            outcomes["oracle"] = max(outcomes["oracle"],
                                     np.linalg.norm(rep.X - X_star) / q_norm)
        fp = rec.reports[nme.Algorithm.FIXED_POINT]
        outcomes["fixed-point-decreasing"] = max(
            outcomes["fixed-point-decreasing"],
            max(-min_eig(a - b) for a, b in zip(fp.iterates, fp.iterates[1:])) / q_norm)
        iv = rec.reports[nme.Algorithm.INVERSION_FREE]
        ys = iv.aux_iterates["Y"]
        outcomes["inversion-free-two-sided"] = max(
            outcomes["inversion-free-two-sided"],
            max(-min_eig(a - b) for a, b in zip(iv.iterates, iv.iterates[1:])) / q_norm,
            max(-min_eig(b - a) for a, b in zip(ys, ys[1:])) / q_norm)
        nw = rec.reports[nme.Algorithm.NEWTON]
        if len(nw.iterates) >= 3:
            # X_k - X_{k+1} >= -eps for k >= 1
            outcomes["newton-nonincreasing-from-X1"] = max(
                outcomes["newton-nonincreasing-from-X1"],
                max(-min_eig(a - b)
                    for a, b in zip(nw.iterates[1:], nw.iterates[2:])) / q_norm)
        sd = rec.reports[nme.Algorithm.SDA]
        qs, p_seq = sd.iterates, sd.aux_iterates["P"]
        sda_worst = 0.0
        for a, b in zip(p_seq, p_seq[1:]):
            sda_worst = max(sda_worst, -min_eig(b - a))
        for Pk, Qk in zip(p_seq, qs):
            sda_worst = max(sda_worst, -min_eig(X_star - Pk), -min_eig(Qk - X_star))
            if min_eig(Qk - Pk) <= 0.0:
                sda_worst = math.inf
        for a, b in zip(qs, qs[1:]):
            sda_worst = max(sda_worst, -min_eig(a - b),
                            -min_eig(rec.problem.Q - b))
        outcomes["sda-order-relations"] = max(outcomes["sda-order-relations"],
                                              sda_worst / q_norm)
    bounds = {"oracle": 1e-8, "fixed-point-decreasing": 1e-10,
              "inversion-free-two-sided": 1e-10,
              "newton-nonincreasing-from-X1": 1e-10, "sda-order-relations": 1e-10}
    failures = [name for name, value in outcomes.items() if value > bounds[name]]
    detail = "; ".join(f"{name}={value:.2e}" for name, value in outcomes.items())
    _verdict(5, not failures, detail)
    assert not failures, (
        f"sub-checks over tolerance: {failures}. Expected: the oracle "
        "equivalence, fixed-point and inversion-free X decreasing, Y "
        "increasing, Newton nonincreasing from X_1 (its n = 4 counterpart is "
        "TestNewton::test_descends_from_q), and the SDA order relations "
        "P_k <= X+ <= Q_k.")


def test_criterion_6_shift_correctness():
    probes_per_pencil = 20
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        if seed % 2 == 0:
            base = np.array([0.3, 0.8, 1.6, 2.5])
            entries = list(base + rng.uniform(-0.05, 0.05, 4))
        else:
            base = np.array([0.2, 0.45, 0.8, 1.6, 2.3, 3.0])
            entries = list(base + rng.uniform(-0.02, 0.02, 6)) + [1.1 + 0.6j]
        pen, spectrum, pairs = pencil_with_spectrum(rng, entries)

        # single shift of one real eigenvalue
        lam0, v = pairs[1]
        lam1 = complex(rng.uniform(3.5, 4.0))
        single = nme.shift_single(pen, v, lam0, lam1,
                                  v.conj() / np.dot(v.conj(), v))
        expected = spectrum.copy()
        expected[np.argmin(np.abs(expected - lam0))] = lam1
        assert match_distance(scipy.linalg.eigvals(single.M, single.L),
                              expected) <= 1e-8

        # simultaneous shift of two real eigenvalues
        V = np.column_stack([pairs[0][1], pairs[2][1]])
        lam = np.array([pairs[0][0], pairs[2][0]])
        lam_hat = np.array([complex(rng.uniform(4.2, 4.6)),
                            complex(rng.uniform(5.0, 5.4))])
        spec = nme.build_shift_factors(V, lam, lam_hat)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            multi = nme.shift_multi(pen, spec)
        expected2 = spectrum.copy()
        for old, new in zip(lam, lam_hat):
            expected2[np.argmin(np.abs(expected2 - old))] = new
        assert match_distance(scipy.linalg.eigvals(multi.M, multi.L),
                              expected2) <= 1e-8

        # determinant-ratio identity at random probes, both shift forms
        checked = 0
        while checked < probes_per_pencil:
            probe = complex(*rng.uniform(-3.0, 3.0, 2))
            anchors = np.concatenate([spectrum, [lam0, lam1], lam, lam_hat])
            if np.min(np.abs(probe - anchors)) < 0.1:
                continue
            lhs = np.linalg.det(single.M - probe * single.L) * (lam0 - probe)
            rhs = np.linalg.det(pen.M - probe * pen.L) * (lam1 - probe)
            assert abs(lhs - rhs) <= 1e-8 * (abs(lhs) + abs(rhs))
            lhs2 = np.linalg.det(multi.M - probe * multi.L) * np.prod(lam - probe)
            rhs2 = np.linalg.det(pen.M - probe * pen.L) * np.prod(lam_hat - probe)
            assert abs(lhs2 - rhs2) <= 1e-8 * (abs(lhs2) + abs(rhs2))
            checked += 1
    _verdict(6, True, "20 pencils, single+multi shifts, 20 probes each")


def test_criterion_7_structure_checks():
    for seed, n, rho in [(0, 1, 0.5), (1, 2, 0.9), (2, 5, 1.0), (3, 8, 0.3)]:
        rec = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed))
        assert nme.is_symplectic_pencil(nme.build_pencil(rec.problem))
    worst = 0.0
    for a in (1.0, 2.0):
        for r in (0.5, 0.9):
            pen = nme.build_pencil(nme.new_problem([[a]], [[2.0 * a]]))
            stage1 = nme.shift_single(pen, [1.0, a], 1.0, r, [1.0, 0.0])
            stage2 = nme.shift_single(stage1, [1.0, a * r], 1.0, 1.0 / r, [1.0, 0.0])
            target_m = np.array([[a, 0.0], [a * (r + 1.0 / r), -1.0]])
            target_l = np.array([[0.0, 1.0], [a, 0.0]])
            worst = max(worst,
                        float(np.max(np.abs(stage2.M - target_m))),
                        float(np.max(np.abs(stage2.L - target_l))))
    ok = worst <= 1e-14
    _verdict(7, ok, f"double-shift entrywise error {worst:.2e}")
    assert ok


def test_criterion_8_solvability_boundary():
    above = nme.solvability_check(nme.new_problem([[1.0]], [[2.0001]]))
    below = nme.solvability_check(nme.new_problem([[1.0]], [[1.9]]))
    ok = (above.verdict is nme.Verdict.SOLVABLE
          and below.verdict is nme.Verdict.NOT_SOLVABLE
          and abs(above.min_eig_on_circle - 0.0001) <= 1e-9
          and abs(below.min_eig_on_circle - (-0.1)) <= 1e-9)
    _verdict(8, ok, f"min eigenvalues {above.min_eig_on_circle:.6g} / "
                    f"{below.min_eig_on_circle:.6g}")
    assert above.verdict is nme.Verdict.SOLVABLE
    assert below.verdict is nme.Verdict.NOT_SOLVABLE
    assert abs(above.min_eig_on_circle - 0.0001) <= 1e-9
    assert abs(below.min_eig_on_circle - (-0.1)) <= 1e-9
