"""Outcome of every solver on the planted grids, and its diff against a saved run.

    python tests/grid_diff.py OUT.json [BASE.json]

Solves each cell and writes one record per cell to OUT.json: the outcome
class (``converged`` or the exception's class), the iteration count (the
report's on success, the exception's ``iteration`` on failure) and a SHA-256
of the shape and bytes of X (the partial report's X on failure; ``null``
where the exception carries no report).  A ``history=1`` cell also records a
SHA-256 of its history's k, rel_residual and step_norm columns and the lists
of its aux1 and aux2 values.  A cell is a problem, one of the four
solvers (``solve_sda`` alone on ``large``) and ``record_history`` off or on;
the grids are

- ``planted``: ``generate_problem`` at n in {1, 2, 8, 16, 24, 32, 64},
  rho in {.5, .9, .999, 1} and seeds 0-2 (672 cells);
- ``nonnormal``: ``tests/helpers.nonnormal_planted`` at n in {8, 32},
  eta in {1, 3}, rho in {.5, .9, .999, 1} and seeds 0-3 (512 cells);
- ``edge``: A = 0, an indefinite Q that only a hand-built ``NmeProblem``
  can carry, and data whose R(Q) or ||A||_F / max|Q| overflows (48 cells);
- ``large``: ``generate_problem`` at n in {96, 128, 256}, the same four rho
  and seeds 0-2, ``solve_sda`` only (72 cells), where the doubling step's
  inverse Cholesky factor is blocked (``problem._cholesky_inverse``);
- ``scale``: ``generate_problem`` at n in {2, 8, 32}, rho in {.5, .999} and
  seeds 0-1, with A and Q multiplied by 2^k for k in {-1030, -600, 600, 1000},
  ``record_history`` off only (192 cells): (A, Q) -> (2^k A, 2^k Q) maps X to
  2^k X, so a cell that leaves its unit twin's class or iteration count shows
  a homogeneity regression, also where max|Q| is subnormal;
- ``verdict``: the problem-layer analysis, not a solver, on ``generate_problem``
  at n in {1, 2, 8, 32, 64, 128}, the four rho and seeds 0-4, each as (A, Q),
  (-A, Q) and (A, Q / 2), plus ``nonnormal_planted`` at n in {8, 32}, eta in
  {1, 3}, rho in {.9, .999, 1} and seeds 0-3 (408 cells).  Its record is the
  verdict of ``solvability_check``, ``regular``, the hex bits of
  ``min_eig_on_circle``, a SHA-256 of ``detect_unimodular``'s eigenvalues and
  eigenvectors of the pencil (each an exception's class where one is raised),
  the SHA-256 of the X of ``solve_sda`` of the problem taken right after the
  verdict, and whether the verdict kept its doubling run for that solve.

Given BASE.json, a file this script wrote for another checkout, it prints
each cell whose record differs outside its aux values and kept flag, then the
moved cells of each grid, the ``verdict`` cells that kept a run in each file,
and of each grid and solver the cells whose X bits, iteration count, outcome
class and history hash moved and the largest relative difference of an aux
value, and returns 1 when any cell moved: aux values are diagnostics
(eigenvalues among them) and a kept run is a saving whose X the hash checks,
so neither alone moves a cell.  Run it from
each checkout's own tree (``tests/`` and ``src/`` beside it are imported):
a bit-changing change reports the diff against its parent.  The file is
not collected by pytest, whose test files are named ``test_*.py``.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import nmesolve as nme  # noqa: E402
from helpers import nonnormal_planted  # noqa: E402

SOLVERS = (nme.solve_fixed_point, nme.solve_inversion_free, nme.solve_newton, nme.solve_sda)
GRIDS = ("planted", "nonnormal", "edge", "large", "scale", "verdict")
RHOS = (0.5, 0.9, 0.999, 1.0)


def planted(grid: str, sizes):
    """(name, problem) of ``generate_problem`` at each n of ``sizes``, each rho and seeds 0-2."""
    for n in sizes:
        for rho in RHOS:
            for seed in range(3):
                spec = nme.GeneratorSpec(n=n, rho_target=rho, seed=seed)
                yield f"{grid}/n={n}/rho={rho}/seed={seed}", nme.generate_problem(spec).problem


def problems():
    """(name, problem) of every grid point."""
    yield from planted("planted", (1, 2, 8, 16, 24, 32, 64))
    for n in (8, 32):
        for eta in (1.0, 3.0):
            for rho in RHOS:
                for seed in range(4):
                    yield (f"nonnormal/n={n}/eta={eta}/rho={rho}/seed={seed}",
                           nonnormal_planted(n, rho, eta, seed)[0])
    yield "edge/zero-a", nme.new_problem(np.zeros((2, 2)), np.diag([2.0, 3.0]))
    yield "edge/indefinite-q", nme.NmeProblem(A=0.5 * np.eye(2), Q=np.diag([1.0, -1.0]))
    yield "edge/a-scale-overflow", nme.new_problem([[1e10]], [[1e-300]])
    yield "edge/scalar-r0-overflow", nme.new_problem([[1e200]], [[1.0]])
    yield "edge/matrix-r0-overflow", nme.new_problem(
        1e180 * np.array([[1.0, 2.0], [3.0, 4.0]]), 1e-214 * np.eye(2))
    yield "edge/sda-breakdown", nme.new_problem(
        1e200 * np.random.default_rng(0).standard_normal((3, 3)), np.eye(3))
    yield from planted("large", (96, 128, 256))
    for n in (2, 8, 32):
        for rho in (0.5, 0.999):
            for seed in range(2):
                p = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed)).problem
                for k in (-1030, -600, 600, 1000):
                    yield (f"scale/n={n}/rho={rho}/seed={seed}/k={k}",
                           nme.new_problem(np.ldexp(p.A, k), np.ldexp(p.Q, k)))


def x_hash(X) -> str | None:
    if X is None:
        return None
    X = np.asarray(X)
    data = repr(X.shape).encode() + np.ascontiguousarray(X, float).tobytes()
    return hashlib.sha256(data).hexdigest()


def history_record(report) -> list:
    """[SHA-256 of the history's k, rel_residual and step_norm columns, aux1 values, aux2 values]."""
    if report is None:
        return [None, [], []]
    columns = np.array([(h.k, h.rel_residual, h.step_norm) for h in report.history], float)
    return [hashlib.sha256(columns.tobytes()).hexdigest(),
            [h.aux1 for h in report.history], [h.aux2 for h in report.history]]


def outcome(solver, problem, record_history: bool) -> list:
    try:
        report = solver(problem, nme.SolverConfig(record_history=record_history))
        record = ["converged", report.iterations, x_hash(report.X)]
    except Exception as exc:  # noqa: BLE001 - a raw error is an outcome too
        report = getattr(exc, "report", None)
        record = [type(exc).__name__, getattr(exc, "iteration", None),
                  x_hash(report.X if report is not None else None)]
    return record + (history_record(report) if record_history else [])


def rel_diff(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 where a and b are equal or both NaN, inf where one is not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b) else math.inf


def aux_diff(old: list | None, new: list | None) -> float:
    """The largest ``rel_diff`` of two records' aux1 and aux2 values, step by step."""
    if not (old and new and len(old) == len(new) == 6):
        return 0.0
    return max((rel_diff(a, b) for i in (4, 5) for a, b in zip(old[i], new[i])), default=0.0)


def verdict_problems():
    """(name, problem) of the ``verdict`` grid."""
    for n in (1, 2, 8, 32, 64, 128):
        for rho in RHOS:
            for seed in range(5):
                p = nme.generate_problem(nme.GeneratorSpec(n=n, rho_target=rho, seed=seed)).problem
                for variant, A, Q in (("a", p.A, p.Q), ("neg-a", -p.A, p.Q), ("half-q", p.A, p.Q / 2)):
                    yield f"verdict/n={n}/rho={rho}/seed={seed}/{variant}", nme.new_problem(A, Q)
    for n in (8, 32):
        for eta in (1.0, 3.0):
            for rho in RHOS[1:]:
                for seed in range(4):
                    yield (f"verdict/nonnormal/n={n}/eta={eta}/rho={rho}/seed={seed}",
                           nonnormal_planted(n, rho, eta, seed)[0])


def analysis(problem) -> list:
    """[verdict, regular, min_eig_on_circle's hex bits, detect_unimodular's hash,
    the hash of solve_sda's X right after the verdict, whether the verdict kept a run]."""
    try:
        check = nme.solvability_check(problem)
        record = [check.verdict.value, check.regular, check.min_eig_on_circle.hex()]
    except Exception as exc:  # noqa: BLE001 - a raw error is an outcome too
        record = [type(exc).__name__, None, None]
    solved = outcome(nme.solve_sda, problem, False)[2]
    kept = "_certified_run" in vars(problem)
    try:
        found = nme.detect_unimodular(nme.build_pencil(problem))
        digest = hashlib.sha256(x_hash(found.eigenvalues.view(float)).encode())
        digest.update(x_hash(found.eigenvectors.view(float)).encode())
        return record + [digest.hexdigest(), solved, kept]
    except Exception as exc:  # noqa: BLE001
        return record + [type(exc).__name__, solved, kept]


def compared(key: str, record: list | None) -> list:
    """The part of a cell's record that moves it: all but the aux values of a solver
    cell and the kept flag of a ``verdict`` cell."""
    return (record or [None])[:5 if key.startswith("verdict/") else 4]


def grid() -> dict:
    cells = {f"{name}/{solver.__name__}/history={int(history)}": outcome(solver, problem, history)
             for name, problem in problems()
             for solver in ((nme.solve_sda,) if name.startswith("large/") else SOLVERS)
             for history in ((False,) if name.startswith("scale/") else (False, True))}
    return cells | {name: analysis(problem) for name, problem in verdict_problems()}


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    cells = grid()
    Path(argv[0]).write_text(json.dumps(cells, indent=0))
    print(f"{len(cells)} cells written to {argv[0]}")
    if len(argv) == 1:
        return 0
    base = json.loads(Path(argv[1]).read_text())
    moved = sorted(key for key in base.keys() | cells.keys()
                   if compared(key, base.get(key)) != compared(key, cells.get(key)))
    for key in moved:
        print(f"{key}: {compared(key, base.get(key))} -> {compared(key, cells.get(key))}")
    for name in GRIDS:
        print(f"{name}: {sum(key.startswith(name + '/') for key in moved)} of "
              f"{sum(key.startswith(name + '/') for key in cells)} cells moved")
    for label, records in (("base", base), ("this run", cells)):
        kept = sum(key.startswith("verdict/") and (record or [None])[5:] == [True]
                   for key, record in records.items())
        print(f"verdict: {kept} cells kept a run in {label}")
    for name in GRIDS:
        for solver in SOLVERS:
            keys = {key for key in cells
                    if key.startswith(name + "/") and f"/{solver.__name__}/" in key}
            if not keys:
                continue
            pairs = [(base.get(key), cells.get(key)) for key in moved if key in keys]
            history = [key for key in keys if key.endswith("/history=1")]
            aux = max((aux_diff(base.get(key), cells[key]) for key in history), default=0.0)
            print(f"{name} {solver.__name__}: " + ", ".join(
                f"{sum(None in pair or pair[0][i:i + 1] != pair[1][i:i + 1] for pair in pairs)} "
                f"{what} moved" for i, what in ((2, "bits"), (1, "iterations"), (0, "class"),
                                                (3, "history"))) + f", largest aux difference {aux:.2g}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
