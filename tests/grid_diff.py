"""Outcome of every solver on the planted grids, and its diff against a saved run.

    python tests/grid_diff.py OUT.json [BASE.json]

Solves each cell and writes one record per cell to OUT.json: the outcome
class (``converged`` or the exception's class), the iteration count (the
report's on success, the exception's ``iteration`` on failure) and a SHA-256
of the shape and bytes of X (the partial report's X on failure; ``null``
where the exception carries no report).  A cell is a problem, one of the four
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
  a homogeneity regression, also where max|Q| is subnormal.

Given BASE.json, a file this script wrote for another checkout, it prints
each cell whose record differs, then the moved cells of each grid, and of
each grid and solver the cells whose X bits, iteration count and outcome
class moved, and returns 1 when any cell moved.  Run it from
each checkout's own tree (``tests/`` and ``src/`` beside it are imported):
a bit-changing change reports the diff against its parent.  The file is
not collected by pytest, whose test files are named ``test_*.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import nmesolve as nme  # noqa: E402
from helpers import nonnormal_planted  # noqa: E402

SOLVERS = (nme.solve_fixed_point, nme.solve_inversion_free, nme.solve_newton, nme.solve_sda)
GRIDS = ("planted", "nonnormal", "edge", "large", "scale")
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


def outcome(solver, problem, record_history: bool) -> list:
    try:
        report = solver(problem, nme.SolverConfig(record_history=record_history))
    except Exception as exc:  # noqa: BLE001 - a raw error is an outcome too
        report = getattr(exc, "report", None)
        return [type(exc).__name__, getattr(exc, "iteration", None),
                x_hash(report.X if report is not None else None)]
    return ["converged", report.iterations, x_hash(report.X)]


def grid() -> dict:
    return {f"{name}/{solver.__name__}/history={int(history)}": outcome(solver, problem, history)
            for name, problem in problems()
            for solver in ((nme.solve_sda,) if name.startswith("large/") else SOLVERS)
            for history in ((False,) if name.startswith("scale/") else (False, True))}


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
    moved = sorted(key for key in base.keys() | cells.keys() if base.get(key) != cells.get(key))
    for key in moved:
        print(f"{key}: {base.get(key)} -> {cells.get(key)}")
    for name in GRIDS:
        print(f"{name}: {sum(key.startswith(name + '/') for key in moved)} of "
              f"{sum(key.startswith(name + '/') for key in cells)} cells moved")
    for name in GRIDS:
        for solver in SOLVERS:
            keys = {key for key in cells
                    if key.startswith(name + "/") and f"/{solver.__name__}/" in key}
            if not keys:
                continue
            pairs = [(base.get(key), cells.get(key)) for key in moved if key in keys]
            print(f"{name} {solver.__name__}: " + ", ".join(
                f"{sum(None in pair or pair[0][i] != pair[1][i] for pair in pairs)} {what} moved"
                for i, what in ((2, "bits"), (1, "iterations"), (0, "class"))))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
