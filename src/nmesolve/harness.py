"""Test-problem factory and experiment runner.

Problems with a known maximal solution are manufactured by inverting the
equation: pick an SPD matrix X and a contraction S with spectral radius
exactly ``rho_target``, then set A = X S and Q = X + A^T X^{-1} A = X + S^T X S.
X solves the resulting equation by construction, and because
rho(X^{-1} A) = rho(S) <= 1 it is the maximal solution.  This gives every
solver a ground truth at any requested spectral ratio, which the scalar
examples alone cannot provide.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SolverFailure
from .problem import NmeProblem, new_problem, symmetric_part
from .solvers import SolverConfig, solve

__all__ = ["GeneratorSpec", "ExperimentRecord", "generate_problem", "run_experiment"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random problem: dimension, target spectral ratio, seed,
    and the eigenvalue spread of the planted solution."""

    n: int
    rho_target: float
    seed: int = 0
    conditioning: float = 10.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 <= self.rho_target <= 1.0:
            raise ValueError("rho_target must lie in [0, 1]")
        if self.conditioning < 1.0:
            raise ValueError("conditioning must be >= 1")


@dataclass
class ExperimentRecord:
    problem: NmeProblem
    known_solution: np.ndarray | None = None
    reports: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    # QR of a Gaussian sample; fixing the sign of diag(R) makes the factor
    # unique, hence reproducible across BLAS builds
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def generate_problem(spec: GeneratorSpec) -> ExperimentRecord:
    """Deterministically generate a problem with a planted maximal solution.

    The planted X has eigenvalues log-uniform in [1, conditioning]; S is an
    orthogonal similarity of a diagonal holding one eigenvalue exactly at
    ``rho_target`` and the rest uniform in [0, rho_target).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    u1 = _random_orthogonal(rng, n)
    x_eigs = np.exp(rng.uniform(0.0, np.log(spec.conditioning), n)) if spec.conditioning > 1.0 \
        else np.ones(n)
    X = symmetric_part(u1 @ np.diag(x_eigs) @ u1.T)
    s_eigs = np.empty(n)
    s_eigs[0] = spec.rho_target
    if n > 1:
        s_eigs[1:] = rng.uniform(0.0, spec.rho_target, n - 1) if spec.rho_target > 0 \
            else np.zeros(n - 1)
    u2 = _random_orthogonal(rng, n)
    S = u2 @ np.diag(s_eigs) @ u2.T
    A = X @ S
    Q = symmetric_part(X + S.T @ X @ S)
    problem = new_problem(A, Q)
    logger.debug("generated problem n=%d rho=%g seed=%d", n, spec.rho_target, spec.seed)
    return ExperimentRecord(
        problem=problem,
        known_solution=X,
        metadata={
            "seed": spec.seed,
            "rho_target": spec.rho_target,
            "conditioning": spec.conditioning,
        },
    )


def run_experiment(record: ExperimentRecord, algorithms,
                   config: SolverConfig | None = None) -> ExperimentRecord:
    """Run the requested algorithms on the record's problem.

    Solver failures are not fatal: the partial report the failure carries is
    stored with its ``failure`` message set.  The problem and known solution
    are never mutated.
    """
    cfg = config or SolverConfig()
    for algorithm in sorted(set(algorithms), key=lambda a: a.value):
        try:
            report = solve(record.problem, algorithm, cfg)
        except SolverFailure as exc:
            report = exc.report
            report.failure = str(exc)
            logger.info("%s failed: %s", algorithm.value, exc)
        record.reports[algorithm] = report
    return record
