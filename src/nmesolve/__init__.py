"""Dense solvers and pencil eigenvalue shifting for X + A^T X^{-1} A = Q."""

from . import exceptions
from .exceptions import NmeError
from .harness import ExperimentRecord, GeneratorSpec, generate_problem, run_experiment
from .problem import (
    NmeProblem,
    Residual,
    SolvabilityVerdict,
    SymplecticPencil,
    Verdict,
    build_pencil,
    canonical_skew,
    invariant_subspace_defect,
    is_symplectic_pencil,
    load_problem,
    new_problem,
    psi,
    residual,
    save_problem,
    solvability_check,
    spectral_radius_ratio,
    ssf2_blocks,
    symmetric_part,
)
from .shifting import (
    ScalarShiftStep,
    ShiftedScalarResult,
    ShiftSpec,
    UnimodularReport,
    build_shift_factors,
    detect_unimodular,
    generalized_eigenvalues,
    load_pencil,
    load_shift_spec,
    save_pencil,
    shift_multi,
    shift_single,
    solve_scalar_shifted,
    write_spectra_csv,
)
from .solvers import (
    Algorithm,
    HistoryRecord,
    RateEstimate,
    SolveReport,
    SolverConfig,
    estimate_rate,
    solve,
    solve_fixed_point,
    solve_inversion_free,
    solve_newton,
    solve_sda,
    solve_sda_scalar,
    solve_stein,
    write_history_csv,
)

__version__ = "0.1.0"
