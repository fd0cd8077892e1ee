"""Wrapped-Gaussian resampling attacks and bin-parity detection.

A numerical library plus experiment harness around one construction: a
distribution-preserving +-a/0 resampling of standard normal data, the
central-bin mass G(a) that controls how often a coordinate stays put,
and the bin-parity statistic whose exact +-a flip property separates
detectable from undetectable sparsity budgets.
"""

from .accel import plan_for
from .attack import (
    InvalidProbabilitiesError,
    PerturbationVector,
    couple_perturb,
    optimal_parity_evasion,
    sample_die,
    sparsity_ratio,
)
from .detector import (
    DetectionResult,
    DetectorConfig,
    bin_index,
    bin_prob,
    decide,
    flip_identity_check,
    min_accepted_sum,
    parity_statistic,
)
from .harness import (
    ExperimentSpec,
    ExperimentSummary,
    SpecValidationError,
    TrialRecord,
    run_coupling_validation,
    run_thm1_detectable,
    run_thm1_undetectable,
    run_thm2_detectable,
    run_thm2_undetectable,
    sweep_phase_transition,
    trial_rng,
)
from .kernels import (
    KernelEval,
    KernelParams,
    KernelRangeError,
    SeriesConvergenceError,
    big_g_oracle,
    eval_big_g,
    eval_g,
    eval_gamma,
    eval_phi,
    fp_residual,
    solve_a_for_g,
)

__version__ = "0.1.0"

__all__ = [
    "plan_for",
    "InvalidProbabilitiesError",
    "PerturbationVector",
    "couple_perturb",
    "optimal_parity_evasion",
    "sample_die",
    "sparsity_ratio",
    "DetectionResult",
    "DetectorConfig",
    "bin_index",
    "bin_prob",
    "decide",
    "flip_identity_check",
    "min_accepted_sum",
    "parity_statistic",
    "ExperimentSpec",
    "ExperimentSummary",
    "SpecValidationError",
    "TrialRecord",
    "run_coupling_validation",
    "run_thm1_detectable",
    "run_thm1_undetectable",
    "run_thm2_detectable",
    "run_thm2_undetectable",
    "sweep_phase_transition",
    "trial_rng",
    "KernelEval",
    "KernelParams",
    "KernelRangeError",
    "SeriesConvergenceError",
    "big_g_oracle",
    "eval_big_g",
    "eval_g",
    "eval_gamma",
    "eval_phi",
    "fp_residual",
    "solve_a_for_g",
    "__version__",
]
