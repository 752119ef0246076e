"""Perturbed gradient descent with uniform ball noise and its exact
(0, δ) differential-privacy accounting, validated against geometric closed
forms and Monte Carlo oracles."""

from .accountant import (
    DeltaReport,
    PrivacySpec,
    delta_curve,
    overall_delta,
    per_step_delta,
    radius_for_target,
)
from .geometry import (
    BallSpec,
    ball_volume,
    cap_volume,
    overlap_volume,
    sample_ball,
    sample_sphere_surface,
)
from .optimizer import (
    Dataset,
    DivergenceError,
    LossModel,
    RunConfig,
    RunTrace,
    builtin_losses,
    estimate_sensitivity,
    prgd_run,
    synthesize_dataset,
)
from .rng import derive_rng
from .special import (
    ConvergenceError,
    reg_inc_beta,
    reg_inc_beta_derivative,
    series_delta_odd_d,
)
from .validation import (
    MCEstimate,
    closed_form_overlap_check,
    grad_check,
    mc_tv_distance,
    surface_noise_distinguisher,
)

__version__ = "0.1.0"

__all__ = [
    "BallSpec",
    "ConvergenceError",
    "Dataset",
    "DeltaReport",
    "DivergenceError",
    "LossModel",
    "MCEstimate",
    "PrivacySpec",
    "RunConfig",
    "RunTrace",
    "ball_volume",
    "builtin_losses",
    "cap_volume",
    "closed_form_overlap_check",
    "delta_curve",
    "derive_rng",
    "estimate_sensitivity",
    "grad_check",
    "mc_tv_distance",
    "overall_delta",
    "overlap_volume",
    "per_step_delta",
    "prgd_run",
    "radius_for_target",
    "reg_inc_beta",
    "reg_inc_beta_derivative",
    "sample_ball",
    "sample_sphere_surface",
    "series_delta_odd_d",
    "surface_noise_distinguisher",
    "synthesize_dataset",
]
