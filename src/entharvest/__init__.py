"""Entanglement-harvesting negativity for inertially moving detector pairs."""

from .model import (
    DetectorSettings,
    EncounterGeometry,
    HarvestQuantities,
    NoFiniteThresholdError,
    PeakResult,
    RegionLabel,
    VelocityProfile,
    classify_region,
    find_peak_velocity,
    negativity,
    omega_peak_threshold,
    second_derivative_at_rest,
    spacelike_min_distance,
    static_negativity,
    static_x_abs,
    transition_probability,
    velocity_profile,
)
from .oracle import p_momentum_oracle, x_momentum_oracle
from .quadrature import (
    ConvergenceError,
    NonFiniteIntegrandError,
    QuadratureError,
    QuadratureSettings,
)
from .validate import run_validation

__version__ = "0.1.0"

__all__ = [
    "DetectorSettings",
    "EncounterGeometry",
    "QuadratureSettings",
    "transition_probability",
    "negativity",
    "static_x_abs",
    "static_negativity",
    "spacelike_min_distance",
    "omega_peak_threshold",
    "second_derivative_at_rest",
    "velocity_profile",
    "find_peak_velocity",
    "classify_region",
    "p_momentum_oracle",
    "x_momentum_oracle",
    "run_validation",
    "HarvestQuantities",
    "PeakResult",
    "RegionLabel",
    "VelocityProfile",
    "NoFiniteThresholdError",
    "QuadratureError",
    "ConvergenceError",
    "NonFiniteIntegrandError",
    "__version__",
]
