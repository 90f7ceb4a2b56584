"""Exact ground states and quantum-metrology diagnostics for the
Lipkin-Meshkov-Glick model in the maximal-spin sector: quantum Fisher
information, the chi^2 = N/F entanglement witness, spin-squeezing
parameters, closed-form phase diagnostics and finite-size scaling fits.
"""

from .analytic import (
    CriticalExponents,
    CriticalPointError,
    IsotropicBrokenError,
    Phase,
    TlPrediction,
    classify_phase,
    critical_scaling_prediction,
    hp_epsilon,
    isotropic_energy,
    isotropic_ground_m,
    isotropic_level_crossings,
    mean_field_angle,
    squeezing_boundary,
    tl_prediction,
)
from .metrology import (
    MetrologyReport,
    ObservableSet,
    cat_state_metrics,
    dicke_metrics,
    qfi,
    report,
    transverse_moments,
)
from .scaling import ScalingFit, fit_linear, fit_power_law, local_exponents
from .solver import (
    ConvergenceError,
    GroundState,
    ground_eigenpair,
    lmg_ground_state,
)
from .spincore import (
    EVEN,
    ODD,
    DickeSector,
    ModelParams,
    TridiagonalMatrix,
    build_sector,
    build_sector_matrix,
    ladder_coefficient,
    parity_of,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalExponents",
    "CriticalPointError",
    "ConvergenceError",
    "DickeSector",
    "EVEN",
    "GroundState",
    "IsotropicBrokenError",
    "MetrologyReport",
    "ModelParams",
    "ODD",
    "ObservableSet",
    "Phase",
    "ScalingFit",
    "TlPrediction",
    "TridiagonalMatrix",
    "build_sector",
    "build_sector_matrix",
    "cat_state_metrics",
    "classify_phase",
    "critical_scaling_prediction",
    "dicke_metrics",
    "fit_linear",
    "fit_power_law",
    "ground_eigenpair",
    "hp_epsilon",
    "isotropic_energy",
    "isotropic_ground_m",
    "isotropic_level_crossings",
    "ladder_coefficient",
    "lmg_ground_state",
    "local_exponents",
    "mean_field_angle",
    "parity_of",
    "qfi",
    "report",
    "squeezing_boundary",
    "tl_prediction",
    "transverse_moments",
]
