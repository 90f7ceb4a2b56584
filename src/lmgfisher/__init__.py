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
    isotropic_energy,
    isotropic_ground_m,
    isotropic_level_crossings,
    tl_prediction,
)
from .metrology import (
    MetrologyReport,
    ObservableSet,
    cat_state_metrics,
    dicke_metrics,
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
    MAX_N_SPINS,
    ODD,
    ModelParams,
    TridiagonalMatrix,
    build_sector,
    build_sector_matrix,
    sector_dimension,
    sector_row,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalExponents",
    "CriticalPointError",
    "ConvergenceError",
    "EVEN",
    "GroundState",
    "IsotropicBrokenError",
    "MAX_N_SPINS",
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
    "isotropic_energy",
    "isotropic_ground_m",
    "isotropic_level_crossings",
    "lmg_ground_state",
    "local_exponents",
    "report",
    "sector_dimension",
    "sector_row",
    "tl_prediction",
    "transverse_moments",
]
