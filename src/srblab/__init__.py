"""Numerical laboratory for linear response of chaotic diffeomorphisms.

Core pieces: parametrized map families with exact tangent data, ensemble
sampling of physical invariant measures, Lyapunov spectra and covariant
splittings, susceptibility series and convergence-radius diagnostics, the
stable/unstable decomposition of the response, and fold-geometry tools for
measures pushed through quadratic tangencies.
"""
from .config import ExperimentConfig
from .errors import (BasinEscapeError, ConfigError, FrameMisalignmentError,
                     HyperbolicityError, InsufficientDataError,
                     NumericalDegeneracyError, PadeDegeneracyError,
                     ParameterError, SrbLabError, UnsupportedDimensionError)
from .maps import (MapFamily, Observable, get_family, get_observable,
                   observable_catalog)
from .measure import (EmpiricalMeasure, birkhoff_average, correlation,
                      dimension_estimates, kaplan_yorke, srb_sample)
from .pade import PadeApproximant, robust_pade
from .response import (finite_difference_response, radius_estimate,
                       stable_unstable_split, susceptibility_coefficients,
                       volume_preserving_identity)
from .tangent import benettin_spectrum, compute_clvs, splitting_angles
from .tangency import (counting_function, detect_folds, holder_exponent,
                       make_sigma, project_along_stable,
                       synthetic_fold_convolution)

__version__ = "0.1.0"

__all__ = [
    "BasinEscapeError", "ConfigError", "EmpiricalMeasure", "ExperimentConfig",
    "FrameMisalignmentError", "HyperbolicityError", "InsufficientDataError",
    "MapFamily", "NumericalDegeneracyError", "Observable", "PadeApproximant",
    "PadeDegeneracyError", "ParameterError", "SrbLabError",
    "UnsupportedDimensionError", "benettin_spectrum", "birkhoff_average",
    "compute_clvs", "correlation", "counting_function",
    "detect_folds", "dimension_estimates", "finite_difference_response",
    "get_family", "get_observable", "holder_exponent", "kaplan_yorke",
    "make_sigma", "observable_catalog", "project_along_stable",
    "radius_estimate", "robust_pade", "srb_sample", "stable_unstable_split",
    "splitting_angles", "susceptibility_coefficients",
    "synthetic_fold_convolution", "volume_preserving_identity",
]
