"""Bohr-Sommerfeld action density vs Weyl pushforward density, at desk scale.

Core objects: closed-form phase-space symbols with exact bracket
calculus, complex canonical deformation flows, density estimators on
spectral windows, variational identity checks, and truncated
quantizations with Bohr-Sommerfeld lattice predictions.
"""

from .symbols import (PhasePoint, SymbolExpr, DimensionMismatchError,
                      eval_symbol, gradient, poisson_bracket, real_bracket,
                      torus_average, action_symbol,
                      cho, torus_linear, torus_coupled, coupling_xx,
                      sin_x1_cos_xi2, load_symbol)
from .audit import AuditReport, audit
from .flow import (Deformation, DeformedSymbol, FlowResult,
                   integrate_flow, deformed_quadratic,
                   load_deformation, symplectic_matrix)
from .density import (ActionMap, ComplexWindow, DensityGrid,
                      action_map_integrable, omega_density, preimage_volume,
                      weyl_density, weyl_density_torus)
from .variation import (TestFunction, VariationReport, moment,
                        first_variation_rhs, second_variation_rhs,
                        nonequality_certificate)
from .quantize import (BasisSpec, BSLattice, OperatorMatrix, SpectrumResult,
                       bs_predict, count_and_compare, perturb,
                       quantize_quadratic, quantize_torus, spectrum)

__version__ = "0.1.0"

__all__ = [
    "PhasePoint", "SymbolExpr", "DimensionMismatchError",
    "eval_symbol", "gradient", "poisson_bracket", "real_bracket",
    "torus_average", "action_symbol",
    "cho", "torus_linear", "torus_coupled", "coupling_xx", "sin_x1_cos_xi2",
    "load_symbol",
    "AuditReport", "audit",
    "Deformation", "DeformedSymbol", "FlowResult",
    "integrate_flow", "deformed_quadratic",
    "load_deformation", "symplectic_matrix",
    "ActionMap", "ComplexWindow", "DensityGrid",
    "action_map_integrable", "omega_density", "preimage_volume",
    "weyl_density", "weyl_density_torus",
    "TestFunction", "VariationReport", "moment",
    "first_variation_rhs", "second_variation_rhs", "nonequality_certificate",
    "BasisSpec", "BSLattice", "OperatorMatrix", "SpectrumResult",
    "bs_predict", "count_and_compare", "perturb",
    "quantize_quadratic", "quantize_torus", "spectrum",
]
