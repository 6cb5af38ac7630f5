"""Solvers and verification tools for coupled planar vortex equations.

The package splits into six modules:

* :mod:`vortexlab.model` -- problem parameters, coupling algebra, spectral
  constants, and the smooth background/source fields;
* :mod:`vortexlab.functional` -- the discrete convex action functional on a
  planar grid with exact gradient and Hessian-vector product;
* :mod:`vortexlab.radial` -- one-dimensional solvers: the regularized
  radial system, the first-order profile system, and profile
  reconstruction from any radial solution;
* :mod:`vortexlab.planar` -- the full two-dimensional Newton-CG minimizer;
* :mod:`vortexlab.verify` -- quantized flux integrals, exponential decay
  fits, residual checks, uniqueness and cross-formulation validation;
* :mod:`vortexlab.cli` -- the ``vortexlab`` command-line entry point.
"""

from .errors import FieldOverflowError, NonConvergenceError, VortexlabError
from .functional import DiscreteFunctional, PlanarGrid
from .model import (
    BackgroundField,
    CouplingData,
    FunctionalCoefficients,
    ModelParams,
    SpectralConstants,
    background,
    component_flux_targets,
    coupling_matrix,
    flux_integrand_rows,
    flux_targets,
    functional_coefficients,
    spectral_constants,
)
from .planar import PlanarSolution, extract_radial_slice, solve_planar
from .radial import (
    ProfileSet,
    RadialMesh,
    RadialSolution,
    ode_residual,
    radial_mesh,
    reconstruct_profiles,
    solve_profile_bps,
    solve_radial_P,
)
from .verify import (
    VerificationReport,
    build_report,
    cross_validate,
    decay_fit,
    flux_integrals,
    pde_residual,
    uniqueness_check,
)

__version__ = "0.1.0"

__all__ = [
    "BackgroundField",
    "CouplingData",
    "DiscreteFunctional",
    "FieldOverflowError",
    "FunctionalCoefficients",
    "ModelParams",
    "NonConvergenceError",
    "PlanarGrid",
    "PlanarSolution",
    "ProfileSet",
    "RadialMesh",
    "RadialSolution",
    "SpectralConstants",
    "VerificationReport",
    "VortexlabError",
    "background",
    "build_report",
    "component_flux_targets",
    "coupling_matrix",
    "cross_validate",
    "decay_fit",
    "extract_radial_slice",
    "flux_integrals",
    "flux_integrand_rows",
    "flux_targets",
    "functional_coefficients",
    "ode_residual",
    "pde_residual",
    "radial_mesh",
    "reconstruct_profiles",
    "solve_planar",
    "solve_profile_bps",
    "solve_radial_P",
    "spectral_constants",
    "uniqueness_check",
]
