"""spinsurf: spin-field dynamics, soliton surfaces, and zero-curvature checks."""

from .errors import (Blowup, ConfigError, DegenerateTangent, FormatError,
                     GridMismatch, GridTooSmall, NearZeroNorm, NonConvergence,
                     NonFiniteResult, NonFiniteValue, NonZeroMeanSource,
                     PhononAbsent, SpinsurfError, UnimplementedModel,
                     UnknownModel)
from .fields import (CLAMPED, PERIODIC, Grid, ScalarField, SpinField, VecField,
                     constant_field, cross, diff, dot, norm,
                     project_sphere, same_grid, triple)
from .geometry import (CoefficientSet, ResidualReport, classical_coeffs,
                       mf_tangents, n_system_residual, reconstruct_surface,
                       unit_normal)
from .models import (hf_rhs, lle_rhs, mxiii_constraint, mxiii_rhs, mxiii_terms,
                     mxiiia_system, mxiiib_system, stationary_residual)
from .magnetoelastic import (ModelSpec, catalog_lookup, catalog_names,
                             me_phonon_rhs, me_spin_rhs, pauli_oracle_rhs)
from .solvers import mixed_integrate, poisson_solve
from .evolve import (EvolveOptions, Trajectory, check_stability, diagnostics,
                     energy_proxy, evolution_model, evolve, rk4_step)
from .zerocurv import (build_C, hasimoto, nlse_residual, nlse_soliton, solve_D,
                       zc_residual)
from . import synth

__version__ = "0.1.0"
