"""Finite-difference tools for a weakly compressible Oldroyd-B fluid.

The package splits the coupled velocity/density/stress system into three
linear subproblems with frozen coefficients, iterates them to a fixed point
over a time window, and instruments every run with the discrete energy,
transport and Gronwall-type estimates that make the construction checkable.
"""

from .errors import (ConfigError, DensityBandError, InvariantViolation,
                     LinearSolveError, NonConvergenceError, NonDirichletError,
                     OldroydError, SingularStressSystemError)
from .fields import (Grid, ScalarField, SymTensorField, VectorField,
                     div_tensor, divergence, grad_tensor, gradient, inner,
                     laplacian, mean, mean_zero_project, norm, norm_hminus1,
                     norms, save_snapshot, strain, sym_components,
                     trajectory_norms, viscous_operator)
from .rheology import FluidParams, density_band_check, momentum_source
from .transport import (CharacteristicMap, DensityBoundReport,
                        DensityStepReport, StressBoundReport,
                        StressStepReport, check_density_bounds,
                        check_stress_bounds, step_density, step_stress,
                        trace)
from .velocity import (EnergyBudgetReport, RegularityReport,
                       VelocityStepReport, check_energy_budget,
                       check_regularity_budget, step_velocity)
from .fixed_point import (ConvergenceHistory, IterTriple, MembershipReport,
                          ProbeReport, SweepDiagnostics, SystemResidual,
                          UniquenessReport, WindowAudit, assemble_forcing,
                          audit_window, check_membership, continuity_probe,
                          delta_threshold, iterate, march, picard_sweep,
                          suggest_budgets, trajectory_distance,
                          uniqueness_experiment)
from .mms import (StudyResult, all_studies, density_advection_study,
                  density_still_study, stress_relaxation_study,
                  taylor_vortex, velocity_spatial_study,
                  velocity_temporal_study)

__version__ = "0.1.0"
