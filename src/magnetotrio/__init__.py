"""Planar Coulomb charges in a uniform perpendicular magnetic field.

The package integrates the exact Newton equations for n charges moving in
a plane under their mutual Coulomb forces and a uniform magnetic field
perpendicular to that plane, checks the conserved quantities (energy,
pseudomomentum, angular momentum, and the quadratic Casimir built from
them) with a complex-step Poisson-bracket engine, transforms the
three-charge problem to center-of-mass plus relative coordinates, and
solves the algebraic systems whose roots are the special rigidly-rotating
configurations, certifying each root against the Newton flow.
"""

__version__ = "0.1.0"

from .errors import (CollisionError, DegenerateError, DomainError,
                     MagnetotrioError, NonConvergence, NoSolution,
                     SpecParseError, StepUnderflow, ValidityError)
from .model import (Classification, PhaseState, SystemSpec, classify_system,
                    format_system, load_system, parse_system, save_system)
from .dynamics import (IntegratorSettings, RigidityReport, Trajectory,
                       accelerations, integrate, pair_distances,
                       read_trajectory_csv, rigidity_report,
                       write_trajectory_csv)
from .invariants import (GLOBAL_INVARIANTS, SPECIAL_SETS, algebra_check,
                         angular_momentum, casimir, drift_report, hamiltonian,
                         invariant_table, involution_check, pair_virial,
                         poisson_bracket, pseudomomentum,
                         third_pseudomomentum_x, write_invariant_csv)
from .jacobi import (JacobiState, JacobiWeights, apply_cc, from_jacobi,
                     hamiltonian_jacobi, integrate_jacobi, invert_cc,
                     jacobi_weights, pseudomomentum_jacobi, to_jacobi)
from .solvers import (ConfigSolution, build_initial_state,
                      closed_form_B_II, closed_form_B_III,
                      conserved_closed_forms, evaluate_p6,
                      helium_closed_forms, helium_cubic_root,
                      helium_quartic_coefficients, newton_balance,
                      p6_coefficients, pair_distance_min,
                      residuals_config_I, residuals_config_II,
                      residuals_config_III, residuals_nbody_II,
                      solve_config_I, solve_config_I_identical,
                      solve_config_I_v3zero, solve_config_II,
                      solve_config_III, solve_nbody_II, write_catalog)
