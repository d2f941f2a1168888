"""Pseudospectral geodesic solvers for regularized transport metrics on torus densities."""

from .spectral import (
    Grid,
    GridError,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    l2_inner,
    make_grid,
    operators,
)
from .geodesic import (
    DensityState,
    Diagnostics,
    SolverAbort,
    Trajectory,
    apply_L_rho,
    hamiltonian_rhs,
    horizontal_velocity,
    make_state,
    metric_energy,
    rk4,
    shoot,
    solve_L_rho,
    step_rk4,
    time_steps,
)
from .epdiff import (
    DiffeoState,
    cross_validate,
    epdiff_rhs,
    eval_periodic,
    horizontal_lift,
    horizontality_defect,
    integrate_epdiff,
    project_left,
)
from .matching import MatchProblem, MatchResult, OptSettings, solve_match

__version__ = "0.1.0"
