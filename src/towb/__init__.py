"""towb: a workbench for weighted transfer operators on the circle.

Core objects: grid functions and measures on ``[0, 1)``, weighted iterated
function systems, the transfer operator and its adjoint, harmonic solving,
square-density decomposition with a defect functional, and the induced
path-space measures with exact cylinder calculus and Monte Carlo sampling.
"""

from .errors import ConfigError, ConvergenceError, DomainError, TowbError
from .grid import (AffineBranch, GridFunction, IntervalSet, Measure,
                   integrate, integrate_over, pushforward)
from .harmonic import (HarmonicSolution, fourier_cascade_check,
                       normalize_weight, solve_harmonic)
from .sigspace import (Decomposition, SigElement, defect, defect_search,
                       hutchinson_iterate, l1_membership, lebesgue_decompose,
                       sig_distance_sq, sig_inner, sig_norm_sq)
from .solenoid import (CylinderFunction, MultiresResult, PathMeasure, SolPath,
                       batch_trials, conditional_expectation, coordinates,
                       cylinder_mass, empirical_cylinder_frequency,
                       expectation, harmonic_from_measure, markov_deviation,
                       multires_check, quasi_invariance_defect, sample_bases,
                       sample_paths, shift_back, shift_forward, u_apply,
                       unitarity_check, v0_adjoint, worst_quasi_defect)
from .system import (IfsSystem, PiecewiseAffineMap, WeightExpr,
                     doubling_system, make_system, sys_a, sys_b, sys_d,
                     validate_system)
from .transfer import (IdentityCheck, IdentitySuiteResult, TransferOperator,
                       identity_suite)
from .trig import TrigPoly

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
