"""Numerical lab for backward SDEs driven by Brownian motion and a
finite-activity compensated Poisson random measure: exact scenario-tree
oracle, Monte Carlo regression solver, Picard iteration with contraction
monitoring and horizon subdivision, truncation ladder for merely integrable
data, and empirical verification of the a priori solution estimates."""

__version__ = "0.1.0"

from .errors import (ConditioningError, ConfigError, NumericError,
                     ResourceLimitError, StepSizeError)
from .randomness import (MarkSpace, PathBatch, ScenarioTree, TimeGrid,
                         build_scenario_tree, make_mark_space, make_time_grid,
                         merge_batches, simulate_brownian, simulate_paths,
                         simulate_poisson_measure)
from .integrals import (IntegralResult, RandomField, brownian_integral,
                        jump_identity_check, lp_field_norm,
                        poisson_integral_compensated, quadratic_variation)
from .norms import (ProcessSample, StoppingFamily, StoppingRule, class_d_norm,
                    mp_norm, sp_norm, uniform_integrability_profile)
from .generators import (BSDEProblem, GeneratorSpec, StateContext,
                         TerminalSpec, check_growth, check_lipschitz,
                         make_generator, make_problem, make_terminal, q_n,
                         truncate_problem)
from .solver import (LadderReport, PicardTrace, Solution, SubdivisionPlan,
                     bsde_residual_max, chained_solve, picard_q, picard_solve,
                     solution_norms, solve_mc_regression, solve_tree,
                     subdivide_horizon, truncation_ladder_solve)
from .estimates import (EstimateReport, check_integrability, ci_suite,
                        uniqueness_experiment, verify_full_estimate,
                        verify_zv_estimate)

__all__ = [name for name in dir() if not name.startswith("_")]
