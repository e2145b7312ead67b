"""Decision-focused learning through differentiable MILP relaxations.

Trains feature-to-parameter predictors end to end through a log-barrier
relaxation of mixed-integer linear programs and evaluates them by post-hoc
regret with a penalty-aware second optimization stage.
"""

from .barrier import BarrierSolution, phase1_interior, solve_barrier, solve_fixed_mu
from .exact import ExactSolution, Status, enumerate_binary, solve_lp_exact, solve_milp_bnb
from .milp import (
    Assignment,
    ParamTemplate,
    Slot,
    StandardFormMilp,
    check_feasibility,
    instantiate,
)

__all__ = [
    "Assignment",
    "BarrierSolution",
    "ExactSolution",
    "ParamTemplate",
    "Slot",
    "StandardFormMilp",
    "Status",
    "check_feasibility",
    "enumerate_binary",
    "instantiate",
    "phase1_interior",
    "solve_barrier",
    "solve_fixed_mu",
    "solve_lp_exact",
    "solve_milp_bnb",
]

__version__ = "0.1.0"
