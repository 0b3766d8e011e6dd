"""entrolab: entropy-vector LP bounds for networks with correlated sources."""

__version__ = "0.1.0"

from fractions import Fraction as rational  # the exact rational type, by its old name

from .core import (
    INF,
    DomainError,
    EntropyVector,
    GroundSet,
    JointDistribution,
    LinearFunctional,
    binary_entropy,
    binary_entropy_inverse,
    elemental_count,
    elemental_inequalities,
    entropy_of,
    entropy_vector_of,
    is_polymatroid,
    uniform_bits,
)
from .lp import (
    Feasible,
    Infeasible,
    LinearConstraint,
    LinearSystem,
    Optimal,
    minimize,
    solve_feasibility,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
