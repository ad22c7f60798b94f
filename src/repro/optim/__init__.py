"""Numerical optimization for analytical placement."""

from repro.optim.assignment import linear_sum_assignment
from repro.optim.cg import CGResult, blocked_dot, minimize_cg, solve_cg

__all__ = [
    "CGResult", "blocked_dot", "linear_sum_assignment", "minimize_cg", "solve_cg",
]
