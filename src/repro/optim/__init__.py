"""Numerical optimization for analytical placement."""

from repro.optim.cg import CGResult, blocked_dot, minimize_cg, solve_cg

__all__ = ["CGResult", "blocked_dot", "minimize_cg", "solve_cg"]
