"""Projected Polak-Ribiere conjugate gradient with backtracking line search.

This is the inner solver of global placement: it minimizes the merit
function ``wirelength + lambda * density`` for one value of ``lambda``.
The placement-specific twists, both standard in the NTUplace lineage:

* search directions are normalized to unit infinity-norm, so the step
  length is measured in *distance on the die* and can be capped (cells
  never teleport across the core in one iteration);
* an optional projection keeps iterates inside the core (and inside fence
  regions) after every step, making the method a projected CG.

Every dot product goes through :func:`blocked_dot`, so the trajectory
does not depend on the BLAS thread count.  The inner loop is
allocation-free: the iterate, trial point, direction, and gradients
live in preallocated buffers updated in place (only
commutative/associative-neutral rewrites, so the trajectory is
bit-identical to the original).  Gradients returned
by ``value_grad`` are copied into solver-owned storage, which also makes
the solver safe for objectives that reuse one output buffer across calls.
The original allocating implementation is kept as a golden twin under
``tests/reference/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


#: OpenBLAS splits a ``ddot`` across its threads above 10,000 elements,
#: and the split changes the last bits of the sum.  :func:`blocked_dot`
#: never hands BLAS more than this many, so its result does not depend
#: on the BLAS thread count.
DOT_CHUNK = 8192


def blocked_dot(a, b) -> float:
    """``a . b`` of two 1-D vectors, summed over fixed chunks.

    Chunk products are added left to right, so the bits depend only on
    the inputs.  Vectors of up to :data:`DOT_CHUNK` elements take one
    ``np.dot``, bit-identical to calling it directly.
    """
    n = len(a)
    if n <= DOT_CHUNK:
        return float(np.dot(a, b))
    total = 0.0
    for lo in range(0, n, DOT_CHUNK):
        total += float(np.dot(a[lo:lo + DOT_CHUNK], b[lo:lo + DOT_CHUNK]))
    return total


@dataclass
class CGResult:
    """Outcome of :func:`minimize_cg`."""

    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    trajectory: list  # objective value per iteration
    final_step: float = 0.0  # last accepted line-search step (die distance)
    nonfinite: bool = False  # NaN/Inf observed in the final value/gradient


def minimize_cg(
    value_grad,
    x0: np.ndarray,
    *,
    max_iter: int = 100,
    step_init: float = 1.0,
    step_max: float | None = None,
    rel_tol: float = 1e-4,
    armijo_c: float = 1e-4,
    backtrack: float = 0.5,
    max_backtracks: int = 12,
    project=None,
    record: bool = False,
) -> CGResult:
    """Minimize ``value_grad: x -> (f, g)`` starting from ``x0``.

    ``step_init``/``step_max`` are in the units of ``x`` (die distance).
    ``project`` maps a candidate iterate back into the feasible set (it
    may update its argument in place and return it).  Converges when the
    relative objective decrease over an iteration falls below
    ``rel_tol``.
    """
    # Optional value/gradient split: an objective exposing ``probe`` (value
    # of a trial point) and ``finish_grad`` (gradient of the last probed
    # point) lets rejected line-search probes skip gradient work entirely.
    # Both halves must reproduce ``value_grad`` bit for bit.
    probe = getattr(value_grad, "probe", None)
    finish_grad = getattr(value_grad, "finish_grad", None)
    split = probe is not None and finish_grad is not None
    x = np.array(x0, dtype=float)
    if project is not None:
        x = project(x)
    f, g_ret = value_grad(x)
    g = np.array(g_ret, dtype=float)       # solver-owned copy
    g_new = np.empty_like(g)
    d = np.negative(g)
    d_hat = np.empty_like(d)
    x_try = np.empty_like(x)
    work = np.empty_like(d)
    alpha = float(step_init)
    trajectory = [f] if record else []
    converged = False
    iterations = 0
    last_step = 0.0
    for it in range(max_iter):
        iterations = it + 1
        if d.size:
            np.abs(d, out=work)
            dinf = float(work.max())
        else:
            dinf = 0.0
        if dinf <= 0.0:
            converged = True
            break
        np.divide(d, dinf, out=d_hat)
        slope = blocked_dot(g, d_hat)
        if slope >= 0.0:  # not a descent direction: restart on -g
            np.negative(g, out=d)
            np.abs(d, out=work)
            dinf = float(work.max())
            if dinf <= 0.0:
                converged = True
                break
            np.divide(d, dinf, out=d_hat)
            slope = blocked_dot(g, d_hat)
            if slope >= 0.0:
                converged = True
                break
        # Backtracking Armijo search in absolute distance units.
        step = alpha
        if step_max is not None:
            step = min(step, step_max)
        accepted = False
        f_new = f
        for _ in range(max_backtracks):
            np.multiply(d_hat, step, out=x_try)
            x_try += x
            if project is not None:
                x_try = project(x_try)
            if split:
                f_try = probe(x_try)
            else:
                f_try, g_try = value_grad(x_try)
            if f_try <= f + armijo_c * step * slope or f_try < f:
                accepted = True
                f_new = f_try
                np.copyto(g_new, finish_grad() if split else g_try)
                break
            step *= backtrack
        if not accepted:
            converged = True
            break
        last_step = step
        # Adapt the trial step: grow after easy acceptance, keep otherwise.
        alpha = step * (2.0 if step >= alpha * 0.99 else 1.0)
        if step_max is not None:
            alpha = min(alpha, step_max)
        # Polak-Ribiere+ update.
        gg = blocked_dot(g, g)
        beta = 0.0
        if gg > 0:
            np.subtract(g_new, g, out=work)
            beta = max(0.0, blocked_dot(g_new, work) / gg)
        d *= beta
        d -= g_new
        rel_drop = abs(f - f_new) / max(abs(f), 1e-12)
        x, x_try = x_try, x                  # accepted trial becomes iterate
        g, g_new = g_new, g
        f = f_new
        if record:
            trajectory.append(f)
        if rel_drop < rel_tol:
            converged = True
            break
    # ``np.linalg.norm`` of a vector is ``sqrt(dot(g, g))``, so this is
    # bit-identical to it up to DOT_CHUNK elements.
    grad_norm = math.sqrt(blocked_dot(g, g)) if g.size else 0.0
    return CGResult(
        x=x,
        value=f,
        grad_norm=grad_norm,
        iterations=iterations,
        converged=converged,
        trajectory=trajectory,
        final_step=last_step,
        nonfinite=not (math.isfinite(f) and math.isfinite(grad_norm)),
    )

