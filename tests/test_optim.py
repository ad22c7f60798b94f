"""Tests for `repro.optim`: the CG solvers and the assignment port."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro
from repro.optim import blocked_dot, linear_sum_assignment, minimize_cg, solve_cg
from repro.optim.cg import DOT_CHUNK


def quadratic(center, scale=1.0):
    center = np.asarray(center, dtype=float)

    def f(x):
        d = x - center
        return scale * float(d @ d), 2.0 * scale * d

    return f


class TestUnconstrained:
    def test_quadratic_converges(self):
        f = quadratic([3.0, -2.0, 7.0])
        res = minimize_cg(f, np.zeros(3), max_iter=200, step_init=1.0, rel_tol=1e-12)
        assert np.allclose(res.x, [3, -2, 7], atol=1e-3)

    def test_value_monotone(self):
        f = quadratic(np.arange(10, dtype=float))
        res = minimize_cg(f, np.zeros(10), max_iter=100, step_init=0.5, record=True)
        assert all(b <= a + 1e-12 for a, b in zip(res.trajectory, res.trajectory[1:]))

    def test_already_optimal(self):
        f = quadratic([1.0, 1.0])
        res = minimize_cg(f, np.array([1.0, 1.0]), max_iter=10, step_init=1.0)
        assert res.converged
        assert res.value == pytest.approx(0.0, abs=1e-12)

    def test_anisotropic_quadratic(self):
        scales = np.array([1.0, 50.0, 4.0])

        def f(x):
            return float(scales @ (x * x)), 2.0 * scales * x

        res = minimize_cg(f, np.array([5.0, 5.0, 5.0]), max_iter=300, step_init=0.5, rel_tol=1e-14)
        assert np.abs(res.x).max() < 1e-2

    def test_rosenbrock_descends(self):
        def f(v):
            x, y = v
            val = (1 - x) ** 2 + 100 * (y - x * x) ** 2
            gx = -2 * (1 - x) - 400 * x * (y - x * x)
            gy = 200 * (y - x * x)
            return float(val), np.array([gx, gy])

        x0 = np.array([-1.2, 1.0])
        f0, _ = f(x0)
        res = minimize_cg(f, x0, max_iter=150, step_init=0.1, rel_tol=1e-14)
        assert res.value < 0.1 * f0

    def test_max_iter_respected(self):
        f = quadratic(np.full(5, 100.0))
        res = minimize_cg(f, np.zeros(5), max_iter=3, step_init=0.01, rel_tol=0)
        assert res.iterations <= 3


class TestProjection:
    def test_stays_in_box(self):
        f = quadratic([10.0, 10.0])
        project = lambda v: np.clip(v, 0.0, 2.0)
        res = minimize_cg(f, np.zeros(2), max_iter=50, step_init=1.0, project=project)
        assert (res.x <= 2.0 + 1e-12).all()
        assert np.allclose(res.x, [2.0, 2.0], atol=1e-6)

    def test_projected_start(self):
        f = quadratic([0.0, 0.0])
        project = lambda v: np.clip(v, -1.0, 1.0)
        res = minimize_cg(f, np.array([5.0, -5.0]), max_iter=50, step_init=1.0, project=project)
        assert np.abs(res.x).max() <= 1.0 + 1e-12

    def test_step_max_caps_displacement(self):
        f = quadratic([1000.0])
        trace = []

        def probe(v):
            trace.append(v.copy())
            return v

        minimize_cg(
            f, np.zeros(1), max_iter=5, step_init=1.0, step_max=2.0, project=probe
        )
        steps = [abs(b - a).max() for a, b in zip(trace, trace[1:])]
        assert max(steps) <= 2.0 + 1e-9


class TestEdgeCases:
    def test_zero_gradient_immediate(self):
        def f(x):
            return 0.0, np.zeros_like(x)

        res = minimize_cg(f, np.ones(4), max_iter=10, step_init=1.0)
        assert res.converged
        assert res.iterations <= 1

    def test_empty_vector(self):
        def f(x):
            return 0.0, x

        res = minimize_cg(f, np.zeros(0), max_iter=5, step_init=1.0)
        assert res.converged

    def test_record_off_by_default(self):
        f = quadratic([1.0])
        res = minimize_cg(f, np.zeros(1), max_iter=10, step_init=0.5)
        assert res.trajectory == []


# One 60-iteration CG on 12,000 variables, past the 10,000 elements at
# which OpenBLAS splits a dot product across threads; prints x's bytes.
_CG_RUN = """
import sys
import numpy as np
from repro.optim import minimize_cg

rng = np.random.default_rng(0)
a = rng.uniform(0.01, 1.0, 12_000)
b = rng.normal(size=12_000)
res = minimize_cg(
    lambda x: (0.5 * float(np.sum(a * x * x)) - float(np.sum(b * x)), a * x - b),
    np.zeros(12_000), max_iter=60, rel_tol=0.0,
)
sys.stdout.write(res.x.tobytes().hex())
"""

# The quadratic baseline's solve on 12,000 unknowns; prints x's bytes.
_SOLVE_CG_RUN = """
import sys
from repro.optim import solve_cg
from tests.test_optim import spd_system

lap, b, x0 = spd_system(12_000)
sys.stdout.write(solve_cg(lap, b, x0, rtol=1e-6, maxiter=300).tobytes().hex())
"""


def spd_system(n: int):
    """A random graph Laplacian plus 0.01 I, a right-hand side and a start."""
    rng = np.random.default_rng(n)
    i, j = rng.integers(0, n, (2, 4 * n))
    adj = sp.coo_matrix((rng.uniform(0.1, 2.0, 4 * n), (i, j)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    lap = sp.diags(np.asarray(adj.sum(axis=1)).ravel() + 0.01) - adj
    return lap.tocsr(), rng.normal(size=n), rng.normal(size=n)


def run_with_blas_threads(script: str, threads: int) -> str:
    """Stdout of ``script`` in a fresh interpreter with ``threads`` BLAS threads."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs",
)


class TestBlasThreadCount:
    @needs_two_cpus
    def test_cg_bits_equal_at_one_and_two_threads(self):
        assert run_with_blas_threads(_CG_RUN, 1) == run_with_blas_threads(_CG_RUN, 2)

    @needs_two_cpus
    def test_solve_cg_bits_equal_at_one_and_two_threads(self):
        one = run_with_blas_threads(_SOLVE_CG_RUN, 1)
        assert one == run_with_blas_threads(_SOLVE_CG_RUN, 2)

    @pytest.mark.parametrize("n", [100, DOT_CHUNK])
    def test_solve_cg_matches_scipy_bytes(self, n):
        lap, b, x0 = spd_system(n)
        ref, _ = spla.cg(lap, b, x0=x0, rtol=1e-6, maxiter=300)
        assert solve_cg(lap, b, x0, rtol=1e-6, maxiter=300).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 4_000, DOT_CHUNK])
    def test_short_vectors_keep_np_dot_bits(self, n):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=n), rng.normal(size=n)
        assert blocked_dot(a, b) == float(np.dot(a, b))

    @pytest.mark.parametrize("n", [DOT_CHUNK + 1, 20_000])
    def test_blocked_dot_sums_chunks_in_order(self, n):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=n), rng.normal(size=n)
        total = 0.0
        for lo in range(0, n, 8192):
            total += float(np.dot(a[lo:lo + 8192], b[lo:lo + 8192]))
        assert blocked_dot(a, b) == total


def cost_matrix(kind: str, k: int, rng) -> np.ndarray:
    """A ``k x k`` cost matrix; every kind but ``uniform`` is tie-heavy."""
    if kind == "integer":
        return rng.integers(0, 3, (k, k)).astype(float)
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, (k, k))
    if kind == "constant":
        return np.full((k, k), 2.5)
    if kind == "zero":
        return np.zeros((k, k))
    if kind == "tenths":
        # Sums of tenths tie only up to rounding, so the order in which
        # a reduced cost is summed decides which column wins.
        return rng.integers(-9, 10, (k, k)) / 10.0
    # Matching's shape: staying put costs nothing, moving is a small gain
    # or loss on a coarse grid.
    cost = rng.choice([-0.1, 0.0, 0.1], (k, k))
    np.fill_diagonal(cost, 0.0)
    return cost


class TestLinearSumAssignment:
    """The port returns SciPy's assignment, ties included."""

    @pytest.mark.parametrize(
        "kind", ["integer", "uniform", "constant", "zero", "tenths", "zero-diagonal"]
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 24])
    def test_equals_scipy(self, kind, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            cost = cost_matrix(kind, k, rng)
            rows, cols = linear_sum_assignment(cost)
            ref_rows, ref_cols = scipy.optimize.linear_sum_assignment(cost)
            assert rows.tolist() == ref_rows.tolist()
            assert cols.tolist() == ref_cols.tolist()

    def test_equals_scipy_on_random_sizes(self):
        rng = np.random.default_rng(7)
        kinds = ["integer", "uniform", "constant", "zero", "tenths", "zero-diagonal"]
        for _ in range(200):
            cost = cost_matrix(kinds[rng.integers(6)], int(rng.integers(1, 30)), rng)
            cols = linear_sum_assignment(cost)[1]
            assert cols.tolist() == scipy.optimize.linear_sum_assignment(cost)[1].tolist()

    def test_integer_input_and_optimum(self):
        cost = [[4, 1, 3], [2, 0, 5], [3, 2, 2]]
        rows, cols = linear_sum_assignment(cost)
        assert rows.tolist() == [0, 1, 2]
        assert cols.tolist() == [1, 0, 2]
        assert sum(cost[r][c] for r, c in zip(rows, cols)) == 5

    @pytest.mark.parametrize(
        "cost",
        [np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(4), np.zeros((2, 2, 2))],
        ids=["wide", "tall", "vector", "cube"],
    )
    def test_refuses_non_square(self, cost):
        with pytest.raises(ValueError, match="square"):
            linear_sum_assignment(cost)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite(self, bad):
        cost = np.zeros((3, 3))
        cost[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            linear_sum_assignment(cost)


def test_importing_the_program_loads_no_scipy():
    """SciPy is for the quadratic baseline and the tests only: a flow,
    a CLI run and a serve worker start without it."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "import sys\n"
        "import repro, repro.cli, repro.serve.worker\n"
        "print(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
