"""Tests for the projected conjugate-gradient solver."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.optim import blocked_dot, minimize_cg
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


class TestBlasThreadCount:
    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_cg_bits_equal_at_one_and_two_threads(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))

        def run(threads: int) -> str:
            env = dict(os.environ, PYTHONPATH=src)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            return subprocess.run(
                [sys.executable, "-c", _CG_RUN],
                env=env, capture_output=True, text=True, check=True,
            ).stdout

        assert run(1) == run(2)

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
