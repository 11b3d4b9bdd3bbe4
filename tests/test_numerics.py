"""Tests for the shared numerical kernels.

Oracles are computed in-test with independent methods (closed-form
integrals, analytically known roots and fixed points).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmalimits import (
    BracketError,
    DivergenceError,
    FrequencyGrid,
    bisect,
    fixed_point,
)


class TestFixedPoint:
    def test_linear_contraction(self):
        # x -> 0.5 x + 1 has the unique fixed point x = 2.
        value, report = fixed_point(lambda x: 0.5 * x + 1.0, np.array(0.0))
        assert value == pytest.approx(2.0, abs=1e-9)
        assert report.converged
        assert report.final_residual <= 1e-10

    def test_vector_iteration(self):
        # Componentwise contraction toward [2, -4].
        target = np.array([2.0, -4.0])
        value, report = fixed_point(lambda x: 0.25 * x + 0.75 * target, np.zeros(2))
        np.testing.assert_allclose(value, target, atol=1e-9)
        assert report.converged

    def test_immediate_convergence(self):
        value, report = fixed_point(lambda x: x, np.array(3.0))
        assert value == pytest.approx(3.0)
        assert report.converged
        assert report.iterations <= 1

    def test_divergent_map_raises(self):
        # Cubing from 2.0 overflows to inf within a dozen iterations.
        with np.errstate(over="ignore"), pytest.raises(DivergenceError,
                                                       match="diverge"):
            fixed_point(lambda x: x**3, np.array(2.0))

    def test_iteration_budget_reports_nonconvergence(self):
        # A contraction too slow for the budget returns a truthful report
        # instead of raising: after 10000 steps of 0.999999 * x the step
        # is still about 1e-6, far above the 1e-10 tolerance.
        _, report = fixed_point(lambda x: 0.999999 * x, np.array(1.0))
        assert not report.converged
        assert report.iterations == 10000
        assert report.final_residual > 1e-10
        assert report.damping_used == 1.0

    def test_report_counts_iterations(self):
        # 0.5 * x from 1 moves by 2^-k in step k, and 2^-34 is the first
        # move below 1e-10.
        _, report = fixed_point(lambda x: 0.5 * x, np.array(1.0))
        assert report.converged
        assert report.iterations == 34
        assert report.damping_used == 1.0


class TestBisect:
    def test_known_root_of_cosine(self):
        root = bisect(np.cos, 0.0, np.pi)
        assert root == pytest.approx(np.pi / 2.0, abs=1e-11)

    def test_root_at_endpoint(self):
        assert bisect(lambda x: x, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert bisect(lambda x: x - 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_decreasing_function(self):
        root = bisect(lambda x: 1.0 - x**2, 0.0, 5.0)
        assert root == pytest.approx(1.0, abs=1e-10)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError, match="bracket"):
            bisect(lambda x: x + 10.0, 0.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(root=st.floats(min_value=-5.0, max_value=5.0))
    def test_recovers_cubic_root(self, root):
        # x^3 is strictly increasing, so x -> (x - root)^3 has a unique zero.
        got = bisect(lambda x: (x - root) ** 3, -8.0, 8.0, tol=1e-13)
        assert got == pytest.approx(root, abs=1e-6)

    @staticmethod
    def _counted(fn):
        calls = []

        def wrapped(x):
            calls.append(x)
            return fn(x)
        return wrapped, calls

    def test_cosine_root_in_few_calls(self):
        # Plain bisection needs 42 calls here; the interpolation steps
        # converge superlinearly on a smooth function.
        fn, calls = self._counted(math.cos)
        root = bisect(fn, 0.0, math.pi, tol=1e-12)
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert len(calls) <= 12

    @settings(max_examples=50, deadline=None)
    @given(root=st.floats(min_value=0.001, max_value=0.999),
           tol=st.sampled_from([1e-4, 1e-9, 1e-12, 1e-14]))
    def test_never_beyond_bisection_plus_one(self, root, tol):
        # A jump and a zero of order 21 defeat interpolation; the
        # projection still caps the steps at bisection's count plus one,
        # and the result is the midpoint of a bracket no wider than tol.
        budget = math.ceil(math.log2(1.0 / tol)) + 3  # + both ends + one
        for fn in (lambda x: -1.0 if x < root else 1.0,
                   lambda x: (x - root) ** 21):
            counted, calls = self._counted(fn)
            got = bisect(counted, 0.0, 1.0, tol=tol)
            assert len(calls) <= budget
            assert abs(got - root) <= 0.5 * tol + 1e-15

    def test_negative_infinite_end_value(self):
        # A log-ratio that is -inf at the lower end, as in the Eb/N0
        # inversion when the capacity vanishes there.
        fn = lambda x: -math.inf if x <= 0.0 else math.log(x / 0.25)
        assert bisect(fn, 0.0, 1.0, tol=1e-12) == pytest.approx(
            0.25, abs=1e-12)


class TestFrequencyGrid:
    def test_midpoints_symmetric(self):
        grid = FrequencyGrid.midpoints(64)
        assert grid.points.sum() == pytest.approx(0.0, abs=1e-12)
        assert grid.points[0] == pytest.approx(-np.pi + grid.spacing / 2.0)
        assert grid.points[-1] == pytest.approx(np.pi - grid.spacing / 2.0)

    def test_spacing_covers_full_period(self):
        grid = FrequencyGrid.midpoints(128)
        assert grid.spacing * grid.points.size == pytest.approx(2.0 * np.pi)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid.midpoints(33)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValueError):
            FrequencyGrid.midpoints(0)
