"""Tests for the shared numerical kernels.

Oracles are computed in-test with independent methods (closed-form
integrals, analytically known roots).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmalimits import (
    SolverError,
    bisect,
)
from cdmalimits.numerics import (
    _check_load,
    _check_noise_density,
    _read_only,
)


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
        with pytest.raises(SolverError, match="bracket"):
            bisect(lambda x: x + 10.0, 0.0, 1.0)

    def test_invalid_bracket_and_tolerance_rejected(self):
        for lo, hi in ((1.0, 0.0), (0.5, 0.5)):
            with pytest.raises(ValueError,
                               match="bracket endpoints must satisfy lo < hi"):
                bisect(lambda x: x - 0.25, lo, hi)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            bisect(lambda x: x - 0.25, 0.0, 1.0, tol=0.0)

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

    @pytest.mark.parametrize("fn, lo, hi, root", [
        (math.cos, 0.0, 3.0, math.pi / 2.0),
        (lambda x: x ** 3 - x - 1.0, 1.0, 2.0, 1.324717957244746),
    ])
    def test_interpolation_onto_a_near_root_end_still_shrinks(self, fn, lo,
                                                              hi, root):
        # Once one end is within rounding of the root, the interpolation
        # point rounds onto it.  Re-evaluating it shrinks nothing; without
        # a minimum step these took 48 and 47 calls.
        counted, calls = self._counted(fn)
        got = bisect(counted, lo, hi, tol=1e-13)
        assert abs(got - root) <= 0.5e-13
        assert len(calls) <= 12
        assert len(set(calls)) == len(calls)

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



class TestSharedRules:
    def test_read_only_copy(self):
        values = [1, 2]
        array = np.arange(2)
        for source in (values, array):
            frozen = _read_only(source, complex)
            assert frozen.dtype == complex and not frozen.flags.writeable
        array += 1
        assert frozen.tolist() == [0, 1]
        assert array.flags.writeable

    @pytest.mark.parametrize("load", [-1.0, math.nan, math.inf])
    def test_load_must_be_finite_and_nonnegative(self, load):
        with pytest.raises(ValueError,
                           match="^load must be finite and nonnegative$"):
            _check_load(load)

    @pytest.mark.parametrize("noise_density", [0.0, -1.0, math.nan,
                                               math.inf])
    def test_noise_density_must_be_finite_and_positive(self, noise_density):
        with pytest.raises(ValueError, match="^noise density must be finite "
                                             "and positive$"):
            _check_noise_density(noise_density)

    def test_admissible_values_pass(self):
        _check_load(0.0)
        _check_load(16.0)
        _check_noise_density(5e-324)
