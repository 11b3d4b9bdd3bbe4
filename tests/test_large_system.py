"""Tests for the large-system MMSE performance solvers.

Oracles: the equal-power quadratic root in closed form, an independent
scipy root-finder on the scalar equation, exact normalization limits
(zero load, flat pulses), and agreement between the matrix and scalar
routes where both are valid.
"""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmalimits import (
    FrequencyGrid,
    HypothesisViolationError,
    PowerDelayLaw,
    SystemLaw,
    UndersampledError,
    ZeroPowerError,
    efficiency_of_user,
    equal_power_uniform_delays,
    product_law,
    root_raised_cosine_waveform,
    sinc_waveform,
    sinr_user,
    solve_efficiency_scalar,
    solve_efficiency_sinc,
    solve_efficiency_sync,
    solve_upsilon,
    synchronous_law,
    uniform_delay_grid,
)
from cdmalimits.large_system import _delays_balanced

# Closed-form equal-power multiuser efficiency at load 1, unit power,
# noise level 0.1: the positive root of eta^2 + 0.1*eta - 0.1 = 0.
EQUAL_POWER_ETA = (math.sqrt(0.41) - 0.1) / 2.0
assert abs(EQUAL_POWER_ETA - 0.2701562118716424) < 1e-15


def _matrix_efficiency(sys, delay=0.0, power=1.0, grid=None):
    field, report = solve_upsilon(sys, grid=grid)
    assert report.converged
    return efficiency_of_user(sinr_user(field, sys, power, delay), power, sys)


class TestPowerDelayLaw:
    def test_valid_law_freezes_arrays(self):
        law = PowerDelayLaw([1.0, 2.0], [0.0, 0.5], [0.5, 0.5])
        assert law.n_atoms == 2
        with pytest.raises(ValueError):
            law.powers[0] = 9.0

    def test_mean_power(self):
        law = PowerDelayLaw([1.0, 3.0], [0.0, 0.25], [0.75, 0.25])
        assert law.mean_power() == pytest.approx(1.5)

    def test_power_marginal_merges_duplicates(self):
        law = equal_power_uniform_delays(n_delays=16, power=2.0)
        powers, weights = law.power_marginal()
        assert powers.shape == (1,)
        assert powers[0] == pytest.approx(2.0)
        assert weights[0] == pytest.approx(1.0)

    def test_power_marginal_keeps_distinct_levels(self):
        law = product_law([1.0, 4.0], [0.25, 0.75], n_delays=8)
        powers, weights = law.power_marginal()
        np.testing.assert_allclose(powers, [1.0, 4.0])
        np.testing.assert_allclose(weights, [0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError, match="share one shape"):
            PowerDelayLaw([1.0, 2.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="at least one atom"):
            PowerDelayLaw([], [], [])
        with pytest.raises(ValueError, match="nonnegative"):
            PowerDelayLaw([-1.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            PowerDelayLaw([1.0], [-0.1], [1.0])
        with pytest.raises(ValueError, match="positive"):
            PowerDelayLaw([1.0, 1.0], [0.0, 0.1], [1.0, 0.0])
        with pytest.raises(ValueError, match="sum to one"):
            PowerDelayLaw([1.0], [0.0], [0.7])


class TestLawFactories:
    def test_uniform_delay_grid(self):
        grid = uniform_delay_grid(4)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75])
        with pytest.raises(ValueError):
            uniform_delay_grid(0)

    def test_equal_power_uniform_delays(self):
        law = equal_power_uniform_delays(8, power=3.0)
        # Eight evenly spaced delays balance every alias spread below 8.
        assert all(_delays_balanced(law, degree) for degree in range(8))
        assert not _delays_balanced(law, 8)
        np.testing.assert_allclose(law.powers, 3.0)
        np.testing.assert_allclose(law.weights, 1.0 / 8.0)
        assert law.delays.max() < 1.0

    def test_product_law_weights(self):
        law = product_law([1.0, 2.0], [0.4, 0.6], n_delays=4)
        assert law.n_atoms == 8
        assert law.weights.sum() == pytest.approx(1.0)
        # Each power level spreads its weight evenly over delays.
        mask = law.powers == 2.0
        assert law.weights[mask].sum() == pytest.approx(0.6)

    def test_synchronous_law_flags(self):
        law = synchronous_law([1.0, 2.0], [0.5, 0.5])
        # A common delay suits only pulses without alias spread.
        assert _delays_balanced(law, 0)
        assert not _delays_balanced(law, 1)
        np.testing.assert_allclose(law.delays, 0.0)


class TestSystemLaw:
    def test_noise_variance_and_snr(self):
        sys = SystemLaw(load=1.0, noise_density=0.2, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(4))
        assert sys.noise_variance == pytest.approx(2 * 0.2)
        assert sys.snr == pytest.approx(1.0 / 0.2)

    def test_validation(self):
        wf = sinc_waveform(1.0)
        law = equal_power_uniform_delays(4)
        with pytest.raises(ValueError, match="load"):
            SystemLaw(load=-1.0, noise_density=0.1, oversampling=1,
                      waveform=wf, law=law)
        with pytest.raises(ValueError, match="noise density"):
            SystemLaw(load=1.0, noise_density=0.0, oversampling=1,
                      waveform=wf, law=law)
        with pytest.raises(UndersampledError):
            SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                      waveform=sinc_waveform(2.0), law=law)
        bad = PowerDelayLaw([1.0], [1.5], [1.0])
        with pytest.raises(ValueError, match="T_c"):
            SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                      waveform=wf, law=bad)


class TestScalarClosedForms:
    def test_equal_power_quadratic_root(self):
        got = solve_efficiency_sync(1.0, [1.0], [1.0], 0.1)
        assert got == pytest.approx(EQUAL_POWER_ETA, abs=1e-12)

    def test_zero_load_is_unity(self):
        assert solve_efficiency_sync(0.0, [1.0], [1.0], 0.1) == 1.0
        assert solve_efficiency_sinc(0.0, 2.0, [1.0], [1.0], 0.1) == 1.0

    def test_matches_independent_root_finder(self):
        # Oracle: scipy's Brent solver on the same scalar equation.
        powers = np.array([0.5, 1.0, 2.0])
        weights = np.array([0.3, 0.5, 0.2])
        load, n0 = 1.7, 0.25

        def residual(eta):
            return 1.0 + load * np.sum(weights * powers /
                                       (n0 + powers * eta)) - 1.0 / eta

        want = scipy.optimize.brentq(residual, 1e-12, 1.0, xtol=1e-14)
        got = solve_efficiency_sync(load, powers, weights, n0)
        assert got == pytest.approx(want, abs=1e-10)

    def test_sinc_collapses_to_rescaled_load(self):
        # Bandwidth enters only through the effective load beta/alpha.
        powers, weights = [1.0, 2.0], [0.5, 0.5]
        for load, alpha in [(1.0, 2.0), (3.0, 0.5), (0.7, 1.3)]:
            wide = solve_efficiency_sinc(load, alpha, powers, weights, 0.1)
            sync = solve_efficiency_sync(load / alpha, powers, weights, 0.1)
            assert wide == pytest.approx(sync, abs=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            solve_efficiency_sinc(1.0, 0.0, [1.0], [1.0], 0.1)
        with pytest.raises(ValueError):
            solve_efficiency_sinc(-1.0, 1.0, [1.0], [1.0], 0.1)
        with pytest.raises(ValueError):
            solve_efficiency_sync(-0.5, [1.0], [1.0], 0.1)

    @settings(max_examples=40, deadline=None)
    @given(load=st.floats(min_value=0.0, max_value=8.0),
           n0=st.floats(min_value=1e-3, max_value=10.0))
    def test_property_root_in_unit_interval(self, load, n0):
        eta = solve_efficiency_sync(load, [1.0], [1.0], n0)
        assert 0.0 < eta <= 1.0
        # More load hurts, more noise helps (relative to matched filter).
        assert solve_efficiency_sync(load + 0.5, [1.0], [1.0], n0) <= eta + 1e-12
        assert solve_efficiency_sync(load, [1.0], [1.0], n0 * 2) >= eta - 1e-12


class TestScalarSpectrumSolver:
    def _rrc_system(self, load=1.0, n_delays=16):
        return SystemLaw(load=load, noise_density=0.1, oversampling=2,
                         waveform=root_raised_cosine_waveform(0.22),
                         law=equal_power_uniform_delays(n_delays))

    def test_flat_pulse_matches_closed_form(self):
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                        waveform=sinc_waveform(1.0),
                        law=equal_power_uniform_delays(16))
        result = solve_efficiency_scalar(sys)
        assert result.scalar == pytest.approx(EQUAL_POWER_ETA, abs=1e-10)
        # Flat pulse: the density itself is constant at the scalar value.
        np.testing.assert_allclose(result.density, result.scalar, atol=1e-10)

    def test_zero_load_scalar_is_exactly_one(self):
        sys = self._rrc_system(load=0.0)
        result = solve_efficiency_scalar(sys)
        assert result.scalar == 1.0

    def test_scalar_is_integral_of_density(self):
        sys = self._rrc_system()
        result = solve_efficiency_scalar(sys)
        spacing = result.frequencies[1] - result.frequencies[0]
        integral = result.density.sum() * spacing / (2.0 * np.pi)
        assert result.scalar == pytest.approx(integral, rel=1e-12)
        assert 0.0 < result.scalar < 1.0

    def test_density_positive_on_support(self):
        result = solve_efficiency_scalar(self._rrc_system())
        assert np.all(result.density > 0.0)
        edge = 2.0 * np.pi * 0.61
        assert result.frequencies.min() > -edge
        assert result.frequencies.max() < edge

    def test_hypothesis_gate(self):
        # Wideband pulse with synchronized delays: neither validity
        # condition holds.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=synchronous_law())
        with pytest.raises(HypothesisViolationError,
                           match="corollary hypotheses violated"):
            solve_efficiency_scalar(sys)

    def test_hand_built_law_claims_no_structure(self):
        # One atom at a common delay of 0.3 chips is synchronous, like
        # synchronous_law(delay=0.3).  Its first delay moment does not
        # vanish, so the gate rejects it instead of answering with the
        # uniform-delay efficiency.
        law = PowerDelayLaw([1.0], [0.3], [1.0])
        assert not _delays_balanced(law, 1)
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22), law=law)
        with pytest.raises(HypothesisViolationError,
                           match="corollary hypotheses violated"):
            solve_efficiency_scalar(sys)

    def test_balanced_levels_accepted_without_independence(self):
        # Power 1 at {0, 1/2} and power 2 at {1/4, 3/4}: the delays depend
        # on the power, but each level's first moment vanishes, which is
        # all RRC 0.22 (alias spread 1) needs.
        law = PowerDelayLaw([1.0, 1.0, 2.0, 2.0], [0.0, 0.5, 0.25, 0.75],
                            [0.25] * 4)
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22), law=law)
        etas = _matrix_efficiency(sys, law.delays, law.powers)
        matrix_mean = float(np.dot(law.weights, etas))
        scalar = solve_efficiency_scalar(sys).scalar
        assert scalar == pytest.approx(matrix_mean, rel=1e-6)

    def test_correlated_levels_rejected(self):
        # Power 1 at 0 and power 2 at 1/2: the pooled first moment
        # vanishes, but neither level's does.
        law = PowerDelayLaw([1.0, 2.0], [0.0, 0.5], [0.5, 0.5])
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22), law=law)
        with pytest.raises(HypothesisViolationError,
                           match="corollary hypotheses violated"):
            solve_efficiency_scalar(sys)

    def test_zero_power_level_is_not_gated(self):
        # The power-0 atom at 0.3 chips adds no interference on either
        # route, so only the power-1 level at {0, 1/2} has to balance.
        law = PowerDelayLaw([1.0, 1.0, 0.0], [0.0, 0.5, 0.3],
                            [0.4, 0.4, 0.2])
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22), law=law)
        etas = _matrix_efficiency(sys, law.delays[:2], law.powers[:2])
        scalar = solve_efficiency_scalar(sys).scalar
        assert scalar == pytest.approx(etas[0], abs=1e-6)
        assert scalar == pytest.approx(etas[1], abs=1e-6)

    def test_unbalanced_nonzero_level_beside_zero_power_rejected(self):
        # Zero-power atoms at 1/2 would balance the power-1 atom at 0 if
        # they were counted; the nonzero level alone does not balance.
        law = PowerDelayLaw([1.0, 0.0], [0.0, 0.5], [0.5, 0.5])
        assert not _delays_balanced(law, 1)
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22), law=law)
        with pytest.raises(HypothesisViolationError,
                           match="corollary hypotheses violated"):
            solve_efficiency_scalar(sys)

    @pytest.mark.parametrize("n_delays", [1, 2, 3, 4])
    def test_grid_passes_exactly_above_alias_spread(self, n_delays):
        # sinc:3 has one-sided bandwidth 1.5, so aliases spread over
        # ceil(2B) - 1 = 2 and an even grid needs more than 2 delays.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=3,
                        waveform=sinc_waveform(3.0),
                        law=product_law([1.0, 2.0], [0.5, 0.5], n_delays))
        if n_delays <= 2:
            with pytest.raises(HypothesisViolationError):
                solve_efficiency_scalar(sys)
        else:
            want = solve_efficiency_sinc(1.0, 3.0, [1.0, 2.0], [0.5, 0.5],
                                         0.1)
            assert solve_efficiency_scalar(sys).scalar == \
                pytest.approx(want, rel=1e-9)

    def test_one_quadrature_pass_at_unit_efficiency(self, monkeypatch):
        # Every quadrature pass multiplies the power levels by its trial
        # efficiency.  The eta = 1 shortcut test and the root finder's
        # upper bracket end must share one pass there.
        factors = []

        class Recording(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.multiply:
                    factors.extend(x for x in inputs if isinstance(x, float))
                plain = [np.asarray(x) if isinstance(x, Recording) else x
                         for x in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        marginal = PowerDelayLaw.power_marginal
        monkeypatch.setattr(
            PowerDelayLaw, "power_marginal",
            lambda law: (marginal(law)[0].view(Recording),
                         marginal(law)[1]))
        result = solve_efficiency_scalar(self._rrc_system())
        assert result.scalar < 1.0
        assert len(factors) > 2
        assert factors.count(1.0) == 1

    def test_narrowband_pulse_allows_any_delay_law(self):
        # Bandwidth at most 1/(2*T_c) lifts the delay requirement.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                        waveform=sinc_waveform(1.0), law=synchronous_law())
        result = solve_efficiency_scalar(sys)
        assert result.scalar == pytest.approx(EQUAL_POWER_ETA, abs=1e-10)


class TestMatrixRoute:
    def test_zero_load_efficiency_is_one(self):
        for wf, r in [(sinc_waveform(1.0), 1),
                      (root_raised_cosine_waveform(0.22), 2)]:
            sys = SystemLaw(load=0.0, noise_density=0.1, oversampling=r,
                            waveform=wf, law=equal_power_uniform_delays(4))
            eta = _matrix_efficiency(sys, grid=FrequencyGrid.midpoints(128))
            assert eta == pytest.approx(1.0, abs=1e-10)

    def test_flat_pulse_matches_synchronous_closed_form(self):
        # Small version of the full grid swept in the acceptance suite.
        for load in (0.5, 2.0):
            sys = SystemLaw(load=load, noise_density=0.1, oversampling=1,
                            waveform=sinc_waveform(1.0),
                            law=equal_power_uniform_delays(8))
            eta = _matrix_efficiency(sys, grid=FrequencyGrid.midpoints(128))
            want = solve_efficiency_sync(load, [1.0], [1.0], 0.1)
            assert eta == pytest.approx(want, abs=1e-8)

    def test_matrix_agrees_with_scalar_route(self):
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(32))
        eta_matrix = _matrix_efficiency(sys, grid=FrequencyGrid.midpoints(256))
        eta_scalar = solve_efficiency_scalar(sys).scalar
        assert eta_matrix == pytest.approx(eta_scalar, rel=1e-3)

    def test_narrowband_delay_independence(self):
        # Small version of the delay-independence acceptance criterion.
        for law in (synchronous_law(), equal_power_uniform_delays(16)):
            sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                            waveform=sinc_waveform(1.0), law=law)
            eta = _matrix_efficiency(sys, grid=FrequencyGrid.midpoints(128))
            assert eta == pytest.approx(EQUAL_POWER_ETA, abs=1e-6)

    def test_delay_enters_through_residue(self):
        # Whole-chip shifts change nothing; sub-chip shifts are felt
        # through tau mod T_c only.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(8))
        field, _ = solve_upsilon(sys, grid=FrequencyGrid.midpoints(64))
        a = sinr_user(field, sys, 1.0, 0.3)
        b = sinr_user(field, sys, 1.0, 0.3 + 5.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_arrays_match_per_class_calls(self):
        # One batched pass over several (power, delay) classes, one delay
        # beyond a chip, equals the per-class scalar calls; a scalar power
        # broadcasts against the delays.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(8))
        field, _ = solve_upsilon(sys, grid=FrequencyGrid.midpoints(64))
        powers = np.array([1.0, 0.5, 2.0, 1.0])
        delays = np.array([0.0, 0.3, 0.7, 5.3])
        want = [sinr_user(field, sys, p, d) for p, d in zip(powers, delays)]
        assert all(type(value) is float for value in want)
        got = sinr_user(field, sys, powers, delays)
        assert got.shape == (4,)
        np.testing.assert_allclose(got, want, rtol=1e-13)
        np.testing.assert_allclose(sinr_user(field, sys, 2.0, delays),
                                   2.0 * got / powers, rtol=1e-13)

    def test_field_is_hermitian(self):
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.5),
                        law=equal_power_uniform_delays(8))
        field, report = solve_upsilon(sys, grid=FrequencyGrid.midpoints(32))
        assert report.converged
        mats = field.matrices
        assert mats.shape == (32, 2, 2)
        np.testing.assert_allclose(mats, np.conj(np.swapaxes(mats, 1, 2)),
                                   atol=1e-12)
        eigs = np.linalg.eigvalsh(mats)
        assert eigs.min() > 0.0


class TestUserMetrics:
    SYS = SystemLaw(load=1.0, noise_density=0.2, oversampling=1,
                    waveform=sinc_waveform(1.0),
                    law=equal_power_uniform_delays(4))

    def test_zero_power_rejected(self):
        with pytest.raises(ZeroPowerError, match="zero power"):
            efficiency_of_user(1.0, 0.0, self.SYS)

    def test_efficiency_normalizes_by_matched_filter(self):
        # sinr = power * E / N0 corresponds to efficiency one.
        power = 3.0
        sinr = power * self.SYS.waveform.energy / self.SYS.noise_density
        assert efficiency_of_user(sinr, power, self.SYS) == pytest.approx(1.0)

    def test_arrays_match_per_element_calls(self):
        sinrs = np.array([[0.3, 1.7, 4.1], [2.2, 0.01, 9.5]])
        powers = np.array([0.5, 1.0, 3.0])
        want = [[efficiency_of_user(float(s), float(p), self.SYS)
                 for s, p in zip(row, powers)] for row in sinrs]
        assert all(type(value) is float for value in want[0])
        got = efficiency_of_user(sinrs, powers, self.SYS)
        assert got.shape == (2, 3)
        assert got.tolist() == want
        with pytest.raises(ZeroPowerError, match="zero power"):
            efficiency_of_user(sinrs, np.array([0.5, 0.0, 3.0]), self.SYS)

