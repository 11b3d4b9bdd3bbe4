"""Tests for the large-system MMSE performance solvers.

Oracles: the equal-power quadratic root in closed form, an independent
scipy root-finder on the scalar equation, exact normalization limits
(zero load, flat pulses), and agreement between the matrix and scalar
routes where both are valid.
"""

import functools
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmalimits import (
    PowerDelayLaw,
    SolverError,
    SystemLaw,
    efficiency_of_user,
    equal_power_uniform_delays,
    root_raised_cosine_waveform,
    sinc_waveform,
    sinr_user,
    solve_efficiency_scalar,
    solve_efficiency_sinc,
    solve_efficiency_sync,
    solve_upsilon,
    synchronous_law,
    tabulated_waveform,
    uniform_delay_grid,
)
from cdmalimits import large_system
from cdmalimits.large_system import (
    UpsilonField,
    _delays_balanced,
    _form_operands,
    _interference,
    _quadratic_forms,
)
from cdmalimits.waveforms import _alias_table, _delta_components, _midpoints

# Closed-form equal-power multiuser efficiency at load 1, unit power,
# noise level 0.1: the positive root of eta^2 + 0.1*eta - 0.1 = 0.
EQUAL_POWER_ETA = (math.sqrt(0.41) - 0.1) / 2.0
assert abs(EQUAL_POWER_ETA - 0.2701562118716424) < 1e-15


def _einsum_forms(deltas, field):
    """The former quadratic forms: one optimized einsum per step."""
    return np.real(np.einsum("ams,msk,amk->am", np.conj(deltas), field,
                             deltas, optimize=True))


def _einsum_interference(coeff, deltas):
    """The former interference: one optimized einsum per step."""
    return np.einsum("a,ams,amk->msk", coeff, deltas, np.conj(deltas),
                     optimize=True)


def _matrix_efficiency(sys, delay=0.0, power=1.0, grid_size=512):
    field, report = solve_upsilon(sys, grid_size)
    assert report.converged
    return efficiency_of_user(sinr_user(field, sys, power, delay), power, sys)


class TestPowerDelayLaw:
    def test_valid_law_freezes_arrays(self):
        law = PowerDelayLaw([1.0, 2.0], [0.0, 0.5], [0.5, 0.5])
        assert law.n_atoms == 2
        with pytest.raises(ValueError):
            law.powers[0] = 9.0

    def test_keeps_copies_of_the_callers_arrays(self):
        powers, delays, weights = np.ones(2), np.array([0.0, 0.5]), \
            np.full(2, 0.5)
        law = PowerDelayLaw(powers, delays, weights)
        powers += 1.0
        delays += 1.0
        weights += 1.0
        assert law.powers.tolist() == [1.0, 1.0]
        assert law.delays.tolist() == [0.0, 0.5]
        assert law.weights.tolist() == [0.5, 0.5]

    def test_power_marginal_merges_duplicates(self):
        law = equal_power_uniform_delays(n_delays=16, power=2.0)
        powers, weights = law.power_marginal()
        assert powers.shape == (1,)
        assert powers[0] == pytest.approx(2.0)
        assert weights[0] == pytest.approx(1.0)

    def test_power_marginal_keeps_distinct_levels(self):
        law = PowerDelayLaw(np.repeat([1.0, 4.0], 8),
                            np.tile(uniform_delay_grid(8), 2),
                            np.repeat([0.25, 0.75], 8) / 8)
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

    @pytest.mark.parametrize("atoms", [
        ([np.nan], [0.0], [1.0]), ([1.0], [np.nan], [1.0]),
        ([1.0, 1.0], [0.0, 0.5], [np.nan, 0.5]), ([np.inf], [0.0], [1.0])])
    def test_non_finite_atoms_rejected(self, atoms):
        with pytest.raises(ValueError, match="must be finite"):
            PowerDelayLaw(*atoms)


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
        with pytest.raises(ValueError, match="undersampled configuration"):
            SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                      waveform=sinc_waveform(2.0), law=law)
        bad = PowerDelayLaw([1.0], [1.5], [1.0])
        with pytest.raises(ValueError, match="T_c"):
            SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                      waveform=wf, law=bad)

    @pytest.mark.parametrize("load, noise_density", [
        (np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_parameters_rejected(self, load, noise_density):
        with pytest.raises(ValueError, match="must be finite"):
            SystemLaw(load=load, noise_density=noise_density,
                      oversampling=1, waveform=sinc_waveform(1.0),
                      law=equal_power_uniform_delays(4))


class TestScalarClosedForms:
    def test_equal_power_quadratic_root(self):
        got = solve_efficiency_sync(1.0, [1.0], [1.0], 0.1)
        assert got == pytest.approx(EQUAL_POWER_ETA, abs=1e-12)

    @pytest.mark.parametrize("load", [0.5, 1.0, 2.0, 4.0, 8.0])
    @pytest.mark.parametrize("n0", [1.0, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_equal_power_root_to_relative_tolerance(self, load, n0):
        # Positive root of eta^2 + b*eta - n0 = 0, in the form that does
        # not cancel for either sign of b.  At low noise above the
        # critical load the root is about n0 / (load - 1).
        b = (load - 1.0) + n0
        d = math.sqrt(b * b + 4.0 * n0)
        root = 2.0 * n0 / (b + d) if b >= 0 else (d - b) / 2.0
        got = solve_efficiency_sync(load, [1.0], [1.0], n0)
        assert got == pytest.approx(root, rel=1e-10, abs=0.0)

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

    @pytest.mark.parametrize("load, noise_density, name", [
        (math.inf, 0.1, "load"), (math.nan, 0.1, "load"),
        (1.0, 0.0, "noise density"), (1.0, -0.1, "noise density"),
        (1.0, math.nan, "noise density")])
    def test_raw_solvers_check_load_and_noise_as_system_law(
            self, load, noise_density, name):
        # The checks of SystemLaw, before any arithmetic, where an
        # infinite load or a zero N0 would divide by zero and a NaN load
        # empty the root's bracket.
        for solve in (lambda: solve_efficiency_sync(load, [1.0], [1.0],
                                                    noise_density),
                      lambda: solve_efficiency_sinc(load, 2.0, [1.0], [1.0],
                                                    noise_density)):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                solve()

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
        # The scalar is the band mean in closed form, the same on every
        # grid; the sampled density integrates to it up to the midpoint
        # rule's error, which each fourfold refinement cuts at least
        # tenfold (about 60-fold here).
        sys = self._rrc_system()
        errors = []
        scalars = set()
        for n_points in (512, 2048, 8192):
            result = solve_efficiency_scalar(sys, n_points=n_points)
            spacing = result.frequencies[1] - result.frequencies[0]
            integral = result.density.sum() * spacing / (2.0 * np.pi)
            errors.append(abs(integral / result.scalar - 1.0))
            scalars.add(result.scalar)
        assert len(scalars) == 1
        assert 0.0 < result.scalar < 1.0
        assert errors[1] <= 1e-9
        assert errors[1] <= errors[0] / 10.0
        assert errors[2] <= errors[1] / 10.0

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
        with pytest.raises(ValueError,
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
        with pytest.raises(ValueError,
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
        with pytest.raises(ValueError,
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
        with pytest.raises(ValueError,
                           match="corollary hypotheses violated"):
            solve_efficiency_scalar(sys)

    @pytest.mark.parametrize("n_delays", [1, 2, 3, 4])
    def test_grid_passes_exactly_above_alias_spread(self, n_delays):
        # sinc:3 has one-sided bandwidth 1.5, so aliases spread over
        # ceil(2B) - 1 = 2 and an even grid needs more than 2 delays.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=3,
                        waveform=sinc_waveform(3.0),
                        law=PowerDelayLaw(
                            np.repeat([1.0, 2.0], n_delays),
                            np.tile(uniform_delay_grid(n_delays), 2),
                            np.full(2 * n_delays, 0.5 / n_delays)))
        if n_delays <= 2:
            with pytest.raises(ValueError,
                               match="corollary hypotheses violated"):
                solve_efficiency_scalar(sys)
        else:
            want = solve_efficiency_sinc(1.0, 3.0, [1.0, 2.0], [0.5, 0.5],
                                         0.1)
            assert solve_efficiency_scalar(sys).scalar == \
                pytest.approx(want, rel=1e-9)

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
            eta = _matrix_efficiency(sys, grid_size=128)
            assert eta == pytest.approx(1.0, abs=1e-10)

    def test_flat_pulse_matches_synchronous_closed_form(self):
        # Small version of the full grid swept in the acceptance suite.
        for load in (0.5, 2.0):
            sys = SystemLaw(load=load, noise_density=0.1, oversampling=1,
                            waveform=sinc_waveform(1.0),
                            law=equal_power_uniform_delays(8))
            eta = _matrix_efficiency(sys, grid_size=128)
            want = solve_efficiency_sync(load, [1.0], [1.0], 0.1)
            assert eta == pytest.approx(want, abs=1e-8)

    def test_matrix_agrees_with_scalar_route(self):
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(32))
        eta_matrix = _matrix_efficiency(sys, grid_size=256)
        eta_scalar = solve_efficiency_scalar(sys).scalar
        assert eta_matrix == pytest.approx(eta_scalar, rel=1e-3)

    def test_narrowband_delay_independence(self):
        # Small version of the delay-independence acceptance criterion.
        for law in (synchronous_law(), equal_power_uniform_delays(16)):
            sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                            waveform=sinc_waveform(1.0), law=law)
            eta = _matrix_efficiency(sys, grid_size=128)
            assert eta == pytest.approx(EQUAL_POWER_ETA, abs=1e-6)

    @pytest.mark.parametrize("waveform", [
        root_raised_cosine_waveform(0.22), root_raised_cosine_waveform(1.0),
        sinc_waveform(2.0)], ids=["rrc0.22", "rrc1.0", "sinc2"])
    def test_balanced_law_gives_every_delay_the_scalar(self, waveform):
        # A law that passes the delay-balance gate leaves the field only
        # the delay-free part of delta delta^H, to which the oscillating
        # part is trace-orthogonal, so a user at any delay gets the scalar
        # route's efficiency.  Monte Carlo predictions may then come from
        # the closed-form root instead of the matrix route.
        sys = SystemLaw(load=1.0, noise_density=0.1,
                        oversampling=waveform.min_oversampling,
                        waveform=waveform, law=equal_power_uniform_delays(64))
        field, report = solve_upsilon(sys, 512)
        assert report.converged
        taus = np.random.default_rng(2024).uniform(0.0, 1.0, 200)
        etas = efficiency_of_user(sinr_user(field, sys, 1.0, taus), 1.0, sys)
        assert np.ptp(etas) <= 1e-13 * etas.mean()
        np.testing.assert_allclose(etas, solve_efficiency_scalar(sys).scalar,
                                   rtol=0.0, atol=2e-7)

    def test_delay_enters_through_residue(self):
        # Whole-chip shifts change nothing; sub-chip shifts are felt
        # through tau mod T_c only.
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(8))
        field, _ = solve_upsilon(sys, 64)
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
        field, _ = solve_upsilon(sys, 64)
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
        field, report = solve_upsilon(sys, 32)
        assert report.converged
        mats = field.matrices
        assert mats.shape == (32, 2, 2)
        np.testing.assert_allclose(mats, np.conj(np.swapaxes(mats, 1, 2)),
                                   atol=1e-12)
        eigs = np.linalg.eigvalsh(mats)
        assert eigs.min() > 0.0


class TestMatrixGrid:
    """The band midpoints that ``solve_upsilon`` samples its field at."""

    SYS = SystemLaw(load=1.0, noise_density=0.1, oversampling=1,
                    waveform=sinc_waveform(1.0),
                    law=equal_power_uniform_delays(4))

    def test_midpoints_symmetric(self):
        size = 64
        omegas = solve_upsilon(self.SYS, size)[0].omegas
        assert omegas.shape == (size,)
        assert omegas.sum() == pytest.approx(0.0, abs=1e-12)
        assert omegas[0] == pytest.approx(-np.pi + np.pi / size)
        assert omegas[-1] == pytest.approx(np.pi - np.pi / size)
        # Neither zero nor a band edge, where the delay vectors of a flat
        # pulse jump, is ever sampled.
        assert np.all(np.abs(omegas) > 0.0)
        assert np.all(np.abs(omegas) < np.pi)

    def test_spacing_covers_full_period(self):
        size = 128
        omegas = solve_upsilon(self.SYS, size)[0].omegas
        np.testing.assert_allclose(np.diff(omegas) * size, 2.0 * np.pi,
                                   rtol=1e-12)

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError, match="grid size"):
            solve_upsilon(self.SYS, 33)

    def test_nonpositive_or_single_size_rejected(self):
        for size in (1, 0, -2):
            with pytest.raises(ValueError, match="grid size"):
                solve_upsilon(self.SYS, size)


class TestMatrixIteration:
    """The plain iteration of ``solve_upsilon`` and its report.  From
    ``I / sigma^2`` the order-preserving step lowers every SINR, so the
    iteration needs no damping."""

    @staticmethod
    def _rrc_system(load, noise_density):
        return SystemLaw(load=load, noise_density=noise_density,
                         oversampling=2,
                         waveform=root_raised_cosine_waveform(0.22),
                         law=equal_power_uniform_delays(64))

    def test_undamped_steps_to_tolerance(self):
        _, report = solve_upsilon(self._rrc_system(0.5, 0.1), 512)
        assert report.converged
        assert report.iterations == 22
        assert report.final_residual <= large_system.FIXED_POINT_TOL

    def test_iteration_cap_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(large_system, "FIXED_POINT_MAX_ITER", 3)
        _, report = solve_upsilon(self._rrc_system(0.5, 0.1), 64)
        assert not report.converged
        assert report.iterations == 3
        assert report.final_residual > large_system.FIXED_POINT_TOL

    def test_stalled_residual_after_100_steps(self, monkeypatch):
        # At beta = 4, N0 = 1e-3 the residual stalls near 3e-10, above the
        # tolerance.  The exact residual pins the step's rounding, and the
        # delay vectors' rounding, on which the convergence of this point
        # hangs.
        monkeypatch.setattr(large_system, "FIXED_POINT_MAX_ITER", 100)
        _, report = solve_upsilon(self._rrc_system(4.0, 1e-3), 64)
        assert not report.converged
        assert report.final_residual == 2.6558747506193213e-10

    @pytest.mark.parametrize("sys, grid_size", [
        (_rrc_system(0.5, 0.1), 512),
        (_rrc_system(1.0, 1e-3), 512),
        # Stalls above the tolerance for all 10000 steps; the damping
        # this solver used to have engaged here.
        (SystemLaw(load=3.0, noise_density=1e-4, oversampling=2,
                   waveform=sinc_waveform(1.5),
                   law=PowerDelayLaw(powers=np.array([1.0, 1.0, 4.0, 4.0]),
                                     delays=np.array([0.0, 0.3, 0.0, 0.3]),
                                     weights=np.full(4, 0.25))), 32),
    ], ids=["rrc_0.5_0.1", "rrc_1_1e-3", "four_atom_sinc"])
    def test_sinrs_never_rise(self, monkeypatch, sys, grid_size):
        # Each step's per-atom SINRs are at most the previous step's, up
        # to rounding: the iteration falls monotonically from I/sigma^2.
        sinrs = []

        def forms(*args):
            out = _quadratic_forms(*args)
            sinrs.append(sys.law.powers * out.sum(axis=1) / grid_size)
            return out

        monkeypatch.setattr(large_system, "_quadratic_forms", forms)
        _, report = solve_upsilon(sys, grid_size)
        assert len(sinrs) == report.iterations > 1
        sinrs = np.array(sinrs)
        assert np.all(sinrs[1:] <= sinrs[:-1] * (1.0 + 1e-12))

    @pytest.mark.parametrize("load, noise_density, grid_size, steps", [
        (0.5, 0.1, 512, 22), (4.0, 1e-3, 64, 100)])
    def test_every_step_matches_the_einsum_formulas(
            self, monkeypatch, load, noise_density, grid_size, steps):
        # Each step's forms and interference, on the field and the
        # coefficients that step sees, are the former einsums bit for bit.
        monkeypatch.setattr(large_system, "FIXED_POINT_MAX_ITER", 100)
        seen = {}
        forms_calls, interference_calls = [], []

        def deltas(*args):
            seen["deltas"] = _delta_components(*args)
            return seen["deltas"]

        def forms(field, *operands):
            out = _quadratic_forms(field, *operands)
            forms_calls.append((field, out))
            return out

        def interference(coeff, *operands):
            out = _interference(coeff, *operands)
            interference_calls.append((coeff, out))
            return out

        monkeypatch.setattr(large_system, "_delta_components", deltas)
        monkeypatch.setattr(large_system, "_quadratic_forms", forms)
        monkeypatch.setattr(large_system, "_interference", interference)
        _, report = solve_upsilon(self._rrc_system(load, noise_density),
                                  grid_size)
        assert report.iterations == steps
        assert len(forms_calls) == len(interference_calls) == steps
        for (field, got_forms), (coeff, got_interference) in zip(
                forms_calls, interference_calls):
            assert np.array_equal(got_forms,
                                  _einsum_forms(seen["deltas"], field))
            assert np.array_equal(got_interference,
                                  _einsum_interference(coeff, seen["deltas"]))

    def test_non_finite_step_is_divergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: np.full_like(a, np.nan))
        with pytest.raises(SolverError, match="^divergence$"):
            solve_upsilon(self._rrc_system(0.5, 0.1), 64)


# The benchmark's ``fields`` points (beta, N0) and pulses.
FIELD_POINTS = ((0.5, 0.1), (1.0, 0.1), (2.0, 0.05), (1.0, 1e-3),
                (4.0, 0.01))
FIELD_WAVEFORMS = {"rrc:0.22": root_raised_cosine_waveform(0.22),
                   "rrc:1.0": root_raised_cosine_waveform(1.0),
                   "sinc:2": sinc_waveform(2.0)}


def _atom_sinrs(field, sys):
    return sinr_user(field, sys, sys.law.powers, sys.law.delays)


@functools.lru_cache(maxsize=None)
def _cold_field_case(waveform, load, noise_density):
    """A ``fields`` point at r = 2 and 64 uniform delays: the system, its
    per-atom SINRs and step count from ``I / sigma^2``, and the scalar
    route's SINRs ``lam * E * eta / N_0``."""
    sys = SystemLaw(load=load, noise_density=noise_density, oversampling=2,
                    waveform=FIELD_WAVEFORMS[waveform],
                    law=equal_power_uniform_delays(64))
    field, report = solve_upsilon(sys)
    assert report.converged
    eta = solve_efficiency_scalar(sys).scalar
    scalar_sinrs = (sys.law.powers * sys.waveform.energy * eta
                    / sys.noise_density)
    return sys, _atom_sinrs(field, sys), report.iterations, scalar_sinrs


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want) / want))


_FIELD_CASES = pytest.mark.parametrize(
    "waveform, load, noise_density",
    [(name, *point) for name in FIELD_WAVEFORMS for point in FIELD_POINTS])


class TestMatrixStart:
    """``solve_upsilon``'s ``start_sinrs``: the order-preserving map has
    one fixed point, which its plain iteration reaches from any start."""

    @_FIELD_CASES
    def test_scalar_start_within_cold_steps(self, waveform, load,
                                            noise_density):
        sys, cold_sinrs, cold_steps, scalar_sinrs = _cold_field_case(
            waveform, load, noise_density)
        field, report = solve_upsilon(sys, start_sinrs=scalar_sinrs)
        assert report.converged
        assert report.iterations <= cold_steps
        if waveform != "rrc:0.22":
            # The scalar route's SINRs are within the grid's error of the
            # fixed point; one step was measured.
            assert report.iterations <= 2
        assert _relative_gap(_atom_sinrs(field, sys), cold_sinrs) <= 5e-10

    @_FIELD_CASES
    def test_sinrs_never_fall_from_zero(self, monkeypatch, waveform, load,
                                        noise_density):
        # The mirror of TestMatrixIteration.test_sinrs_never_rise: from
        # SINRs of zero, the field's lower bound, every step raises them.
        sys, cold_sinrs, _, _ = _cold_field_case(waveform, load,
                                                 noise_density)
        sinrs = []

        def forms(*args):
            out = _quadratic_forms(*args)
            sinrs.append(sys.law.powers * out.sum(axis=1) / 512)
            return out

        monkeypatch.setattr(large_system, "_quadratic_forms", forms)
        field, report = solve_upsilon(sys, start_sinrs=0.0)
        assert report.converged
        assert len(sinrs) == report.iterations > 1
        steps = np.array(sinrs)
        assert np.all(steps[1:] >= steps[:-1] * (1.0 - 1e-12))
        assert _relative_gap(_atom_sinrs(field, sys), cold_sinrs) <= 5e-10

    @_FIELD_CASES
    def test_start_above_the_fixed_point(self, waveform, load,
                                         noise_density):
        sys, cold_sinrs, _, scalar_sinrs = _cold_field_case(
            waveform, load, noise_density)
        field, report = solve_upsilon(sys, start_sinrs=10.0 * scalar_sinrs)
        assert report.converged
        assert _relative_gap(_atom_sinrs(field, sys), cold_sinrs) <= 5e-10

    def test_first_field_is_the_step_at_the_start(self, monkeypatch):
        # The start is the step's right side inverted at start_sinrs, with
        # the step's own interference kernel.
        sys = SystemLaw(load=2.0, noise_density=0.05, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=PowerDelayLaw(
                            powers=np.array([1.0, 1.0, 4.0, 4.0]),
                            delays=np.array([0.0, 0.3, 0.1, 0.6]),
                            weights=np.full(4, 0.25)))
        start = np.array([0.5, 1.0, 2.0, 8.0])
        monkeypatch.setattr(large_system, "FIXED_POINT_MAX_ITER", 1)
        fields = []

        def forms(field, *operands):
            fields.append(field)
            return _quadratic_forms(field, *operands)

        monkeypatch.setattr(large_system, "_quadratic_forms", forms)
        solve_upsilon(sys, 64, start_sinrs=start)
        deltas = _delta_components(sys.waveform, 2, _midpoints(
            -np.pi, np.pi, 64), sys.law.delays)
        coeff = sys.load * sys.law.weights * sys.law.powers / (1.0 + start)
        want = np.linalg.inv(sys.noise_variance * np.eye(2)[None]
                             + _einsum_interference(coeff, deltas))
        assert np.array_equal(fields[0], want)

    @pytest.mark.parametrize("start", [
        [1.0, 2.0, 3.0], np.ones((64, 2)), np.ones((2, 64))],
        ids=["three_of_64", "column_pairs", "row_pairs"])
    def test_start_that_does_not_broadcast_rejected(self, start):
        sys = _cold_field_case("rrc:0.22", 0.5, 0.1)[0]
        with pytest.raises(ValueError, match="start_sinrs.*64 atoms"):
            solve_upsilon(sys, 64, start_sinrs=start)

    @pytest.mark.parametrize("bad", [-1e-300, np.nan, np.inf])
    def test_negative_or_non_finite_start_rejected(self, bad):
        sys = _cold_field_case("rrc:0.22", 0.5, 0.1)[0]
        start = np.ones(64)
        start[7] = bad
        with pytest.raises(ValueError,
                           match="^start_sinrs must be finite and "
                                 "nonnegative$"):
            solve_upsilon(sys, 64, start_sinrs=start)


class TestMatrixKernel:
    """The batched products of one matrix step against the einsum
    formulas they replace, on the delay vectors' own memory layout."""

    @staticmethod
    def _operands(r, n_atoms, n_freq):
        rng = np.random.default_rng(1000 * r + n_atoms + n_freq)
        waveform = (sinc_waveform(1.0) if r == 1
                    else root_raised_cosine_waveform(0.22))
        deltas = _delta_components(waveform, r,
                                   _midpoints(-np.pi, np.pi, n_freq),
                                   rng.random(n_atoms))
        half = (rng.standard_normal((n_freq, r, r))
                + 1j * rng.standard_normal((n_freq, r, r)))
        field = half @ np.conj(np.swapaxes(half, 1, 2)) + np.eye(r)
        coeff = rng.random(n_atoms) + 0.1
        return deltas, field, coeff

    @staticmethod
    def _kernel(deltas, field, coeff):
        conj_rows, columns = _form_operands(deltas)
        return (_quadratic_forms(field, conj_rows, columns),
                _interference(coeff, deltas, conj_rows.transpose(0, 2, 1)))

    @pytest.mark.parametrize("n_freq", [2, 64, 512])
    @pytest.mark.parametrize("n_atoms", [1, 2, 16, 64, 256])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_identical_to_einsum(self, r, n_atoms, n_freq):
        deltas, field, coeff = self._operands(r, n_atoms, n_freq)
        forms, interference = self._kernel(deltas, field, coeff)
        assert np.array_equal(forms, _einsum_forms(deltas, field))
        want = _einsum_interference(coeff, deltas)
        if n_atoms > 1:
            assert np.array_equal(interference, want)
        else:
            # einsum forms a lone atom's outer product by multiply, which
            # a one-term matmul rounds differently.
            np.testing.assert_allclose(interference, want, rtol=1e-15)

    def test_grid_spans_several_einsum_plans(self):
        # The shapes above reach different einsum contraction plans, so
        # the identity does not rest on one plan.
        plans = set()
        for r in (2, 3, 4):
            for n_atoms in (1, 2, 16, 64, 256):
                for n_freq in (2, 64, 512):
                    deltas = np.zeros((n_atoms, n_freq, r), dtype=complex)
                    field = np.zeros((n_freq, r, r), dtype=complex)
                    plans.add(tuple(
                        step[1] for args in (
                            ("ams,msk,amk->am", deltas, field, deltas),
                            ("a,ams,amk->msk", np.zeros(n_atoms), deltas,
                             deltas))
                        for step in np.einsum_path(
                            *args, optimize=True, einsum_call=True)[1]))
        assert len(plans) >= 6

    @pytest.mark.parametrize("n_freq", [2, 64, 512])
    @pytest.mark.parametrize("n_atoms", [1, 2, 16, 64, 256])
    def test_single_sample_within_rounding_of_einsum(self, n_atoms, n_freq):
        # At r = 1 einsum forms |delta|^2 first, so the kernel differs by
        # rounding; the interference sums the atoms in another order too,
        # so its bound grows as sqrt(A).
        deltas, field, coeff = self._operands(1, n_atoms, n_freq)
        forms, interference = self._kernel(deltas, field, coeff)
        np.testing.assert_allclose(forms, _einsum_forms(deltas, field),
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(interference,
                                   _einsum_interference(coeff, deltas),
                                   rtol=1e-15 * math.sqrt(n_atoms), atol=0.0)


def _whole_phase_deltas(waveform, r, omegas, taus, real=float):
    """Delay vectors with each alias's phase ``exp(j*(tau - s/r)*arg)``
    evaluated whole on the alias table's amplitudes; ``real=np.longdouble``
    forms the frequencies and phases in extended precision."""
    nus, _, amps = _alias_table(waveform, omegas)
    two_pi = 2 * np.arccos(real(-1))
    args = np.asarray(omegas, real)[:, None] + two_pi * nus.astype(real)
    shifts = (np.asarray(taus, real)[:, None]
              - np.arange(r).astype(real) / r)
    phases = np.exp(1j * shifts[:, :, None, None] * args)
    return np.einsum("asmv,mv->ams", phases, amps.astype(phases.dtype))


def _direct_sinrs(field, powers, deltas):
    """``power * mean over Omega of delta^H Upsilon delta``, one quadratic
    form per class and frequency, in the precision of ``deltas``."""
    matrices = field.matrices.astype(deltas.dtype)
    forms = np.einsum("ams,msk,amk->am", np.conj(deltas), matrices, deltas)
    return powers * np.real(forms).sum(axis=1) / len(field.omegas)


def _one_step_field(sys, grid_size, sinrs):
    """The step's field at per-atom ``sinrs``, from whole-phase deltas."""
    omegas = _midpoints(-np.pi, np.pi, grid_size)
    law = sys.law
    deltas = _whole_phase_deltas(sys.waveform, sys.oversampling, omegas,
                                 law.delays)
    coeff = sys.load * law.weights * law.powers / (1.0 + sinrs)
    eye = np.eye(sys.oversampling)
    return UpsilonField(omegas=omegas, matrices=np.linalg.inv(
        sys.noise_variance * eye + _einsum_interference(coeff, deltas)))


_MOMENT_WAVEFORMS = {
    "sinc0.5": sinc_waveform(0.5),
    "sinc2": sinc_waveform(2.0),
    "sinc4.5": sinc_waveform(4.5),
    "rrc0": root_raised_cosine_waveform(0.0),
    "rrc0.22": root_raised_cosine_waveform(0.22),
    "rrc1": root_raised_cosine_waveform(1.0),
    "zero_end_table": tabulated_waveform(
        [-4.0, -1.0, 0.5, 3.0], [0.0, 1.0 + 0.5j, 0.8 - 0.3j, 0.4j]),
    "asymmetric_table": tabulated_waveform([-2.0, 0.0, 3.0],
                                           [1.0, 1.0, 0.5]),
}


class TestMomentReadout:
    """``sinr_user`` reads each class from the field's alias moments; the
    oracle forms ``delta^H Upsilon delta`` at every frequency on delay
    vectors whose phases are evaluated whole."""

    LAW = PowerDelayLaw(powers=np.array([1.0, 4.0, 0.5, 2.0, 1.0]),
                        delays=np.array([0.0, 0.13, 0.3, 0.55, 0.91]),
                        weights=np.array([0.3, 0.1, 0.2, 0.25, 0.15]))

    def _system(self, waveform, noise_density, load=1.5):
        return SystemLaw(load=load, noise_density=noise_density,
                         oversampling=waveform.min_oversampling,
                         waveform=waveform, law=self.LAW)

    @pytest.mark.parametrize("noise_density", [0.1, 1e-3])
    @pytest.mark.parametrize("name", _MOMENT_WAVEFORMS)
    def test_matches_direct_forms(self, name, noise_density):
        sys = self._system(_MOMENT_WAVEFORMS[name], noise_density)
        field = _one_step_field(sys, 64, sys.law.powers)
        powers = np.array([1.0, 4.0, 0.5, 2.0, 1.0, 3.0, 1.0])
        taus = np.array([0.0, 0.13, 0.3, 0.55, 0.91, 0.42, 0.999])
        want = _direct_sinrs(field, powers, _whole_phase_deltas(
            sys.waveform, sys.oversampling, field.omegas, taus))
        np.testing.assert_allclose(sinr_user(field, sys, powers, taus),
                                   want, rtol=1e-13, atol=0.0)

    def test_broadcasts_and_reduces_delays(self):
        sys = self._system(root_raised_cosine_waveform(0.22), 0.1)
        field = _one_step_field(sys, 64, sys.law.powers)
        powers = np.array([[0.0], [1.0], [2.5]])
        delays = np.array([0.0, 0.35, 1.35, 7.0])
        got = sinr_user(field, sys, powers, delays)
        assert got.shape == (3, 4)
        want = [[sinr_user(field, sys, float(p), float(d)) for d in delays]
                for p in powers[:, 0]]
        assert all(type(value) is float for value in want[1])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # Zero power gives zero; whole chips are reduced away.
        assert np.all(got[0] == 0.0)
        np.testing.assert_allclose(got[:, 2], got[:, 1], rtol=1e-13)
        np.testing.assert_array_equal(got[:, 3], got[:, 0])
        direct = _direct_sinrs(field, np.array([2.5, 2.5]),
                               _whole_phase_deltas(
                                   sys.waveform, 2, field.omegas,
                                   np.array([0.35, 0.0])))
        np.testing.assert_allclose(got[2, 2:], direct, rtol=1e-13)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("noise_density", [1e-6, 1e-9])
    def test_low_noise_at_least_as_close_as_direct_forms(self,
                                                         noise_density):
        # The field's entries reach 1/sigma^2 while the forms are O(1), so
        # each form cancels; the moments cancel less than the direct forms
        # on rounded delay vectors.  Both are held to one field, evaluated
        # with extended-precision delay vectors.
        sys = SystemLaw(load=2.0, noise_density=noise_density,
                        oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(64))
        start = sys.snr * solve_efficiency_scalar(sys).scalar
        field = _one_step_field(sys, 128, start)
        taus = np.concatenate([sys.law.delays,
                               np.random.default_rng(3).uniform(0, 1, 16)])
        powers = np.ones_like(taus)
        exact = _direct_sinrs(field, powers, _whole_phase_deltas(
            sys.waveform, 2, field.omegas, taus, np.longdouble))
        direct = _direct_sinrs(field, powers, _whole_phase_deltas(
            sys.waveform, 2, field.omegas, taus))
        moment = sinr_user(field, sys, powers, taus)
        gap = np.max(np.abs(moment - exact) / exact)
        assert gap <= np.max(np.abs(direct - exact) / exact)


class TestUserMetrics:
    SYS = SystemLaw(load=1.0, noise_density=0.2, oversampling=1,
                    waveform=sinc_waveform(1.0),
                    law=equal_power_uniform_delays(4))

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="zero power"):
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
        with pytest.raises(ValueError, match="zero power"):
            efficiency_of_user(sinrs, np.array([0.5, 0.0, 3.0]), self.SYS)

