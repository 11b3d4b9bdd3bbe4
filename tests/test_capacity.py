"""Tests for total capacity per chip and spectral-efficiency accounting.

The strongest oracles here are route independence: the closed-form
synchronous expression must match the pulse-constrained free-energy form,
because a unit-bandwidth flat pulse makes the asynchronous system
synchronous in distribution; the free-energy form must match the I-MMSE
route, which integrates the scalar MMSE solver over the SNR axis
(Guo-Shamai-Verdu, IEEE Trans. IT 51(4), 2005), for every pulse and law;
and the closed-form band means of the built-in pulses must match the
same free energy summed on a fine midpoint grid.
"""

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
    capacity_constrained,
    capacity_sync_closed_form,
    decibels_to_linear,
    equal_power_uniform_delays,
    linear_to_decibels,
    root_raised_cosine_waveform,
    sinc_waveform,
    snr_for_ebn0,
    solve_efficiency_scalar,
    spectral_efficiency,
    synchronous_law,
    tabulated_waveform,
    uniform_delay_grid,
)

# Two equally likely power levels, 1 and 4, each on 16 uniform delays.
TWO_LEVEL_LAW = PowerDelayLaw(np.repeat([1.0, 4.0], 16),
                              np.tile(uniform_delay_grid(16), 2),
                              np.full(32, 1.0 / 32.0))

# Frozen values computed once from the closed form and pinned.
SYNC_CAPACITY_LOAD1_SNR10 = 2.723326465736502
SYNC_CAPACITY_LOAD05_SNR10 = 1.5626635279558996


def _sinc_system(load, alpha=1.0, snr=10.0, n_delays=16):
    return SystemLaw(load=load, noise_density=1.0 / snr,
                     oversampling=max(1, math.ceil(alpha)),
                     waveform=sinc_waveform(alpha),
                     law=equal_power_uniform_delays(n_delays))


def _gauss_legendre_nodes(n: int, upper: float):
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, upper]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = upper / 2.0
    return half * (x + 1.0), half * w


def _mmse_integrand(sys: SystemLaw, gammas: np.ndarray,
                    n_points: int) -> np.ndarray:
    """``sum_atoms w*lam*eta_g / (1 + lam*g*eta_g)`` for each SNR node g.

    ``eta_g`` is the scalar-route efficiency of the system re-noised so
    that its per-chip SNR equals ``g``; all nodes are solved together by a
    vectorized bisection on the shared bracket ``(0, 1]``.
    """
    waveform = sys.waveform
    energy = waveform.energy
    powers, weights = sys.law.power_marginal()
    edge = 2.0 * np.pi * waveform.bandwidth
    spacing = 2.0 * edge / n_points
    omegas = -edge + (np.arange(n_points) + 0.5) * spacing
    gain = waveform.power_spectrum(omegas)
    positive = gain > 0
    inv_gain = np.zeros_like(gain)
    inv_gain[positive] = energy / gain[positive]

    gammas = np.asarray(gammas, dtype=float)
    finite = gammas > 0
    etas = np.ones_like(gammas)

    def integrated(eta: np.ndarray, g: np.ndarray) -> np.ndarray:
        # interference term per node: beta * sum w*lam/(1/g + lam*eta)
        inv_g = 1.0 / g
        terms = weights[None, :] * powers[None, :] / (
            inv_g[:, None] + powers[None, :] * eta[:, None])
        interference = sys.load * terms.sum(axis=1)
        density = 1.0 / (inv_gain[None, positive]
                         + interference[:, None])
        return density.sum(axis=1) * spacing / (2.0 * np.pi)

    g = gammas[finite]
    if g.size:
        lo = np.full(g.shape, 1e-15)
        hi = np.ones(g.shape)
        # residual(1) >= 0 up to quadrature noise; clamp such nodes to 1
        res_hi = hi - integrated(hi, g)
        solvable = res_hi > 0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            res = mid - integrated(mid, g)
            lower = res < 0
            lo = np.where(lower & solvable, mid, lo)
            hi = np.where((~lower) & solvable, mid, hi)
        etas_f = np.where(solvable, 0.5 * (lo + hi), 1.0)
        etas[finite] = etas_f

    num = weights[None, :] * powers[None, :] * etas[:, None]
    den = 1.0 + powers[None, :] * gammas[:, None] * etas[:, None]
    return (num / den).sum(axis=1)


def _immse_capacity(sys: SystemLaw, snr: float, rel_tol: float = 1e-5,
                    initial_nodes: int = 129, max_nodes: int = 2049,
                    density_points: int = 2048) -> float:
    """I-MMSE oracle: ``(beta/ln 2) * integral_0^snr MMSE-sum(g) dg``.

    Gauss-Legendre quadrature over the SNR axis with node doubling until
    the value changes by less than ``rel_tol`` relatively.
    """
    prefactor = sys.load / math.log(2.0)
    value = None
    nodes = initial_nodes
    while True:
        x, w = _gauss_legendre_nodes(nodes, snr)
        integrand = _mmse_integrand(sys, x, density_points)
        new_value = prefactor * float(np.dot(w, integrand))
        if value is not None and abs(new_value - value) <= rel_tol * max(
                abs(new_value), 1e-300):
            return new_value
        value = new_value
        if 2 * nodes - 1 > max_nodes:
            return value
        nodes = 2 * nodes - 1


def _fine_grid_route(sys: SystemLaw,
                     n_points: int = 65536) -> tuple[float, float]:
    """``(eta, capacity)`` of the free-energy form on a midpoint grid.

    The efficiency density ``1/(E/|Phi|^2 + J(eta))`` is sampled on
    ``n_points`` midpoints of the pulse support, its band mean's fixed
    point is found by Brent's method, and the free energy
    ``-log2 q + (q - 1) log2 e`` with ``q = eta(w) E/|Phi|^2`` is summed on
    the same grid.
    """
    waveform = sys.waveform
    energy = waveform.energy
    edge = 2.0 * np.pi * waveform.bandwidth
    spacing = 2.0 * edge / n_points
    gain = waveform.power_spectrum(
        -edge + (np.arange(n_points) + 0.5) * spacing)
    gain = gain[gain > 0]
    weight = spacing / (2.0 * np.pi)
    powers, weights = sys.law.power_marginal()
    noise = sys.noise_density / energy

    def interference(eta: float) -> float:
        return sys.load * float(np.sum(weights * powers
                                       / (noise + powers * eta)))

    def residual(eta: float) -> float:
        return eta - weight * float(np.sum(
            1.0 / (energy / gain + interference(eta))))

    eta = scipy.optimize.brentq(residual, 1e-300, 1.0, xtol=1e-300,
                                rtol=1e-15)
    q = energy / (energy + interference(eta) * gain)
    free_energy = weight * float(np.sum(-np.log2(q)
                                        + (q - 1.0) / math.log(2.0)))
    user_term = float(np.sum(weights * np.log2(
        1.0 + powers * eta / noise)))
    return eta, sys.load * user_term + free_energy


_BUILT_IN_PULSES = {
    **{f"rrc{rho}": lambda rho=rho: root_raised_cosine_waveform(rho)
       for rho in (0.05, 0.22, 0.5, 1.0)},
    **{f"sinc{alpha}": lambda alpha=alpha: sinc_waveform(alpha)
       for alpha in (0.5, 1.0, 1.9, 2.0)},
}


@pytest.mark.parametrize("two_level", [False, True],
                         ids=["equal_powers", "two_levels"])
@pytest.mark.parametrize("pulse", sorted(_BUILT_IN_PULSES))
def test_closed_form_matches_fine_grid(pulse, two_level):
    waveform = _BUILT_IN_PULSES[pulse]()
    law = (TWO_LEVEL_LAW if two_level
           else equal_power_uniform_delays(16))
    for load in (0.25, 1.0, 4.0, 8.0):
        for n0 in (1e-3, 1e-2, 0.1, 1.0):
            sys = SystemLaw(load=load, noise_density=n0,
                            oversampling=waveform.min_oversampling,
                            waveform=waveform, law=law)
            want_eta, want_capacity = _fine_grid_route(sys)
            eta = solve_efficiency_scalar(sys).scalar
            assert abs(eta / want_eta - 1.0) <= 1e-9, (load, n0)
            capacity = capacity_constrained(sys)
            assert abs(capacity / want_capacity - 1.0) <= 1e-9, (load, n0)


def test_tabulated_rrc_takes_the_grid_route():
    # A table of RRC 0.22 is integrated on a fixed midpoint grid over its
    # span, so neither its values nor the closed form's move with the
    # density point count, and it stays within the table's interpolation
    # error of the closed form.
    rrc = root_raised_cosine_waveform(0.22)
    edge = 2.0 * np.pi * rrc.bandwidth
    table_omega = np.linspace(-edge, edge, 1221)
    table = tabulated_waveform(table_omega, rrc.spectrum(table_omega))
    fine = np.linspace(-edge, edge, 100001)
    interpolation_error = float(np.max(np.abs(
        table.power_spectrum(fine) - rrc.power_spectrum(fine))))
    assert interpolation_error < 1e-4
    for load, n0 in ((0.5, 0.1), (4.0, 1e-3), (8.0, 1.0)):
        systems = [SystemLaw(load=load, noise_density=n0, oversampling=2,
                             waveform=waveform,
                             law=equal_power_uniform_delays(16))
                   for waveform in (rrc, table)]
        closed, tabulated = (solve_efficiency_scalar(sys).scalar
                             for sys in systems)
        for sys, value in zip(systems, (closed, tabulated)):
            assert solve_efficiency_scalar(sys, 1024).scalar == value
        assert abs(tabulated / closed - 1.0) <= interpolation_error
        closed, tabulated = (capacity_constrained(sys) for sys in systems)
        assert abs(tabulated / closed - 1.0) <= interpolation_error


@pytest.mark.parametrize("waveform", [root_raised_cosine_waveform(0.22),
                                      sinc_waveform(1.9)],
                         ids=["rrc0.22", "sinc1.9"])
def test_ebn0_approaches_the_shannon_limit_from_above(waveform):
    # Eb/N0 tends to ln 2 from above, linearly in the SNR, down to
    # snr = 1e-9 where snr_for_ebn0 stops its bracket search.  Computing
    # log2(1 + x) and the free-energy differences without log1p made the
    # excess -8.3e-8 there.  The quadratic term moves the slope by 6e-4
    # at snr = 1e-3.
    sys = SystemLaw(load=1.0, noise_density=1.0,
                    oversampling=waveform.min_oversampling,
                    waveform=waveform, law=equal_power_uniform_delays(64))
    snrs = np.logspace(-3.0, -9.0, 7)
    slopes = [(snr / (capacity_constrained(sys, snr=snr) * math.log(2.0))
               - 1.0) / snr for snr in snrs]
    assert min(slopes) > 0.0
    assert max(abs(slope / slopes[-1] - 1.0) for slope in slopes) <= 2e-3


class TestSyncClosedForm:
    def test_frozen_values(self):
        assert capacity_sync_closed_form(1.0, 10.0) == pytest.approx(
            SYNC_CAPACITY_LOAD1_SNR10, rel=1e-12)
        assert capacity_sync_closed_form(0.5, 10.0) == pytest.approx(
            SYNC_CAPACITY_LOAD05_SNR10, rel=1e-12)

    def test_zero_boundaries(self):
        assert capacity_sync_closed_form(0.0, 10.0) == 0.0
        assert capacity_sync_closed_form(1.0, 0.0) == 0.0

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError,
                           match="load must be finite and nonnegative"):
            capacity_sync_closed_form(-1.0, 1.0)

    @pytest.mark.parametrize("load, snr, name", [
        (math.inf, 10.0, "load"), (math.nan, 10.0, "load"),
        (1.0, math.nan, "snr"), (1.0, math.inf, "snr"),
        (1.0, -1.0, "snr")])
    def test_non_finite_arguments_rejected(self, load, snr, name):
        # Checked before the root: a NaN SNR would come out as a NaN
        # capacity, and an infinite load as a math domain error.
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            capacity_sync_closed_form(load, snr)

    def test_small_load_is_single_user(self):
        # C/beta -> log2(1 + snr) as the load vanishes.
        load = 1e-7
        got = capacity_sync_closed_form(load, 10.0) / load
        assert got == pytest.approx(math.log2(11.0), rel=1e-5)

    def test_pooled_power_upper_bound(self):
        # Total capacity never beats a single user holding all the power,
        # and approaches that bound at large load.
        for load in (1.0, 4.0, 32.0):
            c = capacity_sync_closed_form(load, 10.0)
            bound = math.log2(1.0 + load * 10.0)
            assert c <= bound + 1e-12
        assert capacity_sync_closed_form(32.0, 10.0) / \
            math.log2(1.0 + 320.0) > 0.99

    @settings(max_examples=30, deadline=None)
    @given(load=st.floats(min_value=0.01, max_value=8.0),
           snr=st.floats(min_value=0.01, max_value=50.0))
    def test_property_monotone(self, load, snr):
        c = capacity_sync_closed_form(load, snr)
        assert c > 0.0
        assert capacity_sync_closed_form(load + 0.1, snr) >= c - 1e-12
        assert capacity_sync_closed_form(load, snr * 1.1) >= c - 1e-12

    def test_matches_quadrature_route(self):
        # Independent route: the pulse-constrained free-energy form with a
        # unit-bandwidth flat pulse, which reduces the asynchronous model
        # to the synchronous one.
        got = capacity_constrained(_sinc_system(1.0), snr=10.0)
        assert got == pytest.approx(SYNC_CAPACITY_LOAD1_SNR10, rel=1e-6)


class TestConstrainedCapacity:
    def test_flat_pulse_bandwidth_scaling(self):
        # Doubling the flat bandwidth doubles capacity at half the
        # effective load: C(alpha) = alpha * C_sync(load/alpha).
        snr = 10.0
        for alpha, load in [(2.0, 1.0), (0.5, 1.0), (2.0, 2.0)]:
            got = capacity_constrained(_sinc_system(load, alpha), snr=snr)
            want = alpha * capacity_sync_closed_form(load / alpha, snr)
            assert got == pytest.approx(want, rel=1e-4)

    def test_zero_load_and_zero_snr(self):
        assert capacity_constrained(_sinc_system(0.0), snr=10.0) == 0.0
        assert capacity_constrained(_sinc_system(1.0), snr=0.0) == 0.0

    @pytest.mark.parametrize("snr", [math.nan, math.inf])
    def test_snr_must_be_finite_and_nonnegative(self, snr):
        # The closed form's check, before the band root, where an infinite
        # SNR would divide by zero and a NaN one empty the bracket.
        with pytest.raises(ValueError,
                           match="^snr must be finite and nonnegative$"):
            capacity_constrained(_sinc_system(1.0), snr=snr)

    def test_snr_defaults_to_system(self):
        sys = _sinc_system(1.0, snr=10.0)
        assert capacity_constrained(sys) == pytest.approx(
            capacity_constrained(sys, snr=10.0), rel=1e-12)

    def test_excess_bandwidth_beats_synchronous_at_high_load(self):
        # Keeping spectral resources idle costs capacity; the wider pulse
        # wins once the load is large enough to exploit it.
        sys = SystemLaw(load=8.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=equal_power_uniform_delays(16))
        c_async = capacity_constrained(sys, snr=10.0)
        c_sync = capacity_sync_closed_form(8.0, 10.0)
        assert c_async > c_sync

    def test_hypothesis_gate(self):
        sys = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                        waveform=root_raised_cosine_waveform(0.22),
                        law=synchronous_law())
        with pytest.raises(ValueError,
                           match="corollary hypotheses violated"):
            capacity_constrained(sys, snr=10.0)

    def test_negative_snr_rejected(self):
        with pytest.raises(ValueError):
            capacity_constrained(_sinc_system(1.0), snr=-1.0)


_WAVEFORMS = {
    "rrc0.22": (lambda: root_raised_cosine_waveform(0.22), 2),
    "rrc1.0": (lambda: root_raised_cosine_waveform(1.0), 2),
    "sinc0.5": (lambda: sinc_waveform(0.5), 1),
    "sinc2": (lambda: sinc_waveform(2.0), 2),
}


@pytest.mark.parametrize("waveform, load, two_level, snr", [
    ("rrc0.22", 0.5, False, 10.0),
    ("rrc0.22", 6.0, True, 10.0),
    ("rrc1.0", 0.5, True, 10.0),
    ("rrc1.0", 6.0, False, 10.0),
    ("sinc0.5", 0.5, False, 10.0),
    ("sinc0.5", 6.0, True, 10.0),
    ("sinc2", 0.5, True, 10.0),
    ("sinc2", 6.0, False, 10.0),
    ("rrc0.22", 6.0, False, 0.3),
    ("sinc0.5", 0.5, True, 0.3),
    ("rrc1.0", 0.5, False, 100.0),
    ("sinc2", 6.0, True, 100.0),
])
def test_closed_form_matches_immse_oracle(waveform, load, two_level, snr):
    make_waveform, oversampling = _WAVEFORMS[waveform]
    law = (TWO_LEVEL_LAW if two_level
           else equal_power_uniform_delays(16))
    sys = SystemLaw(load=load, noise_density=1.0 / snr,
                    oversampling=oversampling, waveform=make_waveform(),
                    law=law)
    got = capacity_constrained(sys, snr=snr)
    want = _immse_capacity(sys, snr)
    assert abs(got - want) <= 1e-8 * want


class TestSpectralEfficiency:
    def test_divides_by_time_bandwidth_product(self):
        wf = sinc_waveform(2.0)  # T_c * B = 1
        assert spectral_efficiency(3.0, wf) == pytest.approx(3.0)
        wf_half = sinc_waveform(0.5)  # T_c * B = 0.25
        assert spectral_efficiency(3.0, wf_half) == pytest.approx(12.0)


class TestEbN0Inversion:
    def test_round_trip(self):
        load = 1.0
        fn = lambda snr: capacity_sync_closed_form(load, snr)
        snr0 = 7.5
        target = load * snr0 / fn(snr0)
        got = snr_for_ebn0(target, load, fn)
        assert got == pytest.approx(snr0, rel=1e-6)

    def test_db_specified_operating_point(self):
        load = 2.0
        fn = lambda snr: capacity_sync_closed_form(load, snr)
        target = decibels_to_linear(10.0)
        snr = snr_for_ebn0(target, load, fn)
        assert load * snr / fn(snr) == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("load", [0.5, 1.0, 6.0])
    @pytest.mark.parametrize("snr0", [0.05, 7.5, 300.0])
    def test_round_trip_within_half_tolerance(self, load, snr0):
        # The result is the geometric midpoint of a bracket no wider than
        # rel_tol = 1e-8 in ln snr, so it lies within half of it.
        fn = lambda snr: capacity_sync_closed_form(load, snr)
        got = snr_for_ebn0(load * snr0 / fn(snr0), load, fn)
        assert abs(got / snr0 - 1.0) <= 0.5e-8

    @pytest.mark.parametrize("load", [0.5, 1.0, 6.0])
    def test_few_capacity_evaluations_at_10_db(self, load):
        # Geometric bisection makes about 32 evaluations here.
        calls = []

        def fn(snr):
            calls.append(snr)
            return capacity_sync_closed_form(load, snr)

        target = decibels_to_linear(10.0)
        snr = snr_for_ebn0(target, load, fn)
        assert len(calls) <= 14
        assert load * snr / capacity_sync_closed_form(load, snr) == \
            pytest.approx(target, rel=1e-8)

    @pytest.mark.parametrize("load", [0.5, 1.0, 6.0])
    def test_few_capacity_evaluations_below_unit_snr(self, load):
        # A root below snr = 1 is bracketed by stepping down from 1; the
        # fixed bracket [1e-9, 1] took 34 evaluations here.
        calls = []

        def fn(snr):
            calls.append(snr)
            return capacity_sync_closed_form(load, snr)

        snr0 = 0.05
        target = load * snr0 / capacity_sync_closed_form(load, snr0)
        got = snr_for_ebn0(target, load, fn)
        assert len(calls) <= 16
        assert min(calls) >= snr0 / 8.0
        assert abs(got / snr0 - 1.0) <= 0.5e-8

    def test_unreachable_target(self):
        fn = lambda snr: capacity_sync_closed_form(1.0, snr)
        # Below the minimum energy per bit of the channel.
        with pytest.raises(SolverError, match="unreachable Eb/N0"):
            snr_for_ebn0(1e-3, 1.0, fn)

    @pytest.mark.parametrize("target, load, message", [
        (math.nan, 1.0, "target Eb/N0 must be finite and positive"),
        (math.inf, 1.0, "target Eb/N0 must be finite and positive"),
        (10.0, math.nan, "load must be finite and positive"),
        (10.0, math.inf, "load must be finite and positive")])
    def test_invalid_target_or_load_rejected(self, target, load, message):
        # Invalid input, not a solver failure: a NaN compares false with
        # every bracket end, and an infinite target lies beyond any SNR.
        fn = lambda snr: capacity_sync_closed_form(1.0, snr)
        with pytest.raises(ValueError, match=f"^{message}$"):
            snr_for_ebn0(target, load, fn)

    def test_zero_capacity_up_to_unit_snr(self):
        # C(snr) <= 0 reads as "below the target" (excess -inf), so the
        # bracket [1, 8] starts at a non-finite end and the root finder
        # falls back to bisection steps.  Eb/N0 = sqrt(snr) above 1.
        calls = []

        def fn(snr):
            calls.append(snr)
            return 0.0 if snr <= 1.0 else math.sqrt(snr)

        got = snr_for_ebn0(2.0, 1.0, fn)
        assert abs(got / 4.0 - 1.0) <= 0.5e-8
        # The first step after both ends is the midpoint in ln snr.
        assert calls[:3] == pytest.approx([1.0, 8.0, math.sqrt(8.0)],
                                          rel=1e-15)

    def test_target_met_at_unit_snr(self):
        fn = lambda snr: capacity_sync_closed_form(1.0, snr)
        assert snr_for_ebn0(1.0 / fn(1.0), 1.0, fn) == 1.0

    def test_invalid_arguments(self):
        fn = lambda snr: snr
        with pytest.raises(ValueError):
            snr_for_ebn0(-1.0, 1.0, fn)
        with pytest.raises(ValueError):
            snr_for_ebn0(1.0, 0.0, fn)


class TestDecibels:
    def test_known_values(self):
        assert linear_to_decibels(10.0) == pytest.approx(10.0)
        assert linear_to_decibels(1.0) == pytest.approx(0.0)
        assert decibels_to_linear(0.0) == pytest.approx(1.0)
        assert decibels_to_linear(30.0) == pytest.approx(1000.0)

    def test_round_trip_tight(self):
        for value in np.logspace(-6.0, 6.0, 25):
            back = decibels_to_linear(linear_to_decibels(value))
            assert abs(back - value) <= 1e-12 * value

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            linear_to_decibels(0.0)
        with pytest.raises(ValueError, match="positive"):
            linear_to_decibels(-3.0)
