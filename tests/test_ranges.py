"""The scalar routes over the documented ranges.

The README documents load ``beta`` in [0, 16], noise level ``N0`` in
[1e-14, 10] and per-chip SNR in [1e-9, 1e18].  Over those ranges the flat
pulse family has closed forms that share no code with the solvers: the
equal-power quadratic root at the effective load ``beta/alpha``, and the
synchronous capacity of Verdu-Shamai (IEEE Trans. IT 45(2), 1999)
evaluated here to 80 digits with ``decimal``.  The RRC pulses are checked
against a ``scipy`` quadrature and root of the scalar equation.
"""

import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from cdmalimits import (
    SystemLaw,
    capacity_constrained,
    capacity_sync_closed_form,
    equal_power_uniform_delays,
    root_raised_cosine_waveform,
    sinc_waveform,
    solve_efficiency_scalar,
    solve_efficiency_sinc,
    spectral_efficiency,
    tabulated_waveform,
)
from cdmalimits.waveforms import ChipWaveform, _alias_table

from conftest import quadratic_root

ALPHAS = (0.5, 1.0, 2.0)
LOADS = (0.01, 0.1, 0.5, 1.0, 1.2, 2.0, 4.0, 8.0, 16.0)
NOISE_LEVELS = (10.0, 1.0, 0.1, 1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 1e-14)
SNRS = (1e-9, 1e-6, 1e-3, 1.0, 10.0, 1e3, 1e6, 1e9, 1e12, 1e15, 1e18)


def _sync_capacity_80_digits(load, snr):
    """``beta*log2(1+snr-F/4) + log2(1+beta*snr-F/4) - log2(e)*F/(4*snr)``
    with ``F = (sqrt(snr*(1+sqrt(beta))^2+1) -
    sqrt(snr*(1-sqrt(beta))^2+1))^2``, whose cancellation 80 digits
    absorb up to snr = 1e18."""
    with localcontext() as ctx:
        ctx.prec = 80
        beta, s = Decimal(load), Decimal(snr)
        root = beta.sqrt()
        f = ((s * (1 + root) ** 2 + 1).sqrt()
             - (s * (1 - root) ** 2 + 1).sqrt()) ** 2
        nats = ((beta * (1 + s - f / 4).ln() + (1 + beta * s - f / 4).ln()
                 - f / (4 * s)))
        return float(nats / Decimal(2).ln())


@pytest.fixture
def band_mean_calls(monkeypatch):
    """The interference level of every band-mean evaluation."""
    calls = []
    band_means = ChipWaveform._band_means

    def counted(self, x):
        calls.append(x)
        return band_means(self, x)

    monkeypatch.setattr(ChipWaveform, "_band_means", counted)
    return calls


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sinc_efficiency_matches_the_quadratic_root(alpha):
    # Away from the critical effective load beta/alpha = 1, to 1e-10
    # relative at every point; none may raise.
    off = []
    for load in LOADS:
        if load == alpha:
            continue
        for n0 in NOISE_LEVELS:
            got = solve_efficiency_sinc(load, alpha, [1.0], [1.0], n0)
            want = quadratic_root(load / alpha, n0)
            if abs(got / want - 1.0) > 1e-10:
                off.append((load, n0, got, want))
    assert off == []


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sinc_efficiency_at_the_critical_load(alpha):
    # At beta/alpha = 1 the root is about sqrt(N0), and the slope of the
    # solver's residual in ln x is about 2*sqrt(N0), so rounding in the
    # band mean is magnified by about 1/sqrt(N0): the bound is 1e-10
    # relative down to N0 = 1e-12 and 1e-9 below.
    for n0 in NOISE_LEVELS:
        got = solve_efficiency_sinc(alpha, alpha, [1.0], [1.0], n0)
        want = quadratic_root(1.0, n0)
        bound = 1e-10 if n0 >= 1e-12 else 1e-9
        assert abs(got / want - 1.0) <= bound, (n0, got, want)


def _rrc_band_mean(rho, x):
    """``D(x) = (1/2pi) * integral |Phi|^2 / (1 + x*|Phi|^2)`` of the RRC
    pulse by ``quad``, over the flat part ``|w| <= (1-rho)*pi`` and the
    roll-off up to ``(1+rho)*pi``.  The roll-off, where ``|Phi|^2 =
    sin(d/(4*rho))^2`` at a distance ``d`` below the outer edge, is
    integrated in ``ln d``: at large ``x`` the integrand falls from
    ``1/x`` to zero over ``d ~ x**-0.5``, which ``quad`` misses in ``w``
    (there the root came out 3e-7 off at ``beta = 4``, ``N0 = 1e-12``)."""
    flat = (1.0 - rho) * math.pi

    def roll_off(v):
        d = math.exp(v)
        gain = math.sin(d / (4.0 * rho)) ** 2
        return gain / (1.0 + x * gain) * d

    total = quad(lambda w: 1.0 / (1.0 + x), 0.0, flat)[0] if flat else 0.0
    total += quad(roll_off, -80.0, math.log(2.0 * rho * math.pi),
                  epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total / math.pi


def _rrc_efficiency(rho, load, n0):
    """Root of ``x = beta / (N0 + D(x))`` by ``brentq`` in ``ln x``,
    bracketed by ``D`` in ``(0, 1)``; the efficiency is ``D`` there."""
    def residual(u):
        return math.log(load / (n0 + _rrc_band_mean(rho, math.exp(u)))) - u

    u = brentq(residual, math.log(load / (n0 + 1.0)) - 1.0,
               math.log(load / n0) + 1.0, xtol=1e-14, rtol=1e-15)
    return _rrc_band_mean(rho, math.exp(u))


@pytest.mark.parametrize("rho", (0.22, 1.0))
def test_rrc_efficiency_matches_quadrature_root(rho):
    # To 1e-10 relative, also at the critical load beta = 1 + rho, where
    # the root is ill-conditioned at low noise: there the worst gap is
    # 1.7e-11 (rho = 0.22) and 3.3e-12 (rho = 1), both at N0 = 1e-12,
    # against at most 7e-14 at every other point.
    waveform = root_raised_cosine_waveform(rho)
    for load in (0.1, 1.0, 4.0, 16.0, 1.0 + rho):
        for n0 in (10.0, 0.1, 1e-3, 1e-6, 1e-12):
            sys = SystemLaw(load=load, noise_density=n0, oversampling=2,
                            waveform=waveform,
                            law=equal_power_uniform_delays(64))
            got = solve_efficiency_scalar(sys, 2).scalar
            want = _rrc_efficiency(rho, load, n0)
            assert abs(got / want - 1.0) <= 1e-10, (load, n0, got, want)


def test_band_root_evaluation_budget(band_mean_calls):
    # Each solve over the sinc sweep evaluates the band mean at most 55
    # times: ITP's worst case for the widest bracket (ln(1 + 16/1e-14)
    # at tolerance 1e-13) is about 53, including the two ends and the
    # final (D, F) at the root.
    worst = 0
    for alpha in ALPHAS:
        for load in LOADS:
            for n0 in NOISE_LEVELS:
                band_mean_calls.clear()
                solve_efficiency_sinc(load, alpha, [1.0], [1.0], n0)
                worst = max(worst, len(band_mean_calls))
    assert 0 < worst <= 55


def test_band_root_evaluations_at_figure_points(band_mean_calls):
    # The capacity solves behind figure3's RRC 0.22 curves converge
    # superlinearly: at most 16 band-mean evaluations each (ITP took up
    # to 49 when it re-evaluated an end already within rounding of the
    # root).
    waveform = root_raised_cosine_waveform(0.22)
    for load in (0.5, 6.0):
        sys = SystemLaw(load=load, noise_density=1.0, oversampling=2,
                        waveform=waveform, law=equal_power_uniform_delays(64))
        for snr in (0.1, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e6):
            band_mean_calls.clear()
            capacity_constrained(sys, snr=snr)
            assert len(band_mean_calls) <= 16, (load, snr)


@pytest.mark.parametrize("load", (0.01, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0,
                                  16.0))
def test_sync_capacity_against_80_digits(load):
    for snr in SNRS:
        got = capacity_sync_closed_form(load, snr)
        want = _sync_capacity_80_digits(load, snr)
        assert abs(got / want - 1.0) <= 2e-15, (snr, got, want)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_flat_pulse_capacity_is_the_rescaled_sync_capacity(alpha):
    # C(alpha) = alpha * C_sync(beta/alpha) from snr = 1e-9, where the
    # efficiency root lies within rounding of its bracket's lower end, to
    # 1e18 at effective loads up to 16.
    waveform = sinc_waveform(alpha)
    for effective_load in (0.01, 0.5, 1.0, 2.0, 16.0):
        sys = SystemLaw(load=effective_load * alpha, noise_density=1.0,
                        oversampling=waveform.min_oversampling,
                        waveform=waveform,
                        law=equal_power_uniform_delays(16))
        for snr in (1e-9, 1e-3, 1.0, 1e6, 1e12, 1e18):
            got = capacity_constrained(sys, snr=snr)
            want = alpha * capacity_sync_closed_form(effective_load, snr)
            assert abs(got / want - 1.0) <= 1e-14, (effective_load, snr)


def test_tabulated_pulse_at_low_snr_and_load():
    # The midpoint rule overshoots this table's band mean at x = 0, which
    # is exactly 1, by 1.3e-6.  Uncapped, that put the fixed point below
    # the scalar root's bracket at low SNR or load.
    waveform = tabulated_waveform(np.array([-3.0, 2.6, 3.0]),
                                  np.array([0.2, 2.0, 0.2]))
    edges = np.linspace(-3.0, 3.0, 2049)
    gain = waveform.power_spectrum(0.5 * (edges[1:] + edges[:-1]))
    assert gain.mean() * 3.0 / np.pi / waveform.energy > 1.0 + 1e-6
    for load, n0 in ((0.01, 1e9), (0.01, 1e6), (1e-8, 10.0)):
        sys = SystemLaw(load=load, noise_density=n0, oversampling=1,
                        waveform=waveform, law=equal_power_uniform_delays(4))
        assert capacity_constrained(sys) > 0.0
        assert solve_efficiency_scalar(sys).scalar == 1.0


# Flat tables on symmetric, asymmetric and one-sided spans [-a, b]: at
# value 1/sqrt(alpha') with alpha' = (a + b)/2pi each has unit energy and
# the band means of sinc(alpha'), so the flat-pulse oracles hold at alpha'.
FLAT_SPANS = ((math.pi / 2, math.pi / 2), (2.0, 3.0), (0.5, 6.0),
              (0.0, 2.0 * math.pi))
SPAN_IDS = ("symmetric", "asymmetric", "wide_asymmetric", "one_sided")
TABLE_LOADS = (0.1, 1.0, 4.0, 16.0)


def _flat_table_system(span, load, n0):
    a, b = span
    alpha = (a + b) / (2.0 * math.pi)
    waveform = tabulated_waveform([-a, b], [1.0 / math.sqrt(alpha)] * 2)
    sys = SystemLaw(load=load, noise_density=n0,
                    oversampling=waveform.min_oversampling,
                    waveform=waveform, law=equal_power_uniform_delays(16))
    return sys, alpha


@pytest.mark.parametrize("span", FLAT_SPANS, ids=SPAN_IDS)
def test_flat_table_efficiency_matches_sinc(span):
    # To 1e-10 relative down to N0 = 1e-12, where the sinc tests' bound
    # at the critical effective load beta/alpha' = 1 is still 1e-10.  The
    # sinc route carries that load's rounding too, so there the table is
    # checked against the quadratic root instead.
    for load in TABLE_LOADS:
        for n0 in NOISE_LEVELS[:-2]:
            sys, alpha = _flat_table_system(span, load, n0)
            got = solve_efficiency_scalar(sys, 2).scalar
            want = (quadratic_root(1.0, n0) if load == alpha else
                    solve_efficiency_sinc(load, alpha, [1.0], [1.0], n0))
            assert abs(got / want - 1.0) <= 1e-10, (load, n0, got, want)


@pytest.mark.parametrize("span", FLAT_SPANS, ids=SPAN_IDS)
def test_flat_table_capacity_is_the_rescaled_sync_capacity(span):
    for load in TABLE_LOADS:
        for n0 in NOISE_LEVELS:
            sys, alpha = _flat_table_system(span, load, n0)
            got = capacity_constrained(sys)
            want = alpha * capacity_sync_closed_form(load / alpha, sys.snr)
            assert abs(got / want - 1.0) <= 1e-14, (load, n0, got, want)


@pytest.mark.parametrize("span", FLAT_SPANS, ids=SPAN_IDS)
def test_flat_table_bandwidth_is_sincs(span):
    # A table's bandwidth is half its span, wherever the span sits, so a
    # flat table over [-a, b] has the bandwidth, smallest oversampling
    # and spectral efficiency of sinc(alpha').  A symmetric table keeps
    # its largest sampled |omega| / 2pi bit for bit.
    sinc = sinc_waveform((span[0] + span[1]) / (2.0 * math.pi))
    table = _flat_table_system(span, 1.0, 1.0)[0].waveform
    assert table.bandwidth == sinc.bandwidth
    assert table.min_oversampling == sinc.min_oversampling
    if span[0] == span[1]:
        assert table.bandwidth == span[1] / (2.0 * math.pi)
    for load in TABLE_LOADS:
        for n0 in NOISE_LEVELS:
            sys, _ = _flat_table_system(span, load, n0)
            got = spectral_efficiency(capacity_constrained(sys), table)
            want = spectral_efficiency(capacity_constrained(
                replace(sys, waveform=sinc)), sinc)
            assert abs(got / want - 1.0) <= 1e-14, (load, n0, got, want)


def test_asymmetric_table_weights_both_ends_by_half():
    waveform = tabulated_waveform([-2.0, 0.0, 3.0], [1.0, 1.0, 0.5])
    _, args, amps = _alias_table(waveform, np.array([-2.0, 3.0 - 2 * math.pi]))
    at_lo = np.abs(args + 2.0) <= 1e-12
    at_hi = np.abs(args - 3.0) <= 1e-12
    assert at_lo.sum() == at_hi.sum() == 1
    assert amps[at_lo] == pytest.approx([0.5], abs=1e-15)
    assert amps[at_hi] == pytest.approx([0.25], abs=1e-15)
