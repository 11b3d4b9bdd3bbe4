"""Tests for chip-waveform spectra, alias sampling, and quadratic forms.

Oracles: closed-form spectrum values, brute-force alias sums written
directly in the tests, trapezoidal energy integrals, the raised-cosine
power, and for the delay-free matrix dense averaging over many delays and
a direct phase-tensor alias sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmalimits import (
    ChipWaveform,
    load_tabulated_waveform,
    phase_twisted_circulant,
    q_eigendecomposition,
    root_raised_cosine_waveform,
    sinc_waveform,
    tabulated_waveform,
)
from cdmalimits.montecarlo import _dft_deltas
from cdmalimits.waveforms import (
    _alias_table,
    _delay_free_q,
    _delta_components,
    _midpoints,
)

TWO_PI = 2.0 * math.pi


def _brute_sampled_spectrum(waveform, omega, tau, nu_range=8):
    """Direct alias sum with explicit half-weighting at the support edge."""
    edge = TWO_PI * waveform.bandwidth
    total = 0.0 + 0.0j
    for nu in range(-nu_range, nu_range + 1):
        arg = omega + TWO_PI * nu
        if abs(arg) > edge + 1e-9 * max(1.0, edge):
            continue
        weight = 0.5 if abs(abs(arg) - edge) <= 1e-9 * max(1.0, edge) else 1.0
        amp = waveform.spectrum(np.clip(arg, -edge, edge))
        total += weight * np.conj(amp) * np.exp(1j * tau * arg)
    return total


def _phase_tensor_q(waveform, r, omega):
    """Delay-averaged matrix summed over an ``(r, r, V)`` phase tensor:
    ``sum_nu w_nu^2 |Phi|^2 * exp(-j*(k-l)/r*(Omega+2*pi*nu))``."""
    _, args, amps = _alias_table(waveform, np.array([float(omega)]))
    power = np.abs(amps[0]) ** 2  # includes squared edge weights
    idx = np.arange(r)
    diff = idx[:, None] - idx[None, :]
    phase = np.exp(-1j * diff[:, :, None] * args[0][None, None, :] / r)
    return np.einsum("v,klv->kl", power, phase)


#: Pulses of the formula oracles: flat ones with an alias on the band
#: edge at Omega = 0 or +-pi, RRC over its roll-offs, a complex table.
_ORACLE_PULSES = {
    "sinc:1": sinc_waveform(1.0),
    "sinc:2": sinc_waveform(2.0),
    "sinc:4.5": sinc_waveform(4.5),
    "rrc:0": root_raised_cosine_waveform(0.0),
    "rrc:0.22": root_raised_cosine_waveform(0.22),
    "rrc:1": root_raised_cosine_waveform(1.0),
    "table": tabulated_waveform([-2.0, 0.5, 3.0],
                                [1.0 + 0.5j, -0.3 + 1.0j, 0.2 - 0.7j]),
}


def _delta(waveform, r, omega, tau):
    """Delay vector ``delta(omega, tau)``; component 0 is phi(omega, tau)."""
    return _delta_components(waveform, r, np.array([omega]),
                             np.array([tau]))[0, 0]


class TestSincWaveform:
    def test_flat_spectrum_value(self):
        wf = sinc_waveform(2.0)
        # |Phi|^2 = 1/alpha inside the support.
        assert wf.power_spectrum(0.0) == pytest.approx(0.5)
        assert wf.power_spectrum(1.9 * np.pi) == pytest.approx(0.5)
        assert wf.power_spectrum(2.1 * np.pi) == 0.0

    def test_unit_energy_for_any_bandwidth(self):
        for alpha in (0.25, 1.0, 3.5):
            wf = sinc_waveform(alpha)
            assert wf.energy == pytest.approx(1.0)
            # Cross-check with a trapezoidal integral of the spectrum.
            edge = TWO_PI * wf.bandwidth
            grid = np.linspace(-edge, edge, 20001)
            num = np.trapezoid(wf.power_spectrum(grid), grid) / TWO_PI
            assert num == pytest.approx(1.0, rel=1e-3)

    def test_bandwidth_and_oversampling(self):
        assert sinc_waveform(1.0).bandwidth == pytest.approx(0.5)
        assert sinc_waveform(1.0).min_oversampling == 1
        assert sinc_waveform(2.0).min_oversampling == 2
        assert sinc_waveform(2.5).min_oversampling == 3

    def test_invalid_parameters(self):
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="relative bandwidth must "
                                                 "be finite and positive"):
                sinc_waveform(alpha)


class TestRootRaisedCosine:
    def test_flat_region_and_support(self):
        wf = root_raised_cosine_waveform(0.22)
        assert wf.power_spectrum(0.0) == pytest.approx(1.0)
        assert wf.power_spectrum(0.77 * np.pi) == pytest.approx(1.0)
        assert wf.power_spectrum(1.23 * np.pi) == 0.0
        assert wf.bandwidth == pytest.approx(0.61)

    def test_half_power_at_chip_rate_edge(self):
        # The raised-cosine taper crosses half power exactly at pi/T_c.
        for rho in (0.1, 0.22, 0.9):
            wf = root_raised_cosine_waveform(rho)
            assert wf.power_spectrum(np.pi) == pytest.approx(0.5, abs=1e-12)

    def test_nyquist_fold_is_flat(self):
        # Root-Nyquist property: |Phi(w)|^2 + |Phi(2pi - w)|^2 == T_c in
        # the taper band, so the chip-rate folded spectrum is constant.
        wf = root_raised_cosine_waveform(0.35)
        w = np.linspace(0.65 * np.pi, np.pi, 101)
        folded = wf.power_spectrum(w) + wf.power_spectrum(TWO_PI - w)
        np.testing.assert_allclose(folded, 1.0, atol=1e-12)

    def test_zero_roll_off_matches_flat_pulse(self):
        wf = root_raised_cosine_waveform(0.0)
        flat = sinc_waveform(1.0)
        w = np.linspace(-0.99 * np.pi, 0.99 * np.pi, 101)
        np.testing.assert_allclose(wf.power_spectrum(w),
                                   flat.power_spectrum(w), atol=1e-12)
        assert wf.bandwidth == flat.bandwidth

    @settings(max_examples=30, deadline=None)
    @given(rho=st.floats(min_value=0.0, max_value=1.0))
    def test_unit_energy_any_roll_off(self, rho):
        wf = root_raised_cosine_waveform(rho)
        assert wf.energy == pytest.approx(1.0)
        edge = TWO_PI * wf.bandwidth
        grid = np.linspace(-edge, edge, 40001)
        num = np.trapezoid(wf.power_spectrum(grid), grid) / TWO_PI
        assert num == pytest.approx(1.0, rel=1e-4)

    def test_invalid_roll_off(self):
        with pytest.raises(ValueError, match="roll-off"):
            root_raised_cosine_waveform(1.5)
        with pytest.raises(ValueError, match="roll-off"):
            root_raised_cosine_waveform(-0.1)

    @pytest.mark.parametrize("rho", [0.0, 0.22, 0.5, 1.0])
    def test_power_spectrum_is_the_raised_cosine(self, rho):
        wf = root_raised_cosine_waveform(rho)
        w = np.linspace(-1.1 * TWO_PI, 1.1 * TWO_PI, 4001)
        want = wf._rrc_power(w)
        got = wf.power_spectrum(w)
        np.testing.assert_array_equal(got[want == 0.0], 0.0)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert np.ndim(wf.power_spectrum(np.pi)) == 0


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown waveform kind 'x'"):
        ChipWaveform(kind="x", bandwidth=1.0, energy=1.0).spectrum(0.0)


class TestTabulatedWaveform:
    def _rrc_table(self, n=801, rho=0.22):
        ref = root_raised_cosine_waveform(rho)
        edge = TWO_PI * ref.bandwidth
        grid = np.linspace(-edge, edge, n)
        return ref, grid, ref.spectrum(grid)

    def test_interpolates_reference_spectrum(self):
        ref, grid, vals = self._rrc_table()
        wf = tabulated_waveform(grid, vals)
        probe = np.linspace(grid[0], grid[-1], 257)
        np.testing.assert_allclose(wf.spectrum(probe), ref.spectrum(probe),
                                   atol=2e-4)

    def test_energy_of_interpolated_pulse(self):
        # |Phi|^2 of the interpolated pulse is quadratic per segment: t^2
        # on [-1, 0] integrates to 1/3 and |1 + (j - 1) t/2|^2 on [0, 2]
        # to 4/3.  The trapezoid (1/2 + 2) overstates the energy by
        # h |p - q|^2 / 6 per segment.
        wf = tabulated_waveform([-1.0, 0.0, 2.0], [0.0, 1.0, 1j])
        assert wf.energy == pytest.approx(5.0 / 3.0 / TWO_PI, rel=1e-15)
        _, grid, vals = self._rrc_table()
        wf = tabulated_waveform(grid, vals)
        excess = np.sum(np.diff(grid) * np.abs(np.diff(vals)) ** 2) / 6.0
        trapezoid = np.trapezoid(np.abs(vals) ** 2, grid)
        assert wf.energy == pytest.approx((trapezoid - excess) / TWO_PI,
                                          rel=1e-12)
        assert wf.energy == pytest.approx(1.0, rel=1e-4)

    def test_bandwidth_from_table_extent(self):
        wf = tabulated_waveform([-4.0, 0.0, 4.0], [0.0, 1.0, 0.0])
        assert wf.bandwidth == pytest.approx(4.0 / TWO_PI)

    def test_out_of_range_query_rejected(self):
        wf = tabulated_waveform([-1.0, 0.0, 1.0], [0.5, 1.0, 0.5])
        with pytest.raises(ValueError, match="out of tabulated range"):
            wf.spectrum(2.0)
        with pytest.raises(ValueError, match="out of tabulated range"):
            wf.spectrum(np.array([0.0, -1.5]))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tabulated_waveform([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="at least two"):
            tabulated_waveform([0.0], [1.0])
        with pytest.raises(ValueError, match="match in length"):
            tabulated_waveform([0.0, 1.0], [1.0, 1.0, 1.0])
        for omega in ([-math.inf, 1.0], [-1.0, math.nan]):
            with pytest.raises(ValueError,
                               match="tabulated frequencies must be finite"):
                tabulated_waveform(omega, [1.0, 1.0])
        for values in ([math.nan, 1.0], [math.inf, 1.0],
                       [1.0, complex(0.0, -math.inf)]):
            with pytest.raises(ValueError,
                               match="tabulated values must be finite"):
                tabulated_waveform([-1.0, 1.0], values)
        with pytest.raises(ValueError,
                           match="tabulated waveform has zero energy"):
            tabulated_waveform([-1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        # The peak must lie in [1e-100, 1e100], ends included, and tables
        # that used to overflow (1.3e154) or underflow (2e-154) downstream
        # are rejected by name.
        limit = (r"largest tabulated \|value\| must lie in "
                 r"\[1e-100, 1e\+100\]")
        for peak in (1e200, complex(0.0, -1e200), 1e-200, 1.3e154, 2e-154,
                     np.nextafter(1e-100, 0.0), np.nextafter(1e100, math.inf)):
            with pytest.raises(ValueError, match=limit):
                tabulated_waveform([-np.pi, np.pi], [peak, peak])
        for peak in (1e-100, 1e100):
            wf = tabulated_waveform([-np.pi, np.pi], [peak, 1j * peak])
            assert wf.energy == pytest.approx(2.0 * peak ** 2 / 3.0,
                                              rel=1e-15)
        # Only the largest value is bounded: smaller samples may underflow.
        wf = tabulated_waveform([-np.pi, 0.0, np.pi], [1.0, 1e-200, 1e-160])
        assert wf.energy == pytest.approx(1.0 / 6.0)

    def test_csv_round_trip(self, tmp_path):
        _, grid, vals = self._rrc_table(n=101)
        path = tmp_path / "pulse.csv"
        rows = ["omega,re,im"]
        rows += [f"{float(w)!r},{float(v.real)!r},{float(v.imag)!r}"
                 for w, v in zip(grid, vals)]
        path.write_text("\n".join(rows) + "\n")
        wf = load_tabulated_waveform(path)
        np.testing.assert_allclose(wf.table_omega, grid)
        np.testing.assert_allclose(wf.table_value, vals)

    def test_csv_two_columns_real_only(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("omega,re\n-1.0,0.5\n0.0,1.0\n1.0,0.5\n")
        wf = load_tabulated_waveform(path)
        assert wf.spectrum(0.0) == pytest.approx(1.0)

    def test_csv_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("")
        with pytest.raises(ValueError,
                           match="tabulated waveform CSV is empty"):
            load_tabulated_waveform(path)

    def test_csv_blank_rows_skipped(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("omega,re,im\n-1.0,0.5,0\n0.0,1.0,0.25\n1.0,0.5,0\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("omega,re,im\n\n-1.0,0.5,0\n , ,\n0.0,1.0,0.25\n"
                         "\n1.0,0.5,0\n\n")
        want, got = (load_tabulated_waveform(p) for p in (plain, blank))
        np.testing.assert_array_equal(got.table_omega, want.table_omega)
        np.testing.assert_array_equal(got.table_value, want.table_value)
        assert got.energy == want.energy

    def test_csv_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "pulse.csv"
        path.write_text("omega,re\n0.0,1.0,0.0,9.0\n")
        with pytest.raises(ValueError, match="columns"):
            load_tabulated_waveform(path)


class TestSampledSpectrum:
    def test_matches_brute_force_alias_sum(self):
        cases = [
            (sinc_waveform(0.75), 1),
            (sinc_waveform(2.4), 3),
            (root_raised_cosine_waveform(0.22), 2),
            (root_raised_cosine_waveform(0.9), 2),
        ]
        rng = np.random.default_rng(11)
        for wf, r in cases:
            for _ in range(8):
                omega = rng.uniform(-np.pi, np.pi)
                tau = rng.uniform(0.0, 1.0)
                got = _delta(wf, r, omega, tau)[0]
                want = _brute_sampled_spectrum(wf, omega, tau)
                assert got == pytest.approx(want, abs=1e-12)

    def test_periodic_in_frequency(self):
        wf = root_raised_cosine_waveform(0.4)
        omega, tau = 0.73, 0.21
        a = _delta(wf, 2, omega, tau)[0]
        b = _delta(wf, 2, omega - TWO_PI, tau)[0]
        # Chip-rate sampling aliases the spectrum onto a 2*pi-periodic
        # function up to the delay phase of the shifted alias index.
        assert abs(a) == pytest.approx(abs(b), abs=1e-12)

    def test_flat_pulse_fold_is_constant(self):
        # alpha = 1 at zero delay folds to exactly 1/sqrt(T_c) everywhere,
        # including the band edge thanks to the half-weight convention.
        wf = sinc_waveform(1.0)
        for omega in (0.0, 0.5, -2.2, np.pi, -np.pi):
            got = _delta(wf, 1, omega, 0.0)[0]
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_undersampled_rejected(self):
        wf = sinc_waveform(2.5)
        with pytest.raises(ValueError, match="undersampled configuration"):
            q_eigendecomposition(wf, 2, 0.0)
        with pytest.raises(ValueError):
            q_eigendecomposition(wf, 0, 0.0)


class TestDeltaVector:
    def test_components_are_shifted_samples(self):
        # Component s equals the sampled spectrum at delay tau - s*T_c/r.
        wf = root_raised_cosine_waveform(0.22)
        r, omega, tau = 2, 1.3, 0.4
        vec = _delta(wf, r, omega, tau)
        assert vec.shape == (r,)
        for s in range(r):
            want = _brute_sampled_spectrum(
                wf, omega, tau - s / r)
            assert vec[s] == pytest.approx(want, abs=1e-12)

    def test_whole_chip_shift_is_pure_phase(self):
        wf = root_raised_cosine_waveform(0.3)
        omega = -0.9
        base = _delta(wf, 2, omega, 0.25)
        shifted = _delta(wf, 2, omega, 0.25 + 1.0)
        np.testing.assert_allclose(shifted, np.exp(1j * omega) * base,
                                   atol=1e-12)


def _full_exponential_deltas(waveform, r, omegas, taus):
    """Reference delay vectors: an alias table taken one alias outward at
    each end (``floor``/``ceil``), the phase evaluated on every entry,
    padding included, and the same ``einsum`` over aliases."""
    om = np.asarray(omegas, dtype=float)
    lo, hi = waveform.support
    tol = 1e-9 * max(1.0, -lo, hi)
    nus = np.arange(math.floor((lo - om.max()) / TWO_PI - 1e-9),
                    math.ceil((hi - om.min()) / TWO_PI + 1e-9) + 1)
    args = om[:, None] + TWO_PI * nus[None, :]
    inside = (args >= lo - tol) & (args <= hi + tol)
    amps = np.zeros(args.shape, dtype=complex)
    amps[inside] = np.conj(waveform.spectrum(np.clip(args[inside], lo, hi)))
    on_edge = (np.abs(args - lo) <= tol) | (np.abs(args - hi) <= tol)
    amps *= np.where(on_edge, 0.5, 1.0)
    shifts = taus[:, None] - np.arange(r)[None, :] / r
    phases = np.exp(1j * shifts[:, :, None, None] * args[None, None, :, :])
    return np.einsum("asmv,mv->ams", phases, amps)


#: A complex table that is zero at its lower end; it needs r >= 2.
_ZERO_END_TABLE = tabulated_waveform([-4.0, -1.0, 0.5, 3.0],
                                     [0.0, 1.0 + 0.5j, 0.8 - 0.3j, 0.4j])


class TestDeltaBytes:
    """The delay vectors, built from separable phases on the in-band
    aliases, against the reference that evaluates every alias's phase
    whole: within a normwise 2e-15 on each grid, the DFT bins and their
    1/2 edge weights included."""

    @staticmethod
    def _assert_close(got, want):
        gap = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert gap <= 2e-15, gap

    @pytest.mark.parametrize("extra_r", [0, 1])
    @pytest.mark.parametrize("waveform", [
        sinc_waveform(0.5), sinc_waveform(1.0), sinc_waveform(1.9),
        sinc_waveform(2.0), root_raised_cosine_waveform(0.0),
        root_raised_cosine_waveform(0.22), root_raised_cosine_waveform(1.0),
        _ZERO_END_TABLE,
    ], ids=["sinc0.5", "sinc1", "sinc1.9", "sinc2", "rrc0", "rrc0.22",
            "rrc1", "zero_end_table"])
    def test_identical_to_full_exponential(self, waveform, extra_r):
        r = waveform.min_oversampling + extra_r
        rng = np.random.default_rng(5)
        delay_sets = [np.arange(64) / 64.0, rng.uniform(0.0, 1.0, 32)]
        grids = [_midpoints(-np.pi, np.pi, m) for m in (64, 512, 1000)]
        bins = np.mod(TWO_PI * np.arange(64) / 64 + np.pi, TWO_PI) - np.pi
        for taus in delay_sets:
            for omegas in grids:
                self._assert_close(
                    _delta_components(waveform, r, omegas, taus),
                    _full_exponential_deltas(waveform, r, omegas, taus))
            self._assert_close(
                _dft_deltas(waveform, 64, r, taus),
                _full_exponential_deltas(waveform, r, bins, taus))

    def test_alias_table_keeps_only_reachable_aliases(self):
        # RRC 0.22 reaches 1.22*pi: on (-pi, pi] only nu = -1, 0, 1 can
        # land inside, and each of them does at some midpoint.
        waveform = root_raised_cosine_waveform(0.22)
        _, args, amps = _alias_table(waveform, _midpoints(-np.pi, np.pi, 512))
        assert args.shape == (512, 3)
        assert np.all(np.any(amps != 0, axis=0))


class TestQSplit:
    # delta delta^H = delay average (_delay_free_q) + zero-trace remainder.

    def test_full_is_outer_product(self):
        wf = root_raised_cosine_waveform(0.22)
        omega, tau = 0.8, 0.37
        delta = _delta(wf, 2, omega, tau)
        full = np.outer(delta, np.conj(delta))
        brute = [_brute_sampled_spectrum(wf, omega, tau - s / 2.0)
                 for s in range(2)]  # T_c = 1
        np.testing.assert_allclose(full, np.outer(brute, np.conj(brute)),
                                   atol=1e-12)
        oscillating = full - _delay_free_q(wf, 2, omega)
        assert abs(np.trace(oscillating)) <= 1e-13

    def test_delay_free_is_uniform_delay_average(self):
        # Oracle: average the rank-one matrix over a dense uniform delay
        # grid.  The average is a trigonometric polynomial in tau, so a
        # 256-point uniform grid integrates it exactly.
        wf = root_raised_cosine_waveform(0.5)
        r, omega = 2, -1.1
        taus = (np.arange(256) + 0.5) / 256
        acc = np.zeros((r, r), dtype=complex)
        for tau in taus:
            d = _delta(wf, r, omega, tau)
            acc += np.outer(d, np.conj(d))
        acc /= taus.size
        np.testing.assert_allclose(_delay_free_q(wf, r, omega), acc,
                                   atol=1e-12)

    @pytest.mark.parametrize("name", _ORACLE_PULSES)
    def test_delay_free_is_the_phase_tensor_sum(self, name):
        # B @ B^H against the (r, r, V) phase-tensor sum, normwise, at
        # frequencies that put aliases on the band edges (1/2 weight).
        wf = _ORACLE_PULSES[name]
        for r in range(wf.min_oversampling, wf.min_oversampling + 3):
            for omega in (-np.pi, -2.0, 0.0, 0.3, 1.8, np.pi):
                want = _phase_tensor_q(wf, r, omega)
                got = _delay_free_q(wf, r, omega)
                assert (np.linalg.norm(got - want)
                        <= 1e-14 * np.linalg.norm(want)), (r, omega)

    def test_delay_free_is_hermitian_psd(self):
        delay_free = _delay_free_q(sinc_waveform(2.3), 3, 0.4)
        np.testing.assert_allclose(delay_free, delay_free.conj().T,
                                   atol=1e-14)
        eigs = np.linalg.eigvalsh(delay_free)
        assert eigs.min() >= -1e-12

    def test_oscillating_part_has_structured_zero_trace(self):
        # Trace against any phase-twisted circulant matrix vanishes.
        wf = root_raised_cosine_waveform(0.22)
        r, omega = 2, 0.9
        rng = np.random.default_rng(5)
        coeff = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        twist = phase_twisted_circulant(coeff, omega)
        taus = (np.arange(128) + 0.5) / 128
        delay_free = _delay_free_q(wf, r, omega)
        acc = np.zeros((r, r), dtype=complex)
        for tau in taus:
            d = _delta(wf, r, omega, tau)
            acc += np.outer(d, np.conj(d)) - delay_free
        acc /= taus.size
        scale = np.linalg.norm(twist) * max(np.linalg.norm(acc), 1.0)
        assert abs(np.trace(twist @ acc)) <= 1e-12 * max(scale, 1.0)


class TestQEigendecomposition:
    @pytest.mark.parametrize("wf,r", [
        (sinc_waveform(1.0), 1),
        (sinc_waveform(2.4), 3),
        (root_raised_cosine_waveform(0.22), 2),
        (root_raised_cosine_waveform(1.0), 2),
    ])
    def test_reconstructs_delay_free(self, wf, r):
        for omega in (-2.0, 0.3, 1.8):
            u, d = q_eigendecomposition(wf, r, omega)
            np.testing.assert_allclose(u @ d @ u.conj().T,
                                       _delay_free_q(wf, r, omega),
                                       atol=1e-12)

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_u_is_the_phase_vector_formula(self, r):
        omega = 0.7
        x = omega + TWO_PI * np.arange(r)
        want = np.exp(-1j * np.arange(r)[:, None] * x[None, :] / r)
        u, _ = q_eigendecomposition(sinc_waveform(1.0), r, omega)
        np.testing.assert_allclose(u * math.sqrt(r), want, rtol=0,
                                   atol=1e-14)

    def test_u_is_unitary_and_d_nonnegative(self):
        u, d = q_eigendecomposition(root_raised_cosine_waveform(0.22), 2, 0.7)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
        assert np.all(np.diag(d) >= 0.0)
        assert np.count_nonzero(d - np.diag(np.diag(d))) == 0

    def test_flat_pulse_single_alias_eigenvalue(self):
        # alpha = 1 at r = 1: the only eigenvalue is the folded power
        # 1/T_c^2 * T_c * r = 1/T_c.
        u, d = q_eigendecomposition(sinc_waveform(1.0), 1, 0.4)
        assert d[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestPhaseTwistedCirculant:
    def test_entry_formula(self):
        coeff = np.array([1.0 + 0.0j, 2.0 - 1.0j, -0.5j])
        omega = 0.8
        mat = phase_twisted_circulant(coeff, omega)
        r = coeff.size
        for k in range(r):
            for ell in range(r):
                want = np.exp(1j * (k - ell) * omega / r) * coeff[(k - ell) % r]
                assert mat[k, ell] == pytest.approx(want, abs=1e-14)

    def test_closed_under_multiplication(self):
        rng = np.random.default_rng(17)
        omega = -1.3
        a = phase_twisted_circulant(rng.standard_normal(4) +
                                    1j * rng.standard_normal(4), omega)
        b = phase_twisted_circulant(rng.standard_normal(4) +
                                    1j * rng.standard_normal(4), omega)
        prod = a @ b
        # The product is again phase-twisted circulant: recover its
        # coefficients from the first column and rebuild.
        coeff = prod[:, 0] * np.exp(-1j * np.arange(4) * omega / 4)
        np.testing.assert_allclose(prod, phase_twisted_circulant(coeff, omega),
                                   atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=0.3, max_value=3.0),
    omega=st.floats(min_value=-np.pi, max_value=np.pi),
    tau=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_sampled_spectrum_brute_force(alpha, omega, tau):
    wf = sinc_waveform(alpha)
    r = wf.min_oversampling
    got = _delta(wf, r, omega, tau)[0]
    want = _brute_sampled_spectrum(wf, omega, tau)
    assert got == pytest.approx(want, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    rho=st.floats(min_value=0.0, max_value=1.0),
    omega=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_property_split_parts_sum(rho, omega):
    wf = root_raised_cosine_waveform(rho)
    delta = _delta(wf, 2, omega, 0.3)
    delay_free = _delay_free_q(wf, 2, omega)
    oscillating = np.outer(delta, np.conj(delta)) - delay_free
    assert abs(np.trace(oscillating)) <= 1e-12
    # Delay-free diagonal dominates: diagonal entries are the folded power
    # and never negative.
    assert np.all(np.real(np.diag(delay_free)) >= -1e-13)
