"""Tests for finite-system simulation: delay/pulse matrices, MMSE SINR
measurements, trial aggregation, and the delay-reduction harness.

Oracles: hand-built matrices for trivial pulses, a direct dense-inverse
SINR computation, the literal leave-one-out SINR for the one-factorization
kernel, dense delay/pulse matrices built here (block-circulant, and
block-Toeplitz for the spectral equivalence) for the FFT-formed
signatures, the
literal dense multi-symbol stack and the dense block-tridiagonal Gram
matrix for the centre-symbol elimination of the windowed kernel,
per-side Cholesky solves (scipy) for its stacked elimination steps,
dense matrices of the whole delay for the whole-chip phase ramp,
per-trial rebuilds from fresh arrays for the harness's reused work
arrays, single-worker runs for the trial threads of ``run_trials`` and
the harness, the interference-free
single-user formula, and frozen spectral distances computed once from the
deterministic constructions.
"""

import math
import os
import threading

import numpy as np
import pytest
import scipy.linalg

from cdmalimits import (
    FiniteSystem,
    PowerDelayLaw,
    SolverError,
    SystemLaw,
    equal_power_uniform_delays,
    finite_system,
    materialize,
    root_raised_cosine_waveform,
    run_trials,
    sinc_waveform,
    theorem3_harness,
    trial_seed,
    uniform_delay_grid,
)
from cdmalimits import montecarlo
from cdmalimits.montecarlo import (
    _circulant_signatures,
    _gram_sinrs,
    _mmse_sinrs,
    _split_delays,
    _summarize,
    _windowed_sinrs,
    _WindowedStack,
)

RRC = root_raised_cosine_waveform(0.22)

#: Period in chips at which the block-Toeplitz oracle wraps the pulse taps,
#: far beyond every window here.
TOEPLITZ_PERIOD = 16384
#: Taps of the block-Toeplitz oracle below this fraction of the window's
#: peak are zeroed.
TAP_THRESHOLD = 1e-6

# Toeplitz-vs-circulant singular-value distances for the 0.22 roll-off
# pulse at tau = 0.3 chips, frozen from the deterministic construction.
SPECTRAL_DISTANCE_N8 = 0.01913413013173865
SPECTRAL_DISTANCE_N16 = 0.013505574556918268
SPECTRAL_DISTANCE_N64 = 0.006751432728000252


def _dense_phi(waveform, n, r, delay, toeplitz=False):
    """Dense ``rN x N`` delay/pulse matrix of one user.

    Entry (block row m, sub-row s, column c) is the pulse tap
    ``conj(phi_t(s/r - tau + (m - c - floor(delay))))``, with ``tau`` the
    sub-chip remainder of ``delay``, wrapped at a period of chips.  The
    taps are the inverse DFT of the delay vectors on the period-point
    grid, which sums ``conj(Phi(w)) exp(-j w t)`` over every alias at
    spacing ``2*pi/period``: by Poisson summation, the time pulse folded
    onto the period.  The block-circulant kind, which the package applies
    by FFT, wraps at N chips, so a whole-chip delay shifts the blocks
    cyclically.  The block-Toeplitz kind of the asynchronous system wraps
    at ``TOEPLITZ_PERIOD`` chips, zeroes taps below ``TAP_THRESHOLD``
    times the peak of the reach and zero-fills the first ``floor(delay)``
    block rows.
    """
    if delay < 0 or not np.isfinite(delay):
        raise ValueError("delay must be finite and nonnegative")
    whole = math.floor(delay)
    tau = float(delay - whole)
    period = TOEPLITZ_PERIOD if toeplitz else n
    deltas = montecarlo._dft_deltas(waveform, period, r, np.array([tau]))[0]
    taps = np.fft.fft(deltas, axis=0) / period  # (period, r)
    lags = np.subtract.outer(np.arange(n) - whole, np.arange(n))  # m - c
    if toeplitz:
        peak = np.max(np.abs(taps[np.arange(1 - n, n)]))
        taps[np.abs(taps) < TAP_THRESHOLD * peak] = 0.0
    blocks = taps[lags % period]
    if toeplitz:
        blocks[:whole] = 0.0
    return blocks.swapaxes(1, 2).reshape(r * n, n)


def _spectral_distance(a, b) -> float:
    """RMS distance between two spectra's quantile functions, normalized by
    the larger spectral radius (a point mass does not saturate it)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("need nonempty samples")
    scale = float(max(a.max(), b.max(), -a.min(), -b.min()))
    if scale == 0.0:
        return 0.0

    def quantiles(sample: np.ndarray, levels: np.ndarray) -> np.ndarray:
        knots = (np.arange(sample.size) + 0.5) / sample.size
        return np.interp(levels, knots, sample,
                         left=sample[0], right=sample[-1])

    n = max(a.size, b.size)
    levels = (np.arange(n) + 0.5) / n
    diff = quantiles(a, levels) - quantiles(b, levels)
    return float(np.sqrt(np.mean(diff ** 2)) / scale)


def _small_system(n=16, load=0.5, seed=7, waveform=RRC, r=2):
    sys_law = SystemLaw(load=load, noise_density=0.1, oversampling=r,
                        waveform=waveform,
                        law=equal_power_uniform_delays(8))
    return finite_system(sys_law, n, seed=seed)


class TestTrialSeed:
    def test_documented_splitting_rule(self):
        stride = 0x9E3779B97F4A7C15
        mask = (1 << 64) - 1
        for master, t in [(0, 0), (12345, 3), (2**63, 41)]:
            want = (master ^ ((t + 1) * stride & mask)) & mask
            assert trial_seed(master, t) == want

    def test_distinct_across_trials(self):
        seeds = {trial_seed(99, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_fits_in_64_bits(self):
        assert 0 <= trial_seed(2**64 - 1, 500) < 2**64


class TestFiniteSystemValidation:
    def test_properties(self):
        fs = _small_system(n=16, load=0.5)
        assert fs.noise_variance == pytest.approx(2 * 0.1)

    def test_array_length_mismatch(self):
        with pytest.raises(ValueError, match="n_users"):
            FiniteSystem(spreading_factor=8, n_users=3, oversampling=2,
                         waveform=RRC, amplitudes=np.ones(2),
                         delays=np.zeros(3), noise_density=0.1, seed=0)

    def test_delay_range(self):
        with pytest.raises(ValueError, match="T_s"):
            FiniteSystem(spreading_factor=8, n_users=1, oversampling=2,
                         waveform=RRC, amplitudes=np.ones(1),
                         delays=np.array([8.0]), noise_density=0.1, seed=0)

    def test_needs_a_chip_and_a_user(self):
        with pytest.raises(ValueError, match="one chip and one user"):
            FiniteSystem(spreading_factor=8, n_users=0, oversampling=2,
                         waveform=RRC, amplitudes=np.ones(0),
                         delays=np.zeros(0), noise_density=0.1, seed=0)

    @pytest.mark.parametrize("noise_density", [-0.1, 0.0, np.nan, np.inf])
    def test_noise_density_must_be_finite_and_positive(self, noise_density):
        with pytest.raises(ValueError, match="finite and positive"):
            FiniteSystem(spreading_factor=8, n_users=1, oversampling=2,
                         waveform=RRC, amplitudes=np.ones(1),
                         delays=np.zeros(1), noise_density=noise_density,
                         seed=0)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, complex(1, np.nan)])
    def test_non_finite_amplitude_rejected(self, amplitude):
        # Invalid input is rejected here, not reported by each trial's
        # factorization as "not positive definite".
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            FiniteSystem(spreading_factor=8, n_users=2, oversampling=2,
                         waveform=RRC, amplitudes=np.array([1.0, amplitude]),
                         delays=np.zeros(2), noise_density=0.1, seed=0)

    def test_keeps_read_only_copies_of_the_callers_arrays(self):
        amplitudes, delays = np.ones(2, dtype=complex), np.array([0.0, 1.5])
        fs = FiniteSystem(spreading_factor=8, n_users=2, oversampling=2,
                          waveform=RRC, amplitudes=amplitudes, delays=delays,
                          noise_density=0.1, seed=0)
        amplitudes += 1.0
        delays += 1.0
        assert fs.amplitudes.tolist() == [1.0, 1.0]
        assert fs.delays.tolist() == [0.0, 1.5]
        with pytest.raises(ValueError, match="read-only"):
            fs.delays[0] = 2.0

    def test_nan_delay_rejected(self):
        with pytest.raises(ValueError, match="T_s"):
            FiniteSystem(spreading_factor=8, n_users=2, oversampling=2,
                         waveform=RRC, amplitudes=np.ones(2),
                         delays=np.array([0.0, np.nan]), noise_density=0.1,
                         seed=0)


class TestFiniteSystemFactory:
    def test_user_count_rounds_load(self):
        assert _small_system(n=16, load=0.5).n_users == 8
        assert _small_system(n=10, load=0.26).n_users == 3

    def test_delays_sorted_with_zero_first(self):
        fs = _small_system(n=32, load=1.0)
        assert fs.delays[0] == 0.0
        assert np.all(np.diff(fs.delays) >= 0.0)

    def test_amplitudes_are_root_powers(self):
        sys_law = SystemLaw(load=1.0, noise_density=0.1, oversampling=2,
                            waveform=RRC,
                            law=PowerDelayLaw(
                                np.repeat([1.0, 4.0], 4),
                                np.tile(uniform_delay_grid(4), 2),
                                np.full(8, 1.0 / 8.0)))
        fs = finite_system(sys_law, 8, seed=0)
        assert set(np.round(np.abs(fs.amplitudes) ** 2, 12)) == {1.0, 4.0}

    def test_zero_user_load_rejected(self):
        sys_law = SystemLaw(load=0.01, noise_density=0.1, oversampling=2,
                            waveform=RRC, law=equal_power_uniform_delays(4))
        with pytest.raises(ValueError, match="load too small"):
            finite_system(sys_law, 8, seed=0)


class TestCirculantPhi:
    def test_shape(self):
        phi = _dense_phi(RRC, 8, 2, 0.4)
        assert phi.shape == (16, 8)

    def test_flat_pulse_zero_delay_is_identity(self):
        phi = _dense_phi(sinc_waveform(1.0), 8, 1, 0.0)
        np.testing.assert_allclose(phi, np.eye(8), atol=1e-12)

    def test_root_nyquist_singular_values_are_flat(self):
        # Folding a root-Nyquist pulse at the chip rate is constant, so
        # every singular value equals sqrt(r) exactly.
        for tau in (0.0, 0.3, 0.77):
            phi = _dense_phi(RRC, 8, 2, tau)
            sv = np.linalg.svd(phi, compute_uv=False)
            np.testing.assert_allclose(sv, math.sqrt(2.0), atol=1e-10)

    def test_one_chip_delay_is_one_block_cyclic_shift(self):
        for tau in (0.0, 0.45):
            base = _dense_phi(RRC, 8, 2, tau)
            shifted = _dense_phi(RRC, 8, 2, tau + 1.0)
            np.testing.assert_allclose(shifted, np.roll(base, 2, axis=0),
                                       atol=1e-12)

    def test_columns_are_block_rotations(self):
        phi = _dense_phi(RRC, 8, 2, 0.3)
        for col in range(1, 8):
            np.testing.assert_allclose(phi[:, col],
                                       np.roll(phi[:, 0], col * 2),
                                       atol=1e-12)

    def test_full_symbol_delay_wraps_around(self):
        base = _dense_phi(RRC, 8, 2, 0.2)
        wrapped = _dense_phi(RRC, 8, 2, 0.2 + 8.0)
        np.testing.assert_allclose(wrapped, base, atol=1e-12)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            _dense_phi(RRC, 8, 2, -0.1)


class TestToeplitzPhi:
    def test_flat_pulse_integer_samples_are_exact(self):
        # At zero delay the flat pulse samples to the identity: shifted
        # copies are exactly orthonormal.
        phi = _dense_phi(sinc_waveform(1.0), 16, 1, 0.0, toeplitz=True)
        np.testing.assert_allclose(phi, np.eye(16), atol=1e-9)

    def test_taps_match_closed_form_rrc_pulse(self):
        # Entry (m, s, c) is the pulse at s/r - tau + (m - c) chips; tau = 0
        # also lands on the closed form's limits (t = 0, and t = 1/2 for
        # rho = 0.5).
        r = 2
        for rho in (0.22, 0.5, 1.0):
            waveform = root_raised_cosine_waveform(rho)
            for n, tau in ((16, 0.3), (64, 0.77), (16, 0.0)):
                phi = _dense_phi(waveform, n, r, tau, toeplitz=True)
                blocks = np.arange(n)
                times = (np.arange(r)[None, :, None] / r - tau
                         + np.subtract.outer(blocks, blocks)[:, None, :])
                want = _rrc_pulse(times.reshape(r * n, n), rho)
                kept = phi != 0
                err = np.max(np.abs(phi - want)[kept])
                assert err <= 5e-9 * np.max(np.abs(want))

    def test_whole_chip_shift_zero_fills(self):
        base = _dense_phi(RRC, 8, 2, 0.25, toeplitz=True)
        shifted = _dense_phi(RRC, 8, 2, 2.25, toeplitz=True)
        np.testing.assert_allclose(shifted[:4, :], 0.0, atol=0.0)
        np.testing.assert_allclose(shifted[4:, :], base[:-4, :], atol=1e-12)

    def test_finite_section_spectrum_near_circulant(self):
        t = np.linalg.svd(_dense_phi(RRC, 8, 2, 0.3, toeplitz=True),
                          compute_uv=False)
        c = np.linalg.svd(_dense_phi(RRC, 8, 2, 0.3),
                          compute_uv=False)
        dist = _spectral_distance(t, c)
        assert dist <= 0.05
        assert dist == pytest.approx(SPECTRAL_DISTANCE_N8, abs=1e-12)

    def test_spectral_distance_halves_with_size(self):
        dists = {}
        for n in (16, 64):
            t = np.linalg.svd(_dense_phi(RRC, n, 2, 0.3, toeplitz=True),
                              compute_uv=False)
            c = np.linalg.svd(_dense_phi(RRC, n, 2, 0.3),
                              compute_uv=False)
            dists[n] = _spectral_distance(t, c)
        assert dists[16] == pytest.approx(SPECTRAL_DISTANCE_N16, abs=1e-12)
        assert dists[64] == pytest.approx(SPECTRAL_DISTANCE_N64, abs=1e-12)
        assert 1.8 <= dists[16] / dists[64] <= 2.2


def _rrc_pulse(t, rho):
    """Closed-form unit-energy RRC impulse response, time in chips, with
    its limits at ``t = 0`` and ``t = +-1/(4 rho)``."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    centre = np.abs(t) < 1e-12
    edge = np.abs(np.abs(t) - 1.0 / (4.0 * rho)) < 1e-12
    rest = ~(centre | edge)
    x = t[rest]
    out[rest] = ((np.sin(np.pi * x * (1.0 - rho))
                  + 4.0 * rho * x * np.cos(np.pi * x * (1.0 + rho)))
                 / (np.pi * x * (1.0 - (4.0 * rho * x) ** 2)))
    out[centre] = 1.0 - rho + 4.0 * rho / np.pi
    angle = np.pi / (4.0 * rho)
    out[edge] = rho / math.sqrt(2.0) * ((1.0 + 2.0 / np.pi) * np.sin(angle)
                                        + (1.0 - 2.0 / np.pi) * np.cos(angle))
    return out


class TestSpectralDistance:
    def test_identical_samples(self):
        assert _spectral_distance([1.0, 2.0], [2.0, 1.0]) == 0.0

    def test_constant_offset_oracle(self):
        # Quantile difference is uniformly eps; RMS = eps, scale = 1+eps.
        eps = 0.5
        got = _spectral_distance([1.0, 1.0], [1.0 + eps, 1.0 + eps])
        assert got == pytest.approx(eps / (1.0 + eps), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(1, 2, 20), rng.uniform(1, 2, 30)
        d1 = _spectral_distance(a, b)
        d2 = _spectral_distance(7.0 * a, 7.0 * b)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_all_zero_samples(self):
        assert _spectral_distance([0.0, 0.0], [0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            _spectral_distance([], [1.0])


class TestMaterialize:
    def test_deterministic_in_seed(self):
        fs = _small_system()
        a = materialize(fs)
        b = materialize(fs)
        np.testing.assert_array_equal(a.signatures, b.signatures)
        c = materialize(fs, seed=fs.seed + 1)
        assert not np.array_equal(a.signatures, c.signatures)

    def test_records_used_seed(self):
        fs = _small_system(seed=7)
        assert materialize(fs, seed=123).seed == 123
        assert materialize(fs).seed == 7

    def test_spreading_normalization(self):
        # Column energy concentrates near amplitude^2 * sv^2 scale; check
        # the empirical per-entry variance of the spreading instead, via
        # a flat pulse where signatures equal the spreading itself.
        sys_law = SystemLaw(load=4.0, noise_density=0.1, oversampling=1,
                            waveform=sinc_waveform(1.0),
                            law=equal_power_uniform_delays(1))
        fs = finite_system(sys_law, 64, seed=11)
        drawn = materialize(fs)
        energy = np.mean(np.abs(drawn.signatures) ** 2) * 64
        assert energy == pytest.approx(1.0, rel=0.02)


class TestCirculantSignatures:
    @pytest.mark.parametrize("waveform, r", [(sinc_waveform(1.0), 1),
                                             (RRC, 2)])
    def test_match_dense_phi_columns(self, waveform, r):
        # Delays of several whole chips exercise the block roll; the
        # amplitudes differ in modulus and phase.
        n = 16
        delays = np.array([0.0, 0.3, 2.0, 3.7, 6.45, 9.25, 12.0, 15.5])
        amplitudes = np.exp(1j * np.arange(8)) * np.linspace(0.5, 2.0, 8)
        fs = FiniteSystem(spreading_factor=n, n_users=8, oversampling=r,
                          waveform=waveform, amplitudes=amplitudes,
                          delays=delays, noise_density=0.1, seed=0)
        got = materialize(fs, seed=21).signatures
        rng = np.random.Generator(np.random.PCG64(21))
        draws = rng.standard_normal((2, n, 8))
        spreading = (draws[0] + 1j * draws[1]) / math.sqrt(2.0 * n)
        want = np.stack([
            amplitudes[k] * (_dense_phi(waveform, n, r, delays[k])
                             @ spreading[:, k]) for k in range(8)], axis=1)
        assert got.shape == (r * n, 8)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("waveform, r", [(sinc_waveform(1.0), 1),
                                             (RRC, 2)])
    def test_phase_ramp_rolls_by_whole_chips(self, waveform, r):
        # One user per whole-chip shift 0 .. N-1, each with its own
        # sub-chip remainder.  The dense matrix of the whole delay rolls
        # its blocks by the whole chips.
        n = 16
        whole = np.arange(n)
        delays = whole + np.linspace(0.0, 0.95, n)
        got_whole, _, ramped = _split_delays(waveform, n, r, delays)
        assert got_whole.tolist() == whole.tolist()
        spreading = _gaussian_columns(n, n, seed=4)
        got = _fft_signatures(ramped, spreading)
        want = np.stack([_dense_phi(waveform, n, r, delays[k])
                         @ spreading[:, k] for k in whole], axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_phase_ramp_is_exactly_one_below_a_chip(self):
        n, r = 16, 2
        delays = np.linspace(0.0, 0.999, 8)
        _, deltas, ramped = _split_delays(RRC, n, r, delays)
        assert np.array_equal(ramped, deltas)
        spreading = _gaussian_columns(n, 8, seed=5)
        assert np.array_equal(_fft_signatures(ramped, spreading),
                              _fft_signatures(deltas, spreading))


def _fft_signatures(deltas, spreading):
    """``rN x K`` signatures of the ``(N, K)`` spreading columns by
    :func:`_circulant_signatures`, from fresh arrays."""
    n, n_users = spreading.shape
    r = deltas.shape[1]
    blocks = np.empty((n_users, r, n), dtype=complex)
    _circulant_signatures(deltas, np.fft.ifft(spreading.T, axis=-1), blocks)
    return blocks.transpose(2, 1, 0).reshape(r * n, n_users)


def _leave_one_out(h, noise_variance):
    """Literal ``h_k^H (H_k H_k^H + sigma^2 I)^{-1} h_k`` for every column."""
    out = np.empty(h.shape[1])
    for k in range(h.shape[1]):
        others = np.delete(h, k, axis=1)
        cov = others @ others.conj().T + noise_variance * np.eye(h.shape[0])
        out[k] = np.real(h[:, k].conj() @ np.linalg.solve(cov, h[:, k]))
    return out


def _gaussian_columns(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, cols)) +
            1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0 * rows)


class TestSinrKernel:
    def test_fewer_users_than_rows(self):
        h = materialize(_small_system(n=16, load=0.5)).signatures
        assert h.shape == (32, 8)
        np.testing.assert_allclose(_mmse_sinrs(h, 0.05),
                                   _leave_one_out(h, 0.05), rtol=1e-12)

    def test_more_users_than_rows(self):
        h = _gaussian_columns(16, 40, seed=3)
        np.testing.assert_allclose(_mmse_sinrs(h, 0.05),
                                   _leave_one_out(h, 0.05), rtol=1e-12)

    def test_high_sinr_stays_accurate(self):
        # At sigma^2 = 2e-9 the SINRs exceed 1e8.  The K x K diagonal
        # identity agrees with the literal formula to 2.6e-8, about the
        # literal formula's own float64 error; the row-side u / (1 - u)
        # differs by 1.9e-7 through cancellation in 1 - u.
        h = materialize(_small_system(n=16, load=0.5)).signatures
        want = _leave_one_out(h, 2e-9)
        assert np.min(want) > 1e8
        np.testing.assert_allclose(_mmse_sinrs(h, 2e-9), want, rtol=1e-7)


class TestPositiveDefiniteGuards:
    @pytest.mark.parametrize("matrix", [
        [[1.0, 2.0], [2.0, 1.0]],  # eigenvalues 3 and -1
        [[0.0, 0.0], [0.0, 0.0]],  # LAPACK reports it singular
    ], ids=["indefinite", "singular"])
    def test_gram_side_rejects_non_pd(self, matrix):
        regularized = np.array(matrix, dtype=complex)
        with pytest.raises(SolverError,
                           match="not positive definite"):
            _gram_sinrs(regularized, 0.1)

    @pytest.mark.parametrize("noise_variance", [-3.0, -1.0],
                             ids=["u_negative", "u_one"])
    def test_row_side_rejects_non_pd(self, noise_variance):
        # Two unit columns in one row: H H^H + sigma^2 I = 2 + sigma^2,
        # so u = 1 / (2 + sigma^2) is -1 at sigma^2 = -3 and 1 at -1,
        # both outside the [0, 1) that a positive-definite side keeps.
        h = np.ones((1, 2), dtype=complex)
        with pytest.raises(SolverError,
                           match="not positive definite"):
            _mmse_sinrs(h, noise_variance)


def _record_linalg(monkeypatch):
    """Record every ``numpy.linalg.solve``/``inv`` call as
    ``(name, matrix, *other arguments, result)``."""
    calls = []
    for name in ("solve", "inv"):
        def recording(*args, _name=name, _routine=getattr(np.linalg, name)):
            result = _routine(*args)
            calls.append((_name, *args, result))
            return result
        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def _stack_size(matrix):
    return int(np.prod(matrix.shape[:-2], dtype=int))


def _windowed_case(n, window, n_users, seed):
    """Random windowed-system inputs for an ``N = n`` RRC 0.22 system.

    Returns ``(delays, amplitudes, spreading)``; the delays (in chips)
    include 0, ``N - 1`` and 0.999.
    """
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0.0, n, n_users)
    delays[:3] = [0.0, n - 1, 0.999]
    amplitudes = rng.uniform(0.5, 2.0, n_users) * np.exp(
        2j * np.pi * rng.uniform(size=n_users))
    shape = (n, n_users, 2 * window + 1)
    spreading = (rng.standard_normal(shape) +
                 1j * rng.standard_normal(shape)) / math.sqrt(2.0 * n)
    return delays, amplitudes, spreading


def _dense_signatures(n, r, delays, amplitudes, spreading):
    """``(K, 2M+1, rN)`` signatures from dense block-circulant delay/pulse
    matrices: user ``k``'s columns are ``amp_k * Phi(delay_k) s``."""
    return np.stack([
        amplitudes[k] * (_dense_phi(RRC, n, r, delay)
                         @ spreading[:, k]).T
        for k, delay in enumerate(delays)])


def _windowed_signatures(n, r, delays, amplitudes, spreading):
    """``(signatures, row_shifts)`` as :func:`_dense_windowed_sinrs` takes
    them: the unrotated ``(K, 2M+1, rN)`` signatures, built at the
    sub-chip delays, and each user's whole chips in rows."""
    whole = np.floor(delays).astype(int)
    return (_dense_signatures(n, r, delays - whole, amplitudes, spreading),
            whole * r)


def _windowed_inputs(n, r, delays, amplitudes, spreading):
    """Fresh work arrays as :func:`_windowed_sinrs` takes them: the
    signatures rotated by their whole chips, as the dense matrix of the
    whole delay rolls them, laid out ``(2M+1, K, r, N)`` and written into
    ``top`` of a new stack."""
    signatures = _dense_signatures(n, r, delays, amplitudes, spreading)
    n_users, n_symbols = signatures.shape[:2]
    stack = _WindowedStack(np.floor(delays).astype(int), n_symbols, r, n)
    stack.top[...] = signatures.reshape(n_users, n_symbols, n,
                                        r).transpose(1, 0, 3, 2)
    return stack


def _dense_windowed_sinrs(signatures, row_shifts, noise_variance):
    """Centre-symbol SINRs from the whole windowed Gram matrix.

    Assembles the ``(2M+1)K``-side ``H^H H + sigma^2 I`` of the stack
    block-tridiagonally from its ``2rN x K`` local blocks and solves it
    densely for the centre symbol's diagonal of the inverse.
    """
    n_users, n_symbols, rn = signatures.shape
    local = np.zeros((n_symbols, 2 * rn, n_users), dtype=complex)
    rows = row_shifts[:, None] + np.arange(rn)[None, :]
    local[:, rows, np.arange(n_users)[:, None]] = signatures.swapaxes(0, 1)
    local_h = local.conj().swapaxes(1, 2)
    upper = local_h[:-1, :, rn:] @ local[1:, :rn]
    gram = np.zeros((n_symbols, n_users, n_symbols, n_users), dtype=complex)
    m = np.arange(n_symbols)
    gram[m, :, m] = local_h @ local
    gram[m[:-1], :, m[1:]] = upper
    gram[m[1:], :, m[:-1]] = upper.conj().swapaxes(1, 2)
    size = n_symbols * n_users
    gram = gram.reshape(size, size) + noise_variance * np.eye(size)
    center = (n_symbols // 2) * n_users + np.arange(n_users)
    unit = np.eye(size)[:, center]
    diagonal = np.real(np.linalg.solve(gram, unit)[center,
                                                    np.arange(n_users)])
    return 1.0 / (noise_variance * diagonal) - 1.0


class TestWindowedSinrs:
    @pytest.mark.parametrize("window", [2, 3])
    @pytest.mark.parametrize("n_users", [4, 16, 24, 40])
    def test_match_literal_stack(self, window, n_users):
        # K = 16 = rN is the largest load on the Gram side.  K = 24
        # overloads the stack (120 or 168 columns against 96 or 128 rows).
        # K = 40 also exceeds the 2rN = 32 rows of each symbol's local
        # block, so every diagonal Gram block is singular without the
        # noise term.  Both outnumber the rN = 16 rows of one symbol, so
        # they take the row side, which must keep its accuracy down to
        # sigma^2 = 2e-9.
        n, r = 8, 2
        delays, amplitudes, spreading = _windowed_case(
            n, window, n_users, seed=10 * window + n_users)
        n_symbols = 2 * window + 1
        whole = np.floor(delays).astype(int)
        sub_delays = delays - whole

        rn = r * n
        stack = np.zeros(((n_symbols + 1) * rn, n_symbols * n_users),
                         dtype=complex)
        for m in range(n_symbols):
            for k in range(n_users):
                phi = _dense_phi(RRC, n, r, sub_delays[k])
                top = m * rn + whole[k] * r
                stack[top:top + rn, m * n_users + k] = \
                    amplitudes[k] * (phi @ spreading[:, k, m])
        center = slice(window * n_users, (window + 1) * n_users)
        cases = [(0.2, 1e-12)]
        if n_users > rn:
            cases += [(1e-4, 1e-10), (1e-6, 1e-10), (2e-9, 1e-10)]
        inputs = _windowed_inputs(n, r, delays, amplitudes, spreading)
        for noise_variance, rtol in cases:
            want = _leave_one_out(stack, noise_variance)[center]
            np.testing.assert_allclose(
                _windowed_sinrs(inputs, noise_variance), want, rtol=rtol)

    @pytest.mark.parametrize("n_users", [12, 40])
    def test_no_whole_chip_delay_decouples(self, n_users):
        # With every delay inside one chip no column reaches the next
        # symbol's rows, so the links vanish and the centre SINRs are
        # those of the centre symbol alone, the reduced system: on the
        # Gram side (K = 12) and on the row side (K = 40 > rN = 16).  At
        # sigma^2 = 1e-4 the K = 12 Gram matrix has condition number
        # 1.4e5, and both routes lie 4-5e-12 from a 40-digit evaluation.
        n, r, window = 8, 2, 3
        delays, amplitudes, spreading = _windowed_case(n, window, n_users,
                                                       seed=n_users + 1)
        delays %= 1.0
        inputs = _windowed_inputs(n, r, delays, amplitudes, spreading)
        centre = _dense_signatures(n, r, delays, amplitudes,
                                   spreading)[:, window].T
        for noise_variance, rtol in ((0.1, 1e-12), (1e-4, 1e-10)):
            np.testing.assert_allclose(
                _windowed_sinrs(inputs, noise_variance),
                _mmse_sinrs(centre, noise_variance), rtol=rtol)

    @pytest.mark.parametrize("n_users", [4, 12])
    def test_high_sinr_matches_dense_gram(self, n_users):
        # At sigma^2 = 2e-9 the centre SINRs exceed 1e6; eliminating the
        # outer symbols one K x K block at a time must keep the accuracy
        # of solving the whole Gram matrix (measured 4.6e-16 at K = 4 and
        # 8.5e-15 at K = 12).
        n, r, window, noise_variance = 8, 2, 3, 2e-9
        case = _windowed_case(n, window, n_users, seed=n_users)
        want = _dense_windowed_sinrs(*_windowed_signatures(n, r, *case),
                                     noise_variance)
        assert np.min(want) > 1e6
        np.testing.assert_allclose(
            _windowed_sinrs(_windowed_inputs(n, r, *case), noise_variance),
            want, rtol=1e-9)

    def test_factors_only_k_by_k_matrices(self, monkeypatch):
        # An overloaded window (280 columns against 128 rows, K = 40 users
        # against rN = 16 rows per symbol) must not fall back to solving
        # the (2M+1)K-side Gram matrix, nor to K x K pivots: it eliminates
        # rN x rN row blocks and solves one 2rN x 2rN centre complement.
        # A stack of two matrices counts as two.
        n, r, window, n_users = 8, 2, 3, 40
        calls = _record_linalg(monkeypatch)
        _windowed_sinrs(_windowed_inputs(
            n, r, *_windowed_case(n, window, n_users, seed=5)), 0.2)
        shapes = [shape for _, matrix, *_ in calls
                  for shape in [matrix.shape[-2:]] * _stack_size(matrix)]
        assert shapes == [(r * n, r * n)] * (2 * window) + \
            [(2 * r * n, 2 * r * n)]

    @pytest.mark.parametrize("n_users", [12, 40])
    def test_stacked_step_matches_per_side_solves(self, monkeypatch,
                                                  n_users):
        # Each elimination step solves both ends' pivots in one stacked
        # call; it must equal solving each side alone by Cholesky.  The
        # pivots and links are K x K on the Gram side (K = 12) and
        # rN x rN = 16 x 16 on the row side (K = 40).
        n, r, window = 8, 2, 3
        calls = _record_linalg(monkeypatch)
        _windowed_sinrs(_windowed_inputs(
            n, r, *_windowed_case(n, window, n_users, seed=3)), 0.2)
        steps = [call for call in calls if call[1].ndim == 3]
        assert len(steps) == window
        size = min(n_users, r * n)
        for _, pivots, sides, solved in steps:
            assert pivots.shape == (2, size, size)
            assert sides.shape == (2, size, size)
            for pivot, side, got in zip(pivots, sides, solved):
                want = scipy.linalg.cho_solve(
                    scipy.linalg.cho_factor(pivot), side)
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


class TestMmseSinr:
    def test_single_user_closed_form(self):
        # No interference: sinr = ||h||^2 / sigma^2.
        sys_law = SystemLaw(load=1.0 / 16.0, noise_density=0.1,
                            oversampling=2, waveform=RRC,
                            law=equal_power_uniform_delays(1))
        fs = materialize(finite_system(sys_law, 16, seed=5))
        sinr = _mmse_sinrs(fs.signatures, fs.noise_variance)[0]
        h = fs.signatures[:, 0]
        want = float(np.real(np.vdot(h, h))) / fs.noise_variance
        assert sinr == pytest.approx(want, rel=1e-12)

    def test_single_user_amplitude_scaling(self):
        base = materialize(_small_system(n=16, load=1.0 / 16.0))
        sinr = _mmse_sinrs(base.signatures, base.noise_variance)[0]
        assert _mmse_sinrs(2.0 * base.signatures, base.noise_variance)[0] \
            == pytest.approx(4.0 * sinr, rel=1e-12)

    def test_matches_dense_inverse_oracle(self):
        fs = materialize(_small_system(n=16, load=0.5))
        h = fs.signatures
        sinrs = _mmse_sinrs(h, fs.noise_variance)
        for k in (0, 3, 7):
            others = np.delete(h, k, axis=1)
            cov = others @ others.conj().T + \
                fs.noise_variance * np.eye(h.shape[0])
            want = float(np.real(h[:, k].conj() @
                                 np.linalg.inv(cov) @ h[:, k]))
            assert sinrs[k] == pytest.approx(want, rel=1e-10)

    def test_unitary_invariance(self):
        fs = materialize(_small_system(n=16, load=0.5))
        rng = np.random.default_rng(2)
        z = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        q, _ = np.linalg.qr(z)
        np.testing.assert_allclose(
            _mmse_sinrs(q @ fs.signatures, fs.noise_variance),
            _mmse_sinrs(fs.signatures, fs.noise_variance),
            atol=1e-10, rtol=1e-10)

    def test_column_permutation_relabels_users(self):
        fs = materialize(_small_system(n=16, load=0.5))
        perm = np.array([3, 0, 1, 7, 6, 5, 4, 2])
        original = _mmse_sinrs(fs.signatures, fs.noise_variance)[perm]
        relabeled = _mmse_sinrs(fs.signatures[:, perm], fs.noise_variance)
        np.testing.assert_allclose(relabeled, original, rtol=1e-12)


class TestRunTrials:
    def test_single_trial_reproduces_direct_call(self):
        fs = _small_system(n=16, load=0.5, seed=42)
        sinrs, summary = run_trials(fs, 1)
        # Efficiency is sinr * N0 / (power * E).
        powers = np.abs(fs.amplitudes) ** 2
        effs = sinrs[0] * fs.noise_density / (powers * fs.waveform.energy)
        assert summary.mean_efficiency == pytest.approx(np.mean(effs),
                                                        rel=1e-15)
        assert summary.mean_sinr == pytest.approx(np.mean(sinrs), rel=1e-15)

    def test_sample_ordering_and_seeds(self):
        # Row t holds the SINRs of the system drawn from trial seed t.
        fs = _small_system(n=16, load=0.25, seed=9)
        sinrs, summary = run_trials(fs, 3)
        assert sinrs.shape == (3, 4)
        for t in range(3):
            drawn = materialize(fs, trial_seed(9, t))
            assert sinrs[t].tolist() == _mmse_sinrs(
                drawn.signatures, fs.noise_variance).tolist()
        assert summary.trials == 3
        assert summary.n_users == 4

    def test_deterministic_summary(self):
        fs = _small_system(n=16, load=0.5, seed=31)
        _, a = run_trials(fs, 4)
        _, b = run_trials(fs, 4)
        assert a.mean_efficiency == b.mean_efficiency
        assert a.standard_error == b.standard_error

    def test_mean_consistency(self):
        fs = _small_system(n=16, load=0.5, seed=8)
        sinrs, summary = run_trials(fs, 5)
        powers = np.abs(fs.amplitudes) ** 2
        per_trial = (sinrs * fs.noise_density
                     / (powers * fs.waveform.energy)).mean(axis=1)
        assert summary.mean_efficiency == pytest.approx(
            float(per_trial.mean()), rel=1e-12)
        assert summary.standard_error == pytest.approx(
            float(np.std(per_trial, ddof=1)) / math.sqrt(5), rel=1e-12)
        assert summary.mean_sinr_standard_error == pytest.approx(
            float(np.std(sinrs.mean(axis=1), ddof=1)) / math.sqrt(5),
            rel=1e-12)

    def test_standard_error_shrinks_like_root_trials(self):
        # Doubling the trial count should shrink the standard error by
        # roughly 1/sqrt(2); the band is wide because 40 trials is small.
        fs = _small_system(n=16, load=0.5, seed=2)
        _, short = run_trials(fs, 40)
        _, long = run_trials(fs, 80)
        ratio = long.standard_error / short.standard_error
        assert 0.6 <= ratio <= 0.85

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="at least one trial"):
            run_trials(_small_system(), 0)

    def test_zero_power_user_rejected(self):
        # A silent user has no efficiency (0/0), and efficiency_of_user
        # says so rather than averaging a NaN.
        fs = FiniteSystem(spreading_factor=8, n_users=2, oversampling=2,
                          waveform=RRC, amplitudes=np.array([1.0, 0.0]),
                          delays=np.zeros(2), noise_density=0.1, seed=0)
        with pytest.raises(ValueError, match="zero power"):
            run_trials(fs, 2)


class TestRunInterleaved:
    """The interrupt path of ``_run_interleaved``, on two trial threads at
    most: a ``BaseException`` that is not an ``Exception`` leaves a worker
    loop, or a thread fails to start."""

    def test_interrupt_in_the_callers_trial_stops_and_joins_the_other(
            self, monkeypatch):
        # Trial 1, worker 1's first, waits until the caller joins, which
        # it does only after recording the interrupt, so worker 1 then
        # starts no further trial however the threads are scheduled.
        interrupt = KeyboardInterrupt()
        joining = threading.Event()
        join = threading.Thread.join

        def recording_join(thread, *args, **kwargs):
            joining.set()
            return join(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "join", recording_join)
        started, workers = [], set()

        def make_trial():
            workers.add(threading.current_thread())

            def trial(t):
                started.append(t)
                if t == 0:
                    raise interrupt
                assert joining.wait(timeout=60)

            return trial

        with pytest.raises(KeyboardInterrupt) as caught:
            montecarlo._run_interleaved(make_trial, 8, 2)
        assert caught.value is interrupt
        assert set(started) <= {0, 1}
        others = workers - {threading.current_thread()}
        assert len(others) == 1
        assert not any(thread.is_alive() for thread in others)

    def test_thread_that_cannot_start_propagates_after_joins(
            self, monkeypatch):
        # Workers 1 and 2 run on threads; the second start fails, as
        # threading reports a spent thread limit, before the caller's own
        # trials begin.
        failure = RuntimeError("can't start new thread")
        start, join = threading.Thread.start, threading.Thread.join
        starts, joined = [], []

        def failing_start(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise failure
            start(thread)

        def recording_join(thread, *args, **kwargs):
            joined.append(thread)
            return join(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "start", failing_start)
        monkeypatch.setattr(threading.Thread, "join", recording_join)
        started = []

        def make_trial():
            return started.append

        with pytest.raises(RuntimeError) as caught:
            montecarlo._run_interleaved(make_trial, 9, 3)
        assert caught.value is failure
        assert joined == starts[:1]
        assert not starts[0].is_alive()
        assert 0 not in started
        assert set(started) <= {1, 4, 7}


def _harness_entry(n_users):
    """``theorem3_harness`` at N = 8, r = 2, window 2, returning both
    summaries: Gram side at K = 6, the overloaded row side at K = 24 >
    rN = 16."""
    delays, _, _ = _windowed_case(8, 2, n_users, seed=n_users)

    def entry(trials, seed):
        paired = theorem3_harness(RRC, 8, 2, n_users, delays, 1e-3,
                                  window=2, trials=trials, seed=seed)
        return vars(paired.windowed), vars(paired.reduced)

    return entry


def _run_trials_entry():
    """``run_trials`` of an N = 8, K = 4 system, returning its SINRs and
    summary."""
    def entry(trials, seed):
        sinrs, summary = run_trials(
            _small_system(n=8, load=0.5, seed=seed), trials)
        return sinrs.tolist(), vars(summary)

    return entry


#: Both entry points that deal trials to worker threads, by test id.
_TRIAL_ENTRIES = {
    "6": _harness_entry(6),
    "24": _harness_entry(24),
    "block_circulant": _run_trials_entry(),
}


class TestTheorem3Harness:
    def test_whole_chip_delays_reduce_to_synchronous(self):
        # Delays at exact chip multiples leave zero sub-chip residue, so
        # the reduced system is bit-identical to an all-zero-delay run.
        delays = np.array([0.0, 3.0, 5.0, 8.0, 11.0, 14.0])
        paired = theorem3_harness(RRC, 16, 2, 6, delays, 0.1,
                                  window=2, trials=6, seed=3)
        zeroed = theorem3_harness(RRC, 16, 2, 6, np.zeros(6), 0.1,
                                  window=2, trials=6, seed=3)
        assert paired.reduced.mean_sinr == zeroed.reduced.mean_sinr
        assert paired.reduced.mean_efficiency == \
            zeroed.reduced.mean_efficiency

    def test_windowed_and_reduced_agree_within_noise(self):
        rng = np.random.default_rng(14)
        delays = rng.uniform(0.0, 16.0, 8)
        paired = theorem3_harness(RRC, 16, 2, 8, delays, 0.1,
                                  window=2, trials=12, seed=14)
        gap = abs(paired.windowed.mean_sinr - paired.reduced.mean_sinr)
        width = math.hypot(paired.windowed.mean_sinr_standard_error,
                           paired.reduced.mean_sinr_standard_error)
        assert gap <= 2.0 * width

    def test_overloaded_gap_shrinks_with_n(self):
        # With users outnumbering the rN rows of one symbol (K = 4N) the
        # windowed SINR sits tens of standard errors above the reduced
        # one.  The gap is a finite-size effect: from N = 32 to N = 64 it
        # shrank by 0.595, 0.595 and 0.605 at seeds 7, 11 and 23.
        gaps = []
        for n in (32, 64):
            delays = np.random.Generator(np.random.PCG64(7)).uniform(
                0.0, n, 4 * n)
            paired = theorem3_harness(RRC, n, 2, 4 * n, delays, 0.1,
                                      window=3, trials=6, seed=7)
            gaps.append(paired.windowed.mean_sinr - paired.reduced.mean_sinr)
        assert gaps[0] > 0.0
        assert gaps[1] <= 0.75 * gaps[0]

    @pytest.mark.parametrize("n_users", [6, 24])
    def test_trials_reusing_arrays_match_fresh_reference(self, monkeypatch,
                                                         n_users):
        # Each worker writes its trials into arrays made once per call.
        # Rebuild each trial from fresh arrays instead: the same draws, the
        # dense-matrix signatures scattered into the dense windowed Gram
        # matrix, and the reduced system's MMSE solve of its FFT
        # signatures, which match the dense ones.  K = 24 overloads each
        # symbol's rN = 16 rows.  With three workers the five trials split
        # 2, 2 and 1.
        n, r, window, noise_density, seed, trials = 8, 2, 2, 0.1, 11, 5
        delays, _, _ = _windowed_case(n, window, n_users, seed=n_users)
        _, sub_deltas, _ = _split_delays(RRC, n, r, delays)
        sigma2 = r * noise_density
        n_symbols = 2 * window + 1
        win = np.empty((trials, n_users))
        red = np.empty((trials, n_users))
        for t in range(trials):
            rng = np.random.Generator(np.random.PCG64(trial_seed(seed, t)))
            draws = rng.standard_normal((2, n, n_users, n_symbols))
            spreading = (draws[0] + 1j * draws[1]) / math.sqrt(2.0 * n)
            signatures, row_shifts = _windowed_signatures(
                n, r, delays, np.ones(n_users), spreading)
            win[t] = _dense_windowed_sinrs(signatures, row_shifts, sigma2)
            centre = _fft_signatures(sub_deltas, spreading[:, :, window])
            assert np.max(np.abs(centre - signatures[:, window].T)) <= \
                1e-12 * np.max(np.abs(centre))
            red[t] = _mmse_sinrs(centre, sigma2)
        scale = noise_density / RRC.energy
        windowed = _summarize(win, win * scale)
        for workers in (1, 3):
            monkeypatch.setattr(montecarlo, "_trial_workers",
                                lambda _, w=workers: w)
            paired = theorem3_harness(RRC, n, r, n_users, delays,
                                      noise_density, window=window,
                                      trials=trials, seed=seed)
            for field in ("mean_sinr", "mean_efficiency", "standard_error",
                          "mean_sinr_standard_error"):
                assert getattr(paired.windowed, field) == pytest.approx(
                    getattr(windowed, field), rel=1e-12)
            assert vars(paired.reduced) == vars(_summarize(red, red * scale))

    @pytest.mark.parametrize("entry", _TRIAL_ENTRIES.values(),
                             ids=_TRIAL_ENTRIES.keys())
    def test_summaries_do_not_depend_on_worker_count(self, monkeypatch,
                                                     entry):
        # Trial t draws from its own seed into its worker's arrays, and the
        # results are taken after every worker has joined, so one, two
        # and three workers give the same bits.
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "_trial_workers",
                                lambda _, w=workers: w)
            results.append(entry(trials=7, seed=4))
        assert results[1] == results[0]
        assert results[2] == results[0]

    @pytest.mark.parametrize("entry", _TRIAL_ENTRIES.values(),
                             ids=_TRIAL_ENTRIES.keys())
    def test_each_worker_draws_into_its_own_arrays(self, monkeypatch, entry):
        # Draw arrays shared by the workers race, but the summaries above
        # need the race to land inside a trial to show it.  Record the
        # arrays each thread draws into instead.  The records keep every
        # array alive, so no id is reused.
        draw = montecarlo._draw_spreading
        calls = []

        def recording(seed, draws, spreading):
            calls.append((threading.current_thread(), draws, spreading))
            return draw(seed, draws, spreading)

        monkeypatch.setattr(montecarlo, "_draw_spreading", recording)
        monkeypatch.setattr(montecarlo, "_trial_workers", lambda _: 3)
        entry(trials=7, seed=4)
        writers: dict[int, set] = {}
        for thread, *arrays in calls:
            for array in arrays:
                writers.setdefault(id(array), set()).add(thread)
        assert all(len(threads) == 1 for threads in writers.values())
        assert len({thread for thread, *_ in calls}) == 3

    @pytest.mark.parametrize("entry, failing", [
        pytest.param(_TRIAL_ENTRIES["6"], 0, id="0"),
        pytest.param(_TRIAL_ENTRIES["6"], 1, id="1"),
        pytest.param(_TRIAL_ENTRIES["block_circulant"], 0, id="run_trials-0"),
        pytest.param(_TRIAL_ENTRIES["block_circulant"], 1, id="run_trials-1"),
    ])
    def test_trial_error_reaches_caller_and_joins_threads(self, monkeypatch,
                                                          entry, failing):
        # Trial 0 runs in the caller's thread and trial 1 in the second
        # worker's.  Either one's error must reach the caller as raised,
        # with no worker thread left running.
        error = SolverError("not positive definite")
        seeds = montecarlo.trial_seed

        def failing_seed(master, trial):
            if trial == failing:
                raise error
            return seeds(master, trial)

        monkeypatch.setattr(montecarlo, "trial_seed", failing_seed)
        monkeypatch.setattr(montecarlo, "_trial_workers", lambda _: 2)
        before = threading.active_count()
        with pytest.raises(SolverError) as caught:
            entry(trials=6, seed=0)
        assert caught.value is error
        assert threading.active_count() == before

    def test_worker_count_needs_one_blas_thread(self, monkeypatch):
        # Trial threads only run while OpenBLAS is pinned to one thread:
        # OPENBLAS_NUM_THREADS decides when set, else OMP_NUM_THREADS.
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: set(range(8)),
                            raising=False)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert montecarlo._trial_workers(100) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert montecarlo._trial_workers(100) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert montecarlo._trial_workers(100) == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        assert montecarlo._trial_workers(100) == 8

    def test_pinned_worker_count_is_usable_cpus_up_to_trials(self,
                                                             monkeypatch):
        # The CPU counts are faked; no thread is started.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 2, 5},
                            raising=False)
        assert [montecarlo._trial_workers(t) for t in (1, 2, 3, 100)] == \
            [1, 2, 3, 3]
        # Without affinity masks the CPU count serves.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert [montecarlo._trial_workers(t) for t in (3, 100)] == [3, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._trial_workers(100) == 1

    def test_callers_delays_stay_writeable(self):
        delays = np.arange(4) / 4.0
        theorem3_harness(RRC, 8, 2, 4, delays, 0.1, window=2, trials=1)
        delays += 1.0
        assert delays.tolist() == [1.0, 1.25, 1.5, 1.75]

    def test_summary_shapes(self):
        paired = theorem3_harness(RRC, 8, 2, 4, np.zeros(4), 0.1,
                                  window=2, trials=2, seed=0)
        assert paired.windowed.trials == 2
        assert paired.windowed.n_users == 4
        assert (paired.reduced.trials, paired.reduced.n_users) == (2, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            theorem3_harness(RRC, 8, 2, 2, np.zeros(2), 0.1, window=1)
        with pytest.raises(ValueError, match="length"):
            theorem3_harness(RRC, 8, 2, 2, np.zeros(3), 0.1)
        with pytest.raises(ValueError, match="T_s"):
            theorem3_harness(RRC, 8, 2, 2, np.array([0.0, 9.0]), 0.1)
        with pytest.raises(ValueError, match="T_s"):
            theorem3_harness(RRC, 8, 2, 2, np.array([0.0, np.nan]), 0.1)
        with pytest.raises(ValueError, match="trial"):
            theorem3_harness(RRC, 8, 2, 2, np.zeros(2), 0.1, trials=0)
        with pytest.raises(ValueError, match="one chip and one user"):
            theorem3_harness(RRC, 8, 2, 0, np.zeros(0), 0.1)
        for noise_density in (-0.1, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                theorem3_harness(RRC, 16, 2, 8, np.zeros(8), noise_density)

    def test_undersampled_rejected(self):
        # RRC 0.22 occupies 1.22 cycles per chip, so r = 1 cannot hold it.
        with pytest.raises(ValueError,
                           match="undersampled configuration"):
            theorem3_harness(RRC, 8, 1, 2, np.zeros(2), 0.1, trials=1)
