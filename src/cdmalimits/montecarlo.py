"""Exact finite-size Monte Carlo validation of the asymptotic formulas.

Builds the ``rN x N`` delay/pulse matrices, block-circulant by default
and block-Toeplitz to demonstrate their spectral equivalence: both hold
the same pulse taps, the inverse DFT of the delay vectors, wrapped at N
chips for the circulant kind and at 16384 chips for the Toeplitz kind.
It draws i.i.d. circularly symmetric Gaussian spreading, forms the
signatures (by FFT for the block-circulant kind, so no circulant matrix
is built, with the delay vectors computed once per run and each delay's
whole chips folded into them as a DFT phase ramp), computes all users'
linear MMSE SINRs from one dense solve of the smaller Gram matrix, and
runs the paired windowed / reduced-delay harness showing that only
delays modulo one chip matter.  The harness takes each symbol's local
block of its windowed multi-symbol stack as the ramp-rotated FFT
signatures masked at their whole-chip shifts, assembles the Gram blocks
of the side with the smaller ones block-tridiagonally and eliminates
them toward the centre symbol, without forming the stack, its full Gram
matrix or any delay/pulse matrix.  Its trials are dealt round-robin to
one thread per usable CPU while OpenBLAS is pinned to one thread, and
each worker reuses one set of work arrays.

Time is measured in chips: a delay of ``d`` is ``floor(d)`` whole chips
plus a sub-chip remainder, and a symbol lasts ``N`` chips.

Reproducibility: every random quantity flows from one 64-bit master seed;
trial ``t`` uses ``master XOR ((t+1) * 0x9E3779B97F4A7C15 mod 2^64)`` as
its own generator seed, so no result depends on which thread ran a trial.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .large_system import SystemLaw
from .numerics import NotPositiveDefiniteError
from .waveforms import (
    ChipWaveform,
    _check_oversampling,
    _delta_components,
)

TWO_PI = 2.0 * np.pi
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Amplitude threshold (relative to the peak) below which time-pulse taps
#: are zeroed in the block-Toeplitz construction.
_TAP_THRESHOLD = 1e-6
#: Largest tolerated fraction of pulse energy outside the N-chip reach.
_ENERGY_TOLERANCE = 1e-4
#: Period in chips at which the block-Toeplitz kind wraps the pulse taps.
_TOEPLITZ_PERIOD = 16384


class PulseTooLongError(ValueError):
    """Raised when a time pulse cannot fit the block-Toeplitz window."""


def trial_seed(master_seed: int, trial: int) -> int:
    """Derive the per-trial generator seed from the master seed."""
    return (int(master_seed) ^ ((trial + 1) * _SEED_STRIDE & _MASK64)) \
        & _MASK64


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """One finite-size asynchronous CDMA instance.

    ``delays`` are in chips and lie in one symbol, ``[0, N)``.
    ``signatures`` is the materialized ``rN x K`` matrix whose column ``k``
    is ``amplitude_k * Phi_k @ s_k`` (delay/pulse matrix times the user's
    spreading sequence); it is ``None`` until :func:`materialize` draws the
    spreading.
    """

    spreading_factor: int
    n_users: int
    oversampling: int
    waveform: ChipWaveform
    amplitudes: np.ndarray
    delays: np.ndarray
    noise_density: float
    seed: int
    matrix_kind: str = "block_circulant"
    signatures: np.ndarray | None = None

    def __post_init__(self):
        if self.spreading_factor < 1 or self.n_users < 1:
            raise ValueError("system needs at least one chip and one user")
        if self.matrix_kind not in ("block_circulant", "block_toeplitz"):
            raise ValueError(f"unknown matrix kind {self.matrix_kind!r}")
        _check_oversampling(self.waveform, self.oversampling)
        amplitudes = np.asarray(self.amplitudes, dtype=complex)
        delays = np.asarray(self.delays, dtype=float)
        if amplitudes.shape != (self.n_users,) or \
                delays.shape != (self.n_users,):
            raise ValueError("per-user arrays must have length n_users")
        if not np.all((delays >= 0) & (delays < self.spreading_factor)):
            raise ValueError("delays must lie in [0, T_s)")
        amplitudes.setflags(write=False)
        delays.setflags(write=False)
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "delays", delays)

    @property
    def noise_variance(self) -> float:
        return self.oversampling * self.noise_density


def finite_system(sys: SystemLaw, spreading_factor: int, seed: int,
                  matrix_kind: str = "block_circulant") -> FiniteSystem:
    """Sample a finite instance of an asymptotic system description.

    ``K = round(load * N)`` users take their (power, delay) pairs from the
    law's atoms round-robin, then get sorted by delay so the chip-
    asynchronous ordering convention holds whenever the law contains a
    zero-delay atom (the default uniform grids do).
    """
    n_users = int(round(sys.load * spreading_factor))
    if n_users < 1:
        raise ValueError("load too small: no users at this spreading factor")
    atoms = np.arange(n_users) % sys.law.n_atoms
    powers = sys.law.powers[atoms]
    delays = sys.law.delays[atoms]
    order = np.argsort(delays, kind="stable")
    return FiniteSystem(
        spreading_factor=spreading_factor,
        n_users=n_users,
        oversampling=sys.oversampling,
        waveform=sys.waveform,
        amplitudes=np.sqrt(powers[order]).astype(complex),
        delays=delays[order],
        noise_density=sys.noise_density,
        seed=int(seed),
        matrix_kind=matrix_kind,
    )


# ---------------------------------------------------------------------------
# Delay/pulse matrices
# ---------------------------------------------------------------------------

def _dft_deltas(waveform: ChipWaveform, n: int, r: int,
                taus: np.ndarray) -> np.ndarray:
    """Delay vectors at ``Omega_l = 2*pi*l/N`` wrapped to ``(-pi, pi]``.

    Shape ``(len(taus), N, r)``; row ``l`` belongs to DFT bin ``l``.
    """
    omegas = TWO_PI * np.arange(n) / n
    wrapped = np.mod(omegas + np.pi, TWO_PI) - np.pi
    return _delta_components(waveform, r, wrapped, taus)


def _pulse_taps(waveform: ChipWaveform, period: int, r: int,
                tau: float) -> np.ndarray:
    """Pulse taps ``conj(phi_t(k + s/r - tau))`` wrapped at ``period`` chips.

    Shape ``(period, r)``; row ``k`` (chips, modulo ``period``) and column
    ``s`` (sub-row).  The inverse DFT of the delay vectors on the
    ``period``-point grid sums ``conj(Phi(w)) exp(-j w t)`` over every alias
    at spacing ``2*pi/period``, which by Poisson summation is the time pulse
    folded onto ``period`` chips.
    """
    deltas = _dft_deltas(waveform, period, r, np.array([tau]))[0]
    return np.fft.fft(deltas, axis=0) / period


@functools.lru_cache(maxsize=16)
def _check_pulse_fits(waveform: ChipWaveform, n: int, r: int) -> None:
    """Raise "pulse too long for N" when more than ``1e-4`` of the pulse
    energy, sampled at ``tau = 0`` on the ``1/r`` grid of ``(-N, N)``, lies
    outside the N-chip reach.

    Cached per (waveform, N, r), so the matrices of all delays share it.
    """
    taps = _pulse_taps(waveform, _TOEPLITZ_PERIOD, r, 0.0)[np.arange(-n, n)]
    # Raveled, the rows hold times -N, -N + 1/r, ..., N - 1/r; drop -N.
    captured = float(np.sum(np.abs(taps.ravel()[1:]) ** 2)) / r
    if waveform.energy - captured > _ENERGY_TOLERANCE * waveform.energy:
        raise PulseTooLongError("pulse too long for N")


def build_phi_matrix(waveform: ChipWaveform, spreading_factor: int,
                     oversampling: int, delay: float,
                     kind: str = "block_circulant") -> np.ndarray:
    """Build the ``rN x N`` delay/pulse matrix of one user.

    Both kinds hold the same pulse taps (:func:`_pulse_taps`) at two
    periods: entry (block row m, sub-row s, column c) is
    ``conj(phi_t(s/r - tau + (m - c - floor(delay))))``, with ``tau`` the
    sub-chip remainder of ``delay``.  The block-circulant kind wraps the
    pulse at N chips, so a whole-chip delay shifts the blocks cyclically;
    it equals ``(F kron I_r) @ blockdiag(delta(Omega_l, tau)) @ F^H`` with
    the unitary DFT ``F`` and ``Omega_l = 2*pi*l/N``.  The block-Toeplitz
    kind wraps it at 16384 chips, far beyond the window, zeroes taps
    below ``1e-6 * max`` of the reach and zero-fills the first
    ``floor(delay)`` block rows; a pulse that the N-chip window cannot
    represent raises (see :func:`_check_pulse_fits`).
    """
    _check_oversampling(waveform, oversampling)
    if delay < 0 or not np.isfinite(delay):
        raise ValueError("delay must be finite and nonnegative")
    whole = math.floor(delay)
    tau = float(delay - whole)
    n, r = spreading_factor, oversampling
    lags = np.subtract.outer(np.arange(n) - whole, np.arange(n))  # m - c
    if kind == "block_circulant":
        blocks = _pulse_taps(waveform, n, r, tau)[lags % n]
    elif kind == "block_toeplitz":
        _check_pulse_fits(waveform, n, r)
        taps = _pulse_taps(waveform, _TOEPLITZ_PERIOD, r, tau)
        peak = np.max(np.abs(taps[np.arange(1 - n, n)]))
        taps[np.abs(taps) < _TAP_THRESHOLD * peak] = 0.0
        blocks = taps[lags % _TOEPLITZ_PERIOD]
        blocks[:whole] = 0.0
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return blocks.swapaxes(1, 2).reshape(r * n, n)


# ---------------------------------------------------------------------------
# MMSE SINR
# ---------------------------------------------------------------------------

def _split_delays(waveform: ChipWaveform, n: int, r: int,
                  delays: np.ndarray):
    """Whole-chip parts of ``delays`` and the DFT delay vectors of the rest.

    Returns ``(whole, deltas)``: ``whole`` counts whole chips and
    ``deltas`` (see :func:`_dft_deltas`) belongs to the sub-chip
    remainders.  Neither depends on the spreading, so trials share them.
    """
    whole = np.floor(delays)
    return whole.astype(int), _dft_deltas(waveform, n, r, delays - whole)


def _phase_ramp(deltas: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """Fold whole-chip shifts into the delay vectors of :func:`_dft_deltas`.

    Multiplies user ``k``'s vectors at DFT bin ``l`` by
    ``exp(2*pi*j * l * whole[k] / N)``, so that the FFT of
    :func:`_circulant_signatures` returns its signatures rotated down by
    ``whole[k]`` blocks (``whole[k] * r`` rows), as the whole-chip part of
    a delay shifts the blocks of :func:`build_phi_matrix`.  The ramp is
    exactly 1 for a user with no whole chips.
    """
    n = deltas.shape[1]
    bins = np.outer(whole, np.arange(n)) % n
    return deltas * np.exp(1j * TWO_PI / n * bins)[..., None]


def _circulant_signatures(deltas: np.ndarray,
                          spreading: np.ndarray) -> np.ndarray:
    """Products ``Phi(tau_k) @ s``, block-circulant kind, by FFT.

    ``deltas`` holds user ``k``'s delay vectors (from :func:`_dft_deltas`,
    or :func:`_phase_ramp` for delays of whole chips) and ``spreading``
    has shape ``(N, K, ...)``; the result has shape ``(K, ..., rN)`` with
    ``Phi(tau_k)`` applied to every vector of user ``k``.  Sub-row ``s`` of
    block ``m`` of ``Phi(tau) @ x`` is the cyclic convolution
    ``sum_c C[m-c, s] x[c]`` with ``C = fft(delta) / N``, which equals
    ``fft(delta[:, s] * ifft(x))[m]``.  Costs ``N*r`` numbers per vector
    instead of one ``rN x N`` matrix per user.
    """
    n, n_users = spreading.shape[:2]
    r = deltas.shape[-1]
    # Every transform runs along the contiguous last axis; the chip and
    # sub-row axes are swapped back only in the final copy.
    coeffs = np.fft.ifft(np.moveaxis(spreading, 0, -1), axis=-1)
    batch = (1,) * (coeffs.ndim - 2)
    deltas = deltas.swapaxes(-1, -2).reshape((n_users,) + batch + (r, n))
    blocks = np.fft.fft(deltas * coeffs[..., None, :], axis=-1)
    return blocks.swapaxes(-1, -2).reshape(blocks.shape[:-2] + (r * n,))


def _signature_builder(system: FiniteSystem):
    """Map one spreading draw ``(N, K)`` to the ``rN x K`` signatures.

    Everything that does not depend on the spreading is computed here,
    once: the delay vectors of the block-circulant kind, and one matrix
    per distinct delay of the block-Toeplitz kind.
    """
    n, r = system.spreading_factor, system.oversampling
    amplitudes = system.amplitudes
    if system.matrix_kind == "block_circulant":
        whole, deltas = _split_delays(system.waveform, n, r, system.delays)
        deltas = _phase_ramp(deltas, whole)
        return lambda spreading: (_circulant_signatures(
            deltas, spreading).T * amplitudes[None, :])

    phis = {tau: build_phi_matrix(system.waveform, n, r, tau,
                                  system.matrix_kind)
            for tau in set(map(float, system.delays))}

    def signatures(spreading: np.ndarray) -> np.ndarray:
        h = np.empty((r * n, system.n_users), dtype=complex)
        for k, tau in enumerate(system.delays):
            h[:, k] = amplitudes[k] * (phis[float(tau)] @ spreading[:, k])
        return h

    return signatures


def _draw(system: FiniteSystem, seed: int, signatures) -> FiniteSystem:
    """Draw the spreading from ``seed`` and apply ``signatures`` to it."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = system.spreading_factor
    draws = rng.standard_normal((2, n, system.n_users))
    spreading = (draws[0] + 1j * draws[1]) / math.sqrt(2.0 * n)
    return replace(system, seed=seed, signatures=signatures(spreading))


def materialize(system: FiniteSystem,
                seed: int | None = None) -> FiniteSystem:
    """Draw the spreading and assemble the signature matrix.

    Spreading entries are i.i.d. circularly symmetric complex Gaussian
    with variance ``1/N``.  The block-circulant kind forms every
    ``Phi_k @ s_k`` by FFT from one batch of delay vectors, without
    building any ``Phi_k``; the block-Toeplitz kind builds its matrices
    once per distinct delay, so laws with repeated atoms cost one build
    each.
    """
    used_seed = system.seed if seed is None else int(seed)
    return _draw(system, used_seed, _signature_builder(system))


def _lapack(routine, *args):
    """Call a ``numpy.linalg`` routine on a supposedly positive-definite
    matrix, reporting a singular one as :class:`NotPositiveDefiniteError`.

    numpy's LU-based ``solve`` and ``inv`` do not check definiteness, so
    callers also check that the solved values lie in the range a
    positive-definite matrix guarantees.
    """
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("not positive definite") from exc


def _gram_sinrs(regularized: np.ndarray, noise_variance: float) -> np.ndarray:
    """MMSE SINRs of every column from their regularized Gram matrix.

    ``regularized`` is ``H^H H + sigma^2 I``, or the Schur complement of the
    centre symbol in such a matrix, which has the same inverse on those
    columns.  One inverse gives
    ``sinr_k = 1 / (sigma^2 [(H^H H + sigma^2 I)^{-1}]_kk) - 1``, accurate
    at high SINR unless columns outnumber rows.  A diagonal entry of the
    inverse that is not finite and positive raises
    :class:`NotPositiveDefiniteError`.
    """
    inverse = _lapack(np.linalg.inv, regularized)
    diagonal = np.real(np.diagonal(inverse))
    if not np.all((diagonal > 0.0) & (diagonal < np.inf)):
        raise NotPositiveDefiniteError("not positive definite")
    return 1.0 / (noise_variance * diagonal) - 1.0


def _row_sinrs(regularized: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """MMSE SINRs ``u / (1 - u)`` of the columns ``selected`` of ``H``.

    ``regularized`` is ``H H^H + sigma^2 I``, or the Schur complement of
    the rows ``selected`` spans, and ``u = h_k^H regularized^{-1} h_k``
    comes from one solve.  A ``u`` outside the ``[0, 1)`` that a
    positive-definite matrix keeps raises :class:`NotPositiveDefiniteError`.
    """
    solved = _lapack(np.linalg.solve, regularized, selected)
    u = np.real(np.sum(np.conj(selected) * solved, axis=0))
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise NotPositiveDefiniteError("not positive definite")
    return u / (1.0 - u)


def _mmse_sinrs(h: np.ndarray, noise_variance: float) -> np.ndarray:
    """Linear MMSE SINRs of every column of ``h``.

    One dense solve of the smaller Gram matrix serves every column: the
    ``K x K`` ``H^H H + sigma^2 I`` through :func:`_gram_sinrs` when
    columns do not outnumber rows, the row-side ``H H^H + sigma^2 I``
    through :func:`_row_sinrs` otherwise.  Both equal the leave-one-out
    ``h_k^H (H_k H_k^H + sigma^2 I)^{-1} h_k``.
    """
    rows, n_cols = h.shape
    row_side = n_cols > rows
    gram = h @ h.conj().T if row_side else h.conj().T @ h
    gram[np.diag_indices(gram.shape[0])] += noise_variance
    if row_side:
        return _row_sinrs(gram, h)
    return _gram_sinrs(gram, noise_variance)


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Trial-averaged SINR/efficiency statistics.

    ``standard_error`` is the standard error of the mean of the per-trial
    mean efficiency (its sample standard deviation over ``sqrt(trials)``);
    ``mean_sinr_standard_error`` is the same for the mean SINR.
    """

    trials: int
    n_users: int
    mean_sinr: float
    mean_efficiency: float
    standard_error: float
    mean_sinr_standard_error: float


def _summarize(sinrs: np.ndarray, effs: np.ndarray) -> TrialSummary:
    trials, n_users = effs.shape
    per_trial_eff = effs.mean(axis=1)
    per_trial_sinr = sinrs.mean(axis=1)
    std_eff = float(np.std(per_trial_eff, ddof=1)) if trials > 1 else 0.0
    std_sinr = float(np.std(per_trial_sinr, ddof=1)) if trials > 1 else 0.0
    return TrialSummary(
        trials=trials,
        n_users=n_users,
        mean_sinr=float(per_trial_sinr.mean()),
        mean_efficiency=float(per_trial_eff.mean()),
        standard_error=std_eff / math.sqrt(trials) if trials > 1 else 0.0,
        mean_sinr_standard_error=(std_sinr / math.sqrt(trials)
                                  if trials > 1 else 0.0),
    )


def run_trials(system: FiniteSystem, trials: int):
    """Independent trials of all per-user MMSE SINRs.

    Returns ``(sinrs, TrialSummary)`` where ``sinrs`` has shape
    ``(trials, K)``: row ``t`` holds the SINRs of the system materialized
    from ``trial_seed(system.seed, t)``.  The delay vectors (block-Toeplitz:
    the matrices) are computed once per call; each trial costs one FFT
    signature build and one factorization.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sinrs = np.empty((trials, system.n_users))
    signatures = _signature_builder(system)
    for t in range(trials):
        drawn = _draw(system, trial_seed(system.seed, t), signatures)
        sinrs[t] = _mmse_sinrs(drawn.signatures, drawn.noise_variance)
    powers = np.abs(system.amplitudes) ** 2
    effs = sinrs * system.noise_density / (powers * system.waveform.energy)
    return sinrs, _summarize(sinrs, effs)


# ---------------------------------------------------------------------------
# Delay-equivalence harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairedSummaries:
    """Center-symbol summaries of the windowed and reduced-delay systems."""

    windowed: TrialSummary
    reduced: TrialSummary


class _WindowedStack:
    """Work arrays of the windowed stack, allocated once per worker of a
    :func:`theorem3_harness` call and reused by each of its trials.

    A trial writes its rotated signatures into ``top``, laid out
    ``(2M+1, K, r, N)`` (symbol, user, sub-row, chip); it is contiguous
    because numpy's FFT into a strided view of all symbols' blocks took
    nearly three times as long (K = 32, N = 64).  ``blocks`` holds
    the local blocks of two consecutive symbols, in alternate slots, and
    ``conj`` their conjugates: user ``k``'s column in the two ``rN``-row
    halves of a block, each half laid out as ``(r, N)``.  A user's chips
    before its whole-chip shift, ``early``, go to the bottom half and the
    ``late`` rest to the top half.  That pattern is the same for every
    symbol, so the other entries keep the zeros they start with.  The
    elimination's blocks are ``K x K`` on the Gram side and ``rN x rN``
    on the row side, which ``row_side`` picks when users outnumber
    ``rN``; the row side also keeps the last ``L_m L_m^H`` (``lower``)
    and the centre's ``2rN x 2rN`` complement.
    """

    def __init__(self, whole: np.ndarray, n_symbols: int, r: int, n: int):
        n_users = whole.size
        self.row_side = n_users > r * n
        size = min(n_users, r * n)
        self.early = (np.arange(n) < whole[:, None])[:, None, :]
        self.late = ~self.early
        self.top = np.empty((n_symbols, n_users, r, n), dtype=complex)
        self.blocks = np.zeros((2, n_users, 2, r, n), dtype=complex)
        self.conj = np.empty((2, n_users, 2 * r * n), dtype=complex)
        self.diagonal = np.empty((n_symbols + self.row_side, size, size),
                                 dtype=complex)
        self.links = np.empty((2, n_symbols // 2, size, size), dtype=complex)
        self.link_conj = np.empty_like(self.links)
        self.correction = np.empty((2, size, size), dtype=complex)
        if self.row_side:
            self.lower = np.empty((size, size), dtype=complex)
            self.centre = np.empty((2 * size, 2 * size), dtype=complex)

    def local_block(self, m: int) -> np.ndarray:
        """Symbol ``m``'s local block, masked into slot ``m % 2`` of
        ``blocks``; row ``k`` is user ``k``'s column of ``B_m``."""
        block = self.blocks[m % 2]
        np.copyto(block[:, 0], self.top[m], where=self.late)
        np.copyto(block[:, 1], self.top[m], where=self.early)
        return block.reshape(block.shape[0], -1)


def _windowed_sinrs(stack: _WindowedStack,
                    noise_variance: float) -> np.ndarray:
    """Center-symbol SINRs in the (2M+1)-symbol stacked system.

    Column (k, m) of the stack ``H`` is ``amp_k * Phi_k s_k^{(m)}`` placed
    its whole chips ``w_k`` (``w_k * r`` rows) below symbol m's base row
    ``m*rN``, so it lies in row blocks m and m+1 of ``rN`` rows each.
    ``stack.top[m, k]``, of shape ``(r, N)``, is that column rotated
    cyclically by ``w_k`` chips (see :func:`_phase_ramp`): its chips at or
    past ``w_k`` are the top half ``T_m`` of the symbol's ``2rN x K`` local
    block ``B_m``, the chips before it the bottom half ``L_m``.  So ``B_m``
    is the rotated column masked at ``w_k``, with no zero-filled scatter;
    any row order inside a half serves if every half shares it.

    Like :func:`_mmse_sinrs` it works on the side with the smaller blocks,
    and both sides are block-tridiagonal: while users do not outnumber
    ``rN``, ``H^H H + sigma^2 I`` has 2M+1 blocks
    ``B_m^H B_m + sigma^2 I`` linked by ``L_m^H T_{m+1}``; otherwise
    ``H H^H + sigma^2 I`` has 2M+2 row blocks
    ``E_i = T_i T_i^H + L_{i-1} L_{i-1}^H + sigma^2 I`` linked by
    ``V_i = T_i L_i^H``.  Each symbol's block is masked and conjugated
    once, for its own products and its link to the previous symbol.
    Block elimination toward the centre (Meurant, SIAM J. Matrix Anal.
    Appl. 13(3), 1992), ``S_{j+1} = D_{j+1} - U_j^H S_j^{-1} U_j`` for
    diagonal blocks ``D`` and links ``U``, folds in both ends at once with
    one stacked ``numpy.linalg.solve`` per step, so a call makes ``2M``
    solves of ``min(K, rN)``-square pivots and forms neither ``H`` nor a
    full Gram matrix.  The centre symbol's Schur complement goes to
    :func:`_gram_sinrs`, or on the row side the ``2rN x 2rN``
    ``[[E_M - c_L, V_M], [V_M^H, E_{M+1} - c_R]]`` of its rows to
    :func:`_row_sinrs`, which keeps an overloaded window accurate at high
    SINR.
    """
    n_symbols = len(stack.top)
    diagonal, links, correction = stack.diagonal, stack.links, stack.correction
    half = n_symbols // 2
    rn = stack.conj.shape[-1] // 2
    # Left pivots and links run from symbol (row block) 0 toward the
    # centre, right ones from the far end: link j of row 1 belongs to
    # symbol 2M - j.  Symbol m - 1's block and conjugate are in the other
    # slot.
    for m in range(n_symbols):
        block = stack.local_block(m)
        conj = stack.conj[m % 2]
        np.conjugate(block, out=conj)
        top, bottom = block[:, :rn].T, block[:, rn:].T
        if stack.row_side:
            # Three quadrants of ``B_m B_m^H``; ``V_m^H`` is not formed
            # where ``V_m`` is.
            np.matmul(top, conj[:, :rn], out=diagonal[m])
            if m:
                diagonal[m] += stack.lower
            np.matmul(bottom, conj[:, rn:], out=stack.lower)
            if m < half:
                np.matmul(top, conj[:, rn:], out=links[0, m])
            elif m > half:
                np.matmul(bottom, conj[:, :rn], out=links[1, 2 * half - m])
            else:
                np.matmul(top, conj[:, rn:], out=stack.centre[:rn, rn:])
        else:
            # ``B_m^H B_m = conj(B_m^T) @ B_m``; two neighbouring symbols
            # are linked by the product of the halves they share.
            np.matmul(conj, block.T, out=diagonal[m])
            if 0 < m <= half:
                np.matmul(stack.conj[1 - m % 2, :, rn:], top,
                          out=links[0, m - 1])
            elif m > half:
                previous = stack.blocks[1 - m % 2].reshape(block.shape)
                np.matmul(conj[:, :rn], previous[:, rn:].T,
                          out=links[1, 2 * half - m])
    if stack.row_side:
        diagonal[-1] = stack.lower
    size = diagonal.shape[-1]
    diagonal.reshape(len(diagonal), -1)[:, ::size + 1] += noise_variance
    np.conjugate(links, out=stack.link_conj)
    correction[...] = 0.0
    for j in range(half):
        pivots = diagonal[[j, -1 - j]] - correction
        solved = _lapack(np.linalg.solve, pivots, links[:, j])
        np.matmul(stack.link_conj[:, j].swapaxes(1, 2), solved,
                  out=correction)
    if not stack.row_side:
        return _gram_sinrs(diagonal[half] - correction[0] - correction[1],
                           noise_variance)
    centre = stack.centre
    centre[:rn, :rn] = diagonal[half] - correction[0]
    centre[rn:, rn:] = diagonal[half + 1] - correction[1]
    centre[rn:, :rn] = centre[:rn, rn:].conj().T
    return _row_sinrs(centre, stack.local_block(half).T)


def _trial_workers(trials: int) -> int:
    """Number of threads that share the trials of one harness call.

    One per usable CPU, and never more than ``trials``, but only while
    OpenBLAS is pinned to one thread: the first of
    ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` that is set (the
    order in which OpenBLAS reads them) must be ``"1"``.  Otherwise the
    trials run in the caller's thread alone, since trial threads that each
    start BLAS threads of their own contend for the same cores: with
    OpenBLAS unpinned, two of them made a 100-trial call at N = 64, K = 32
    slower, 0.33 s against 0.25-0.28 s on one (medians of 15 runs, 2
    vCPUs).
    """
    blas_threads = next((os.environ[name] for name in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if name in os.environ), None)
    if blas_threads != "1":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(trials, cpus)


def _run_interleaved(make_trial, trials: int, workers: int) -> None:
    """Run trials ``0 .. trials-1`` over ``workers`` threads.

    Worker ``i`` calls ``make_trial()`` once, for work arrays of its own,
    and runs the returned ``trial(t)`` for ``t = i, i + workers, ...``.
    The caller's thread is worker 0, and every other thread is joined
    before this returns, on the error path too.  After a trial raises, the
    other workers start no new trial, and the first exception raised is
    raised again here, unchanged.
    """
    errors: list[BaseException] = []

    def work(first: int) -> None:
        try:
            trial = make_trial()
            for t in range(first, trials, workers):
                if errors:
                    return
                trial(t)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work(0)
    except BaseException as exc:
        # An interrupt, or a thread that could not start: stop the others.
        errors.append(exc)
        raise
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def theorem3_harness(waveform: ChipWaveform, spreading_factor: int,
                     oversampling: int, n_users: int, delays,
                     noise_density: float, window: int = 3, trials: int = 100,
                     seed: int = 0) -> PairedSummaries:
    """Paired evidence that only delays modulo one chip matter.

    Builds, per trial with shared spreading draws for ``n_users`` users
    of unit power, (a) the windowed general-asynchronous system where user
    ``k`` is shifted by its whole number of chips ``floor(delay_k)``
    (delays in chips) inside a ``2*window+1`` symbol stack, and (b) the
    reduced chip-asynchronous system using only ``delay_k mod 1``; returns
    center-symbol SINR summaries of both.

    The sub-chip delay vectors and their whole-chip phase ramps
    (:func:`_phase_ramp`) are made once per call.  The trials are dealt
    round-robin to :func:`_trial_workers` threads, the caller's among
    them; each worker makes its work arrays once, and each trial draws
    from its own seed into them and writes through ``out=``, so the
    summaries, taken after every worker has joined, do not depend on the
    number of workers.  A trial forms all ``(2*window+1) * K`` signatures,
    already rotated by their whole chips, in one batched FFT, and the
    windowed system goes through the centre-symbol block elimination of
    :func:`_windowed_sinrs`, whose pivots are ``min(K, rN)`` square, so a
    window costs about ``(2*window+1) * min(K, rN)**3`` rather than
    ``((2*window+1) * K)**3``.  The reduced system keeps its own FFT of
    the unrotated centre symbol.  No delay/pulse matrix is built.  At
    N = 64, beta = 0.5, window 3 and 32 trials per call, a trial took
    1.15-1.66 ms (minimum over 15 calls; 6 runs) on two workers against
    1.86-2.76 ms on one, one BLAS thread, 2 vCPUs.  At beta = 4 (K = 256 >
    rN = 128) an overloaded trial took 57-64 ms on one worker and 31-32 ms
    on two (medians of 5 calls of 6 trials; 3 runs).

    When users outnumber the ``rN`` rows of one symbol the windowed SINR
    sits above the reduced one by far more than the trial noise, and the
    gap shrinks with N (about as ``N**-0.75``): at ``K = 4N``, window 3,
    RRC 0.22, ``N0 = 0.1`` and 6 trials it measured 0.10-0.12 at N=16,
    0.064-0.068 at N=32 and 0.038-0.041 at N=64 over three seeds, against
    standard errors of 0.0007-0.006, and a wider window does not close it.
    It is a finite-size effect of the overloaded stack; under-loaded
    systems show no gap beyond their noise.
    """
    _check_oversampling(waveform, oversampling)
    if window < 2:
        raise ValueError("window must be at least 2 symbols")
    if trials < 1:
        raise ValueError("need at least one trial")
    delays = np.asarray(delays, dtype=float)
    if delays.shape != (n_users,):
        raise ValueError("delays must have length n_users")
    if not np.all((delays >= 0) & (delays < spreading_factor)):
        raise ValueError("delays must lie in [0, T_s)")

    n, r = spreading_factor, oversampling
    whole, deltas = _split_delays(waveform, n, r, delays)
    # Chips last, as in :func:`_circulant_signatures`.
    rotated_deltas = _phase_ramp(deltas, whole).swapaxes(1, 2)
    deltas = deltas.swapaxes(1, 2)
    sigma2 = r * noise_density
    # Each spreading component has this standard deviation.  numpy divides
    # a complex number by a real ``c`` as ``z * (1 / c)``, so scaling the
    # real and imaginary draws apart matches ``(a + 1j*b) / c`` bit for bit.
    component_std = 1.0 / math.sqrt(2.0 * n)

    n_symbols = 2 * window + 1
    win_sinr = np.empty((trials, n_users))
    red_sinr = np.empty((trials, n_users))

    def make_trial():
        draws = np.empty((2, n, n_users, n_symbols))
        spreading = np.empty((n_symbols, n_users, n), dtype=complex)
        centre = np.empty((n_users, r, n), dtype=complex)
        stack = _WindowedStack(whole, n_symbols, r, n)

        def trial(t: int) -> None:
            rng = np.random.Generator(np.random.PCG64(trial_seed(seed, t)))
            rng.standard_normal(out=draws)
            np.multiply(draws[0].T, component_std, out=spreading.real)
            np.multiply(draws[1].T, component_std, out=spreading.imag)
            coeffs = np.fft.ifft(spreading, axis=-1, out=spreading)
            np.multiply(rotated_deltas, coeffs[:, :, None], out=stack.top)
            np.fft.fft(stack.top, axis=-1, out=stack.top)
            win_sinr[t] = _windowed_sinrs(stack, sigma2)
            np.multiply(deltas, coeffs[window, :, None], out=centre)
            np.fft.fft(centre, axis=-1, out=centre)
            red_sinr[t] = _mmse_sinrs(
                centre.swapaxes(1, 2).reshape(n_users, r * n).T, sigma2)

        return trial

    _run_interleaved(make_trial, trials, _trial_workers(trials))
    scale = noise_density / waveform.energy
    return PairedSummaries(
        windowed=_summarize(win_sinr, win_sinr * scale),
        reduced=_summarize(red_sinr, red_sinr * scale),
    )
