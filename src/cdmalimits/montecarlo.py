"""Exact finite-size Monte Carlo validation of the asymptotic formulas.

Builds the ``rN x N`` delay/pulse matrices (block-circulant by default,
block-Toeplitz to demonstrate their spectral equivalence), draws i.i.d.
circularly symmetric Gaussian spreading, forms the signatures (by FFT for
the block-circulant kind, so no circulant matrix is built, with the delay
vectors computed once per run), computes all users' linear MMSE SINRs
from one dense solve of the smaller Gram matrix, and runs the
paired windowed / reduced-delay harness showing that only delays modulo
one chip matter.  The harness assembles the Gram blocks of its windowed
multi-symbol stack block-tridiagonally from the FFT signatures and
eliminates them toward the centre symbol, without forming the stack, its
full Gram matrix or any delay/pulse matrix.

Time is measured in chips: a delay of ``d`` is ``floor(d)`` whole chips
plus a sub-chip remainder, and a symbol lasts ``N`` chips.

Reproducibility: every random quantity flows from one 64-bit master seed;
trial ``t`` uses ``master XOR ((t+1) * 0x9E3779B97F4A7C15 mod 2^64)`` as
its own generator seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .large_system import SystemLaw, _support_grid
from .numerics import NotPositiveDefiniteError
from .waveforms import ChipWaveform, _check_oversampling, _delta_components

TWO_PI = 2.0 * np.pi
_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Amplitude threshold (relative to the peak) below which time-pulse taps
#: are zeroed in the block-Toeplitz construction.
_TAP_THRESHOLD = 1e-6
#: Largest tolerated fraction of pulse energy outside the N-chip reach.
_ENERGY_TOLERANCE = 1e-4
#: Frequency samples used for the inverse transform of the spectrum.
_TIME_GRID_POINTS = 16384


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
        if np.any(delays < 0) or np.any(delays >= self.spreading_factor):
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


def _circulant_phi(waveform: ChipWaveform, n: int, r: int,
                   tau: float) -> np.ndarray:
    """Block-circulant ``rN x N`` matrix with DFT-domain blocks.

    Equals ``(F kron I_r) @ blockdiag(delta(Omega_l, tau)) @ F^H`` with the
    unitary DFT ``F`` and ``Omega_l = 2*pi*l/N``, evaluated directly via
    the inverse FFT of the per-frequency delay vectors.
    """
    deltas = _dft_deltas(waveform, n, r, np.array([tau]))[0]
    # Block m of column n equals (1/N) sum_l delta(Omega_l) e^{-2pi i l(m-n)/N},
    # so a whole-chip delay (phase e^{j Omega_l}) shifts rows down one block.
    first_cols = np.fft.fft(deltas, axis=0) / n  # (N, r): C[m-n] pattern
    out = np.empty((r * n, n), dtype=complex)
    for col in range(n):
        out[:, col] = np.roll(first_cols, col, axis=0).reshape(-1)
    return out


def _time_pulse(waveform: ChipWaveform, times: np.ndarray) -> np.ndarray:
    """Inverse transform ``(1/2pi) * integral Phi(w) e^{jwt} dw``.

    Midpoint quadrature over the pulse support; with the package's energy
    convention the time pulse then carries energy ``E`` exactly.
    """
    omegas = _support_grid(waveform, _TIME_GRID_POINTS)
    spacing = 2.0 * waveform._support_limit() / _TIME_GRID_POINTS
    values = waveform.spectrum(omegas)
    out = np.empty(times.shape, dtype=complex)
    chunk = 512
    for start in range(0, times.size, chunk):
        t = times[start:start + chunk]
        out[start:start + chunk] = (
            np.exp(1j * np.outer(t, omegas)) @ values) * (spacing / TWO_PI)
    return out


@functools.lru_cache(maxsize=16)
def _check_pulse_fits(waveform: ChipWaveform, n: int, r: int) -> None:
    """Raise "pulse too long for N" when more than ``1e-4`` of the pulse
    energy, sampled on the ``tau = 0`` grid, lies outside the N-chip reach.

    Cached per (waveform, N, r), so the matrices of all delays share it.
    """
    reach_vals = _time_pulse(waveform, np.arange(-r * n + 1, r * n) / r)
    captured = float(np.sum(np.abs(reach_vals) ** 2)) / r
    if waveform.energy - captured > _ENERGY_TOLERANCE * waveform.energy:
        raise PulseTooLongError("pulse too long for N")


def _toeplitz_phi(waveform: ChipWaveform, n: int, r: int,
                  tau: float) -> np.ndarray:
    """Block-Toeplitz ``rN x N`` matrix of time-domain pulse samples.

    Entry (block row m, sub-row s, column c) holds
    ``conj(phi_t(s/r - tau + (m-c)))``, with times in chips — the
    frequency-limit of the block-circulant form, so a growing delay moves
    the pulse toward later sample rows in both constructions.  Taps below
    ``1e-6 * max`` are zeroed; a pulse that the N-chip window cannot
    represent raises (see :func:`_check_pulse_fits`).
    """
    _check_pulse_fits(waveform, n, r)

    offsets = np.arange(-(n - 1), n)  # m - c
    sub = np.arange(r)
    times = (sub[:, None] / r) - tau + offsets[None, :]
    taps = np.conj(_time_pulse(waveform, times.ravel())).reshape(r,
                                                                 offsets.size)
    taps[np.abs(taps) < _TAP_THRESHOLD * np.max(np.abs(taps))] = 0.0

    rows = np.arange(n)
    diff = rows[:, None] - rows[None, :] + (n - 1)  # index into offsets
    out = np.empty((r * n, n), dtype=complex)
    for s in range(r):
        out[s::r, :] = taps[s][diff]
    return out


def build_phi_matrix(waveform: ChipWaveform, spreading_factor: int,
                     oversampling: int, delay: float,
                     kind: str = "block_circulant") -> np.ndarray:
    """Build the ``rN x N`` delay/pulse matrix of one user.

    ``delay`` may exceed one chip: the whole-chip part shifts the matrix by
    whole blocks (cyclically for the circulant kind, zero-filled for the
    Toeplitz kind) and the sub-chip remainder shapes the blocks.
    """
    _check_oversampling(waveform, oversampling)
    if delay < 0 or not np.isfinite(delay):
        raise ValueError("delay must be finite and nonnegative")
    whole = math.floor(delay)
    tau = float(delay - whole)
    if kind == "block_circulant":
        base = _circulant_phi(waveform, spreading_factor, oversampling, tau)
        if whole % spreading_factor:
            base = np.roll(base, (whole % spreading_factor) * oversampling,
                           axis=0)
        return base
    if kind == "block_toeplitz":
        base = _toeplitz_phi(waveform, spreading_factor, oversampling, tau)
        if whole:
            shifted = np.zeros_like(base)
            keep = base.shape[0] - whole * oversampling
            if keep > 0:
                shifted[whole * oversampling:, :] = base[:keep, :]
            base = shifted
        return base
    raise ValueError(f"unknown matrix kind {kind!r}")


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


def _circulant_signatures(deltas: np.ndarray, spreading: np.ndarray,
                          whole: np.ndarray | None = None) -> np.ndarray:
    """Products ``Phi(tau_k) @ s``, block-circulant kind, by FFT.

    ``deltas`` holds user ``k``'s delay vectors (from :func:`_dft_deltas`)
    and ``spreading`` has shape ``(N, K, ...)``; the result has shape
    ``(K, ..., rN)`` with ``Phi(tau_k)`` applied to every vector of user
    ``k``.  Sub-row ``s`` of block ``m`` of ``Phi(tau) @ x`` is the cyclic
    convolution ``sum_c C[m-c, s] x[c]`` with ``C = fft(delta) / N``, which
    equals ``fft(delta[:, s] * ifft(x))[m]``.  ``whole``, if given, rolls
    user ``k``'s rows down by ``whole[k]`` blocks, as the whole-chip part
    of a delay does in :func:`build_phi_matrix`.  Costs ``N*r`` numbers
    per vector instead of one ``rN x N`` matrix per user.
    """
    n, n_users = spreading.shape[:2]
    r = deltas.shape[-1]
    # Every transform runs along the contiguous last axis; the chip and
    # sub-row axes are swapped back only in the final copy.
    coeffs = np.fft.ifft(np.moveaxis(spreading, 0, -1), axis=-1)
    batch = (1,) * (coeffs.ndim - 2)
    deltas = deltas.swapaxes(-1, -2).reshape((n_users,) + batch + (r, n))
    blocks = np.fft.fft(deltas * coeffs[..., None, :], axis=-1)
    if whole is not None:
        rows = (np.arange(n)[None, :] - whole[:, None]) % n
        blocks = np.take_along_axis(
            blocks, rows.reshape((n_users,) + batch + (1, n)), axis=-1)
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
        return lambda spreading: (_circulant_signatures(
            deltas, spreading, whole).T * amplitudes[None, :])

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


def _gram_sinrs(regularized: np.ndarray, noise_variance: float,
                cols: np.ndarray) -> np.ndarray:
    """MMSE SINRs of the columns ``cols`` from their regularized Gram matrix.

    ``regularized`` is ``H^H H + sigma^2 I``, or the Schur complement of the
    centre symbol in such a matrix, which has the same inverse on those
    columns.  It is inverted once, and the SINRs follow from the identity
    ``sinr_k = 1 / (sigma^2 [(H^H H + sigma^2 I)^{-1}]_kk) - 1``.  The
    identity holds for any number of columns and stays accurate at high
    SINR.  A diagonal entry of the inverse that is not finite and positive
    raises :class:`NotPositiveDefiniteError`.
    """
    inverse = _lapack(np.linalg.inv, regularized)
    diagonal = np.real(inverse[cols, cols])
    if not np.all((diagonal > 0.0) & (diagonal < np.inf)):
        raise NotPositiveDefiniteError("not positive definite")
    return 1.0 / (noise_variance * diagonal) - 1.0


def _mmse_sinrs(h: np.ndarray, noise_variance: float,
                users=None) -> np.ndarray:
    """Linear MMSE SINRs of the columns ``users`` of ``h`` (all by default).

    One dense solve of the smaller Gram matrix serves every column.  With
    no more columns than rows it inverts the ``K x K``
    ``H^H H + sigma^2 I`` and uses the identity
    ``sinr_k = 1 / (sigma^2 [(H^H H + sigma^2 I)^{-1}]_kk) - 1``, which
    also stays accurate at high SINR; otherwise it solves the row-side
    ``H H^H + sigma^2 I`` against the selected columns and returns
    ``u / (1 - u)`` with ``u = h_k^H (H H^H + sigma^2 I)^{-1} h_k``.  Both
    equal the leave-one-out ``h_k^H (H_k H_k^H + sigma^2 I)^{-1} h_k``.
    A positive-definite row side keeps every ``u`` in ``[0, 1)``; a ``u``
    outside it raises :class:`NotPositiveDefiniteError`.
    """
    rows, n_cols = h.shape
    cols = np.arange(n_cols) if users is None else np.asarray(users)
    row_side = n_cols > rows
    gram = h @ h.conj().T if row_side else h.conj().T @ h
    gram[np.diag_indices(gram.shape[0])] += noise_variance
    if not row_side:
        return _gram_sinrs(gram, noise_variance, cols)
    selected = h[:, cols]
    solved = _lapack(np.linalg.solve, gram, selected)
    u = np.real(np.sum(np.conj(selected) * solved, axis=0))
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise NotPositiveDefiniteError("not positive definite")
    return u / (1.0 - u)


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


def _windowed_sinrs(signatures: np.ndarray, row_shifts: np.ndarray,
                    noise_variance: float) -> np.ndarray:
    """Center-symbol SINRs in the (2M+1)-symbol stacked system.

    ``signatures[k, m]`` is ``amp_k * Phi_k s_k^{(m)}``, of length ``rN``.
    Column (k, m) of the stack places it ``row_shifts[k]`` rows (its whole
    chips) below symbol m's base row ``m*rN``, so it lies inside rows
    ``[m*rN, (m+2)*rN)`` and the regularized Gram matrix
    ``G = H^H H + sigma^2 I`` of the stack is block-tridiagonal in m.
    Each symbol's columns are scattered into a ``2rN x K`` local block
    ``B_m``, which gives the diagonal blocks ``D_m = B_m^H B_m + sigma^2 I``
    and the links ``U_m = B_m[rN:]^H B_{m+1}[:rN]``; neither the
    ``(2M+2)rN``-row stack nor ``G`` is formed.

    Only the centre symbol's diagonal of ``G^{-1}`` is needed, and it is
    the diagonal of the inverse of the centre's Schur complement ``C``.
    Block elimination toward the centre (Meurant, SIAM J. Matrix Anal.
    Appl. 13(3), 1992) folds the outer symbols in from both ends at once:
    ``S_0 = D_0``, ``S_{j+1} = D_{j+1} - U_j^H S_j^{-1} U_j`` from the left
    and the mirror image from the right, so ``C`` is ``D_M`` less both
    sides' last corrections.  Each step solves both sides' pivots in one
    stacked ``numpy.linalg.solve``, so a call makes ``2M`` dense solves
    of ``K x K`` matrices and one ``K x K`` inverse in
    :func:`_gram_sinrs`, which turns ``C`` into the SINRs, instead of
    factoring the ``(2M+1)K``-side ``G``.  A link has rank at most rN, so
    an overloaded window (``rN < K``) solves for ``P_j^H`` with
    ``P_j = B_j[rN:]`` (rN right-hand sides, not K) and forms the
    correction as ``Q_j^H (P_j S_j^{-1} P_j^H) Q_j`` with
    ``Q_j = B_{j+1}[:rN]``; at N = 64, r = 2, K = 256 that cut a call
    from 115 to 93 ms against solving for the links (one thread).

    It always uses that Gram-side identity, also when the window is
    overloaded (more columns than rows), where :func:`_mmse_sinrs` would
    switch to the row side.  ``G`` then has eigenvalues near ``sigma^2``,
    and the SINRs lose digits as about ``eps / sigma^2``: against the
    literal leave-one-out on the dense stack (N = 8, r = 2, K = 24 and 40)
    the relative error measured up to 2e-11 at ``sigma^2 = 1e-4`` and
    1.5e-6 at ``sigma^2 = 2e-9``.
    """
    n_users, n_symbols, rn = signatures.shape
    local = np.zeros((n_symbols, 2 * rn, n_users), dtype=complex)
    rows = row_shifts[:, None] + np.arange(rn)[None, :]
    local[:, rows, np.arange(n_users)[:, None]] = signatures.swapaxes(0, 1)
    diagonal = local.conj().swapaxes(1, 2) @ local
    diagonal[:, np.arange(n_users), np.arange(n_users)] += noise_variance
    # Pivot j of row 0 is symbol j, of row 1 symbol 2M - j.  It shares rN
    # rows with the next symbol toward the centre: ``facing`` holds its
    # own and ``onward`` the next symbol's, so their link is
    # ``facing^H onward``, of rank at most rN.
    halves = local.reshape(n_symbols, 2, rn, n_users)
    half = n_symbols // 2
    correction = np.zeros((2, n_users, n_users), dtype=complex)
    for j in range(half):
        facing = halves[[j, -1 - j], [1, 0]]
        onward = halves[[j + 1, -2 - j], [0, 1]]
        pivots = diagonal[[j, -1 - j]] - correction
        if rn < n_users:
            # Overloaded: solving for the rN shared rows is cheaper than
            # for the K columns of the link.
            solved = _lapack(np.linalg.solve, pivots,
                             facing.conj().swapaxes(1, 2))
            correction = (onward.conj().swapaxes(1, 2)
                          @ (facing @ solved) @ onward)
        else:
            link = facing.conj().swapaxes(1, 2) @ onward
            solved = _lapack(np.linalg.solve, pivots, link)
            correction = link.conj().swapaxes(1, 2) @ solved
    centre = diagonal[half] - correction[0] - correction[1]
    return _gram_sinrs(centre, noise_variance, np.arange(n_users))


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

    The sub-chip delay vectors are computed once per call.  Each trial
    forms all ``(2*window+1) * K`` signatures in one batched FFT; the
    reduced system reuses the center symbol's, and the windowed one goes
    through the centre-symbol block elimination of :func:`_windowed_sinrs`,
    which solves only ``K x K`` matrices (``2*window + 1`` of them), so
    an overloaded window costs about ``(2*window+1) * K**3`` rather than
    ``((2*window+1) * K)**3``.  No delay/pulse matrix is built.

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
    if np.any(delays < 0) or np.any(delays >= spreading_factor):
        raise ValueError("delays must lie in [0, T_s)")

    whole_chips, deltas = _split_delays(waveform, spreading_factor,
                                        oversampling, delays)
    sigma2 = oversampling * noise_density

    n_symbols = 2 * window + 1
    win_sinr = np.empty((trials, n_users))
    red_sinr = np.empty((trials, n_users))
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(trial_seed(seed, t)))
        draws = rng.standard_normal((2, spreading_factor, n_users,
                                     n_symbols))
        stack = (draws[0] + 1j * draws[1]) / math.sqrt(
            2.0 * spreading_factor)
        signatures = _circulant_signatures(deltas, stack)
        win_sinr[t] = _windowed_sinrs(signatures, whole_chips * oversampling,
                                      sigma2)
        red_sinr[t] = _mmse_sinrs(signatures[:, window].T, sigma2)

    scale = noise_density / waveform.energy
    return PairedSummaries(
        windowed=_summarize(win_sinr, win_sinr * scale),
        reduced=_summarize(red_sinr, red_sinr * scale),
    )
