"""Exact finite-size Monte Carlo validation of the asymptotic formulas.

A user's ``rN x N`` delay/pulse matrix is block-circulant: block row
``m``, sub-row ``s`` and column ``c`` hold the pulse tap
``conj(phi_t(s/r - tau + m - c - floor(delay)))`` wrapped at N chips,
with ``tau`` the sub-chip remainder of the delay, so the matrix equals
``(F kron I_r) @ blockdiag(delta(Omega_l, tau)) @ F^H`` with the unitary
DFT ``F`` and ``Omega_l = 2*pi*l/N``.  It has the limiting spectrum of the
block-Toeplitz matrix of the asynchronous system (R. M. Gray, "Toeplitz
and Circulant Matrices: A Review", Found. Trends Commun. Inf. Theory
2(3), 2006); the tests keep dense matrices of both kinds as the oracle.
No delay/pulse matrix is built here.  The
module draws i.i.d. circularly symmetric Gaussian spreading, forms the
signatures by FFT, with the delay vectors computed once per call and each
delay's whole chips folded into them as a DFT phase ramp, computes all
users' linear MMSE SINRs from one dense solve of the smaller Gram matrix,
and runs the paired windowed / reduced-delay harness showing that only
delays modulo one chip matter.  The harness takes each symbol's local
block of its windowed multi-symbol stack as the ramp-rotated FFT
signatures masked at their whole-chip shifts, assembles the Gram blocks
of the side with the smaller ones block-tridiagonally and eliminates
them toward the centre symbol, without forming the stack or its full Gram
matrix.  Both trial loops share one in-place spreading draw, one
in-place FFT product, one input check (:class:`FiniteSystem`) and one
loop, which deals the trials of a call round-robin to one thread per
usable CPU while OpenBLAS is pinned to one thread; each worker reuses one
set of work arrays.

Time is measured in chips: a delay of ``d`` is ``floor(d)`` whole chips
plus a sub-chip remainder, and a symbol lasts ``N`` chips.

Reproducibility: every random quantity flows from one 64-bit master seed;
trial ``t`` uses ``master XOR ((t+1) * 0x9E3779B97F4A7C15 mod 2^64)`` as
its own generator seed, so no result depends on which thread ran a trial.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from .large_system import SystemLaw, efficiency_of_user
from .numerics import SolverError, _check_noise_density, _read_only
from .waveforms import (
    TWO_PI,
    ChipWaveform,
    _check_oversampling,
    _delta_components,
)

_SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def trial_seed(master_seed: int, trial: int) -> int:
    """Derive the per-trial generator seed from the master seed."""
    return (int(master_seed) ^ ((trial + 1) * _SEED_STRIDE & _MASK64)) \
        & _MASK64


@dataclass(frozen=True, eq=False)
class FiniteSystem:
    """One finite-size asynchronous CDMA instance.

    ``delays`` are in chips and lie in one symbol, ``[0, N)``.
    ``signatures`` is the materialized ``rN x K`` matrix whose column ``k``
    is ``amplitude_k * Phi_k @ s_k``, the user's block-circulant
    delay/pulse matrix (see the module docstring) times its spreading
    sequence; it is ``None`` until :func:`materialize` draws the
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
    signatures: np.ndarray | None = None

    def __post_init__(self):
        if self.spreading_factor < 1 or self.n_users < 1:
            raise ValueError("system needs at least one chip and one user")
        _check_noise_density(self.noise_density)
        _check_oversampling(self.waveform, self.oversampling)
        amplitudes = _read_only(self.amplitudes, complex)
        delays = _read_only(self.delays, float)
        if amplitudes.shape != (self.n_users,) or \
                delays.shape != (self.n_users,):
            raise ValueError("per-user arrays must have length n_users")
        if not np.all(np.isfinite(amplitudes)):
            raise ValueError("amplitudes must be finite")
        if not np.all((delays >= 0) & (delays < self.spreading_factor)):
            raise ValueError("delays must lie in [0, T_s)")
        object.__setattr__(self, "amplitudes", amplitudes)
        object.__setattr__(self, "delays", delays)

    @property
    def noise_variance(self) -> float:
        return self.oversampling * self.noise_density


def finite_system(sys: SystemLaw, spreading_factor: int,
                  seed: int) -> FiniteSystem:
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
    )


# ---------------------------------------------------------------------------
# Delay vectors and signatures
# ---------------------------------------------------------------------------

def _dft_deltas(waveform: ChipWaveform, n: int, r: int,
                taus: np.ndarray) -> np.ndarray:
    """Delay vectors at ``Omega_l = 2*pi*l/N`` wrapped to ``(-pi, pi]``.

    Shape ``(len(taus), N, r)``; row ``l`` belongs to DFT bin ``l``.
    """
    omegas = TWO_PI * np.arange(n) / n
    wrapped = np.mod(omegas + np.pi, TWO_PI) - np.pi
    return _delta_components(waveform, r, wrapped, taus)


def _split_delays(waveform: ChipWaveform, n: int, r: int,
                  delays: np.ndarray):
    """Whole-chip parts of ``delays`` and the DFT delay vectors of the rest.

    Returns ``(whole, deltas, ramped)``: ``whole`` counts whole chips and
    ``deltas`` (see :func:`_dft_deltas`) belongs to the sub-chip
    remainders, laid out ``(K, r, N)`` as :func:`_circulant_signatures`
    takes it.  ``ramped`` folds the whole chips in: user ``k``'s vectors
    at DFT bin ``l`` times ``exp(2*pi*j * l * whole[k] / N)``, so that the
    FFT returns its signatures rotated down by ``whole[k]`` blocks, as the
    whole-chip part of a delay shifts the blocks of its delay/pulse matrix
    cyclically; the ramp is exactly 1 without whole chips.
    None depends on the spreading, so trials share them.
    """
    whole = np.floor(delays).astype(int)
    deltas = np.ascontiguousarray(
        _dft_deltas(waveform, n, r, delays - whole).swapaxes(1, 2))
    ramp = np.exp(1j * TWO_PI / n * (np.outer(whole, np.arange(n)) % n))
    return whole, deltas, deltas * ramp[:, None, :]


def _draw_spreading(seed: int, draws: np.ndarray,
                    spreading: np.ndarray) -> np.ndarray:
    """Draw i.i.d. circularly symmetric Gaussian spreading of variance
    ``1/N`` from ``seed``: ``(2, N, K, S)`` normals into ``draws``, scaled
    into ``spreading[m, k]``, symbol ``m``'s sequence of user ``k``.
    numpy divides a complex number by a real ``c`` as ``z * (1 / c)``, so
    scaling the parts apart matches ``(a + 1j*b) / c`` bit for bit.
    """
    np.random.Generator(np.random.PCG64(seed)).standard_normal(out=draws)
    component_std = 1.0 / math.sqrt(2.0 * draws.shape[1])
    np.multiply(draws[0].T, component_std, out=spreading.real)
    np.multiply(draws[1].T, component_std, out=spreading.imag)
    return spreading


def _circulant_signatures(deltas: np.ndarray, coeffs: np.ndarray,
                          out: np.ndarray) -> np.ndarray:
    """Block-circulant products ``Phi(tau_k) @ s`` by FFT into ``out``.

    ``deltas`` holds user ``k``'s delay vectors (see :func:`_split_delays`)
    and ``coeffs``, shaped ``(..., K, N)``, the inverse DFT of spreading
    sequences; ``out[..., k, s, m]`` receives sub-row ``s`` of block ``m``.
    That is the cyclic convolution ``sum_c C[m-c, s] x[c]`` with
    ``C = fft(delta) / N``, which equals ``fft(delta[:, s] * ifft(x))[m]``:
    one multiply and one FFT, in place along the contiguous chip axis,
    instead of one ``rN x N`` matrix per user.  The ``rN x K`` matrix of
    ``(K, r, N)`` blocks is ``x.swapaxes(1, 2).reshape(K, rN).T``.
    """
    np.multiply(deltas, coeffs[..., None, :], out=out)
    return np.fft.fft(out, axis=-1, out=out)


def _signature_arrays(system: FiniteSystem):
    """One worker's arrays for :func:`_signatures`: the ``(2, N, K, 1)``
    normals, the ``(1, K, N)`` spreading and the ``(K, r, N)`` blocks."""
    n, r, n_users = system.spreading_factor, system.oversampling, \
        system.n_users
    return (np.empty((2, n, n_users, 1)),
            np.empty((1, n_users, n), dtype=complex),
            np.empty((n_users, r, n), dtype=complex))


def _signatures(system: FiniteSystem, deltas: np.ndarray, seed: int,
                arrays) -> np.ndarray:
    """``rN x K`` signature matrix of ``system`` for the spreading drawn
    from ``seed``, a view of the blocks in ``arrays``.

    ``deltas`` are the system's ramped delay vectors (see
    :func:`_split_delays`), made once per call, and ``arrays`` one
    worker's (:func:`_signature_arrays`).
    """
    draws, spreading, blocks = arrays
    sequences = _draw_spreading(seed, draws, spreading)[0]
    coeffs = np.fft.ifft(sequences, axis=-1, out=sequences)
    _circulant_signatures(deltas, coeffs, blocks)
    np.multiply(blocks, system.amplitudes[:, None, None], out=blocks)
    return blocks.swapaxes(1, 2).reshape(system.n_users, -1).T


def materialize(system: FiniteSystem,
                seed: int | None = None) -> FiniteSystem:
    """Draw the spreading and assemble the signature matrix.

    Spreading entries are i.i.d. circularly symmetric complex Gaussian
    with variance ``1/N``.  Every ``Phi_k @ s_k`` is formed by FFT from one
    batch of delay vectors, without building any ``Phi_k``.
    """
    used_seed = system.seed if seed is None else int(seed)
    _, _, deltas = _split_delays(system.waveform, system.spreading_factor,
                                 system.oversampling, system.delays)
    signatures = _signatures(system, deltas, used_seed,
                             _signature_arrays(system))
    return replace(system, seed=used_seed, signatures=signatures)


# ---------------------------------------------------------------------------
# MMSE SINR
# ---------------------------------------------------------------------------

def _lapack(routine, *args):
    """Call a ``numpy.linalg`` routine on a supposedly positive-definite
    matrix, reporting a singular one as a :class:`SolverError`.

    numpy's LU-based ``solve`` and ``inv`` do not check definiteness, so
    callers also check that the solved values lie in the range a
    positive-definite matrix guarantees.
    """
    try:
        return routine(*args)
    except np.linalg.LinAlgError as exc:
        raise SolverError("not positive definite") from exc


def _gram_sinrs(regularized: np.ndarray, noise_variance: float) -> np.ndarray:
    """MMSE SINRs of every column from their regularized Gram matrix.

    ``regularized`` is ``H^H H + sigma^2 I``, or the Schur complement of the
    centre symbol in such a matrix, which has the same inverse on those
    columns.  One inverse gives
    ``sinr_k = 1 / (sigma^2 [(H^H H + sigma^2 I)^{-1}]_kk) - 1``, accurate
    at high SINR unless columns outnumber rows.  A diagonal entry of the
    inverse that is not finite and positive raises :class:`SolverError`.
    """
    inverse = _lapack(np.linalg.inv, regularized)
    diagonal = np.real(np.diagonal(inverse))
    if not np.all((diagonal > 0.0) & (diagonal < np.inf)):
        raise SolverError("not positive definite")
    return 1.0 / (noise_variance * diagonal) - 1.0


def _row_sinrs(regularized: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """MMSE SINRs ``u / (1 - u)`` of the columns ``selected`` of ``H``.

    ``regularized`` is ``H H^H + sigma^2 I``, or the Schur complement of
    the rows ``selected`` spans, and ``u = h_k^H regularized^{-1} h_k``
    comes from one solve.  A ``u`` outside the ``[0, 1)`` that a
    positive-definite matrix keeps raises :class:`SolverError`.
    """
    solved = _lapack(np.linalg.solve, regularized, selected)
    u = np.real(np.sum(np.conj(selected) * solved, axis=0))
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise SolverError("not positive definite")
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


def _trial_workers(trials: int) -> int:
    """Number of threads that share the trials of one trial-loop call.

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


def run_trials(system: FiniteSystem, trials: int):
    """Independent trials of all per-user MMSE SINRs.

    Returns ``(sinrs, TrialSummary)`` where ``sinrs`` has shape
    ``(trials, K)``: row ``t`` holds the SINRs of the system materialized
    from ``trial_seed(system.seed, t)``.  The delay vectors are computed
    once per call; each trial costs one FFT signature build and one
    factorization, on :func:`_run_interleaved`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sinrs = np.empty((trials, system.n_users))
    _, _, deltas = _split_delays(system.waveform, system.spreading_factor,
                                 system.oversampling, system.delays)

    def make_trial():
        arrays = _signature_arrays(system)

        def trial(t: int) -> None:
            sinrs[t] = _mmse_sinrs(
                _signatures(system, deltas, trial_seed(system.seed, t),
                            arrays), system.noise_variance)

        return trial

    _run_interleaved(make_trial, trials, _trial_workers(trials))
    powers = np.abs(system.amplitudes) ** 2
    return sinrs, _summarize(sinrs, efficiency_of_user(sinrs, powers, system))


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
    nearly three times as long (K = 32, N = 64).  ``blocks`` holds every
    symbol's local block, ``(2M+1, K, 2, r, N)``: user ``k``'s column in
    the two ``rN``-row halves of the block, each half laid out as
    ``(r, N)``.  ``masks`` sends a user's chips before its whole-chip
    shift (early) to the bottom half and the late rest to the top half.
    That pattern is the same for every symbol, so the other entries keep
    the zeros they start with.  ``conj`` holds the blocks' conjugates, so
    ``top``, ``blocks`` and ``conj`` take five times the size of ``top``
    (2.3 MB at N = 64, K = 32, window 3).  The elimination's blocks are
    ``K x K`` on the Gram side and ``rN x rN`` on the row side, which
    ``row_side`` picks when users outnumber ``rN``; the row side also
    keeps every symbol's ``L_m L_m^H`` (``lower``) and the centre's
    ``2rN x 2rN`` complement.
    """

    def __init__(self, whole: np.ndarray, n_symbols: int, r: int, n: int):
        n_users = whole.size
        self.row_side = n_users > r * n
        size = min(n_users, r * n)
        early = np.arange(n) < whole[:, None]
        self.masks = np.stack([~early, early], axis=1)[:, :, None, :]
        self.top = np.empty((n_symbols, n_users, r, n), dtype=complex)
        self.blocks = np.zeros((n_symbols, n_users, 2, r, n), dtype=complex)
        self.conj = np.empty((n_symbols, n_users, 2 * r * n), dtype=complex)
        self.diagonal = np.empty((n_symbols + self.row_side, size, size),
                                 dtype=complex)
        self.links = np.empty((2, n_symbols // 2, size, size), dtype=complex)
        self.link_conj = np.empty_like(self.links)
        self.correction = np.empty((2, size, size), dtype=complex)
        if self.row_side:
            self.lower = np.empty((n_symbols, size, size), dtype=complex)
            self.centre = np.empty((2 * size, 2 * size), dtype=complex)


def _windowed_sinrs(stack: _WindowedStack,
                    noise_variance: float) -> np.ndarray:
    """Center-symbol SINRs in the (2M+1)-symbol stacked system.

    Column (k, m) of the stack ``H`` is ``amp_k * Phi_k s_k^{(m)}`` placed
    its whole chips ``w_k`` (``w_k * r`` rows) below symbol m's base row
    ``m*rN``, so it lies in row blocks m and m+1 of ``rN`` rows each.
    ``stack.top[m, k]``, of shape ``(r, N)``, is that column rotated
    cyclically by ``w_k`` chips (see :func:`_split_delays`): its chips at or
    past ``w_k`` are the top half ``T_m`` of the symbol's ``2rN x K`` local
    block ``B_m``, the chips before it the bottom half ``L_m``.  So one
    masked copy of ``top`` forms every ``B_m``, with no scatter, and one
    conjugate every ``B_m^H``; any row order inside a half serves if
    every half shares it.

    Like :func:`_mmse_sinrs` it works on the side with the smaller blocks,
    and both sides are block-tridiagonal: while users do not outnumber
    ``rN``, ``H^H H + sigma^2 I`` has 2M+1 blocks
    ``B_m^H B_m + sigma^2 I`` linked by ``L_m^H T_{m+1}``; otherwise
    ``H H^H + sigma^2 I`` has 2M+2 row blocks
    ``E_i = T_i T_i^H + L_{i-1} L_{i-1}^H + sigma^2 I`` linked by
    ``V_i = T_i L_i^H``.  Each kind of block and link, for every symbol at
    once, is one batched ``numpy.matmul``.  Block elimination toward the
    centre (Meurant, SIAM J. Matrix Anal. Appl. 13(3), 1992),
    ``S_{j+1} = D_{j+1} - U_j^H S_j^{-1} U_j`` for diagonal blocks ``D``
    and links ``U``, folds in both ends at once with one stacked
    ``numpy.linalg.solve`` per step, so a call makes ``2M`` solves of
    ``min(K, rN)``-square pivots and forms neither ``H`` nor a full Gram
    matrix.  The centre symbol's Schur complement goes to
    :func:`_gram_sinrs`, or on the row side the ``2rN x 2rN``
    ``[[E_M - c_L, V_M], [V_M^H, E_{M+1} - c_R]]`` of its rows to
    :func:`_row_sinrs`, which keeps an overloaded window accurate at high
    SINR.
    """
    n_symbols, n_users = stack.top.shape[:2]
    diagonal, links, correction = stack.diagonal, stack.links, stack.correction
    half = n_symbols // 2
    np.copyto(stack.blocks, stack.top[:, :, None], where=stack.masks)
    blocks = stack.blocks.reshape(n_symbols, n_users, -1)
    conj = np.conjugate(blocks, out=stack.conj)
    rn = conj.shape[-1] // 2
    # ``T_m`` and ``L_m`` of every symbol, and their conjugate transposes.
    # Left links run from symbol (row block) 0 toward the centre, right
    # ones from the far end: link j of row 1 belongs to symbol 2M - j.
    top = blocks[..., :rn].swapaxes(1, 2)
    bottom = blocks[..., rn:].swapaxes(1, 2)
    top_h, bottom_h = conj[..., :rn], conj[..., rn:]
    if stack.row_side:
        # ``E_i = T_i T_i^H + L_{i-1} L_{i-1}^H``; ``V_m^H`` is not formed
        # where ``V_m`` is.
        np.matmul(top, top_h, out=diagonal[:-1])
        np.matmul(bottom, bottom_h, out=stack.lower)
        diagonal[1:-1] += stack.lower[:-1]
        diagonal[-1] = stack.lower[-1]
        np.matmul(top[:half], bottom_h[:half], out=links[0])
        np.matmul(bottom[half + 1:], top_h[half + 1:], out=links[1, ::-1])
        np.matmul(top[half], bottom_h[half], out=stack.centre[:rn, rn:])
    else:
        # ``B_m^H B_m = conj(B_m^T) @ B_m``; two neighbouring symbols are
        # linked by the product of the halves they share.
        np.matmul(conj, blocks.swapaxes(1, 2), out=diagonal)
        np.matmul(bottom_h[:half], top[1:half + 1], out=links[0])
        np.matmul(top_h[half + 1:], bottom[half:-1], out=links[1, ::-1])
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
    return _row_sinrs(centre, blocks[half].T)


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

    The delay vectors, plain and ramped (:func:`_split_delays`), are made
    once per call, and the trials run on :func:`_run_interleaved`.  A
    trial forms all ``(2*window+1) * K`` signatures, already rotated by
    their whole chips, in one batched FFT, and the windowed system goes
    through the centre-symbol block elimination of :func:`_windowed_sinrs`,
    whose pivots are ``min(K, rN)`` square, so a window costs about
    ``(2*window+1) * min(K, rN)**3`` rather than ``((2*window+1) * K)**3``.
    The reduced system is the unrotated centre symbol, as one
    :func:`run_trials` trial at the delays modulo one chip forms it.  No
    delay/pulse matrix is built.  At
    N = 64, beta = 0.5, window 3 and 32 trials per call, a trial took
    0.76-0.78 ms (minimum over 15 calls; 3 runs) on two workers against
    1.30 ms on one, one BLAS thread, 2 vCPUs.  At beta = 4 (K = 256 >
    rN = 128) an overloaded trial took 26.3-26.8 ms on one worker and
    14.9-16.1 ms on two (medians of 5 calls of 6 trials; 3 runs).

    When users outnumber the ``rN`` rows of one symbol the windowed SINR
    sits above the reduced one by far more than the trial noise, and the
    gap shrinks with N (about as ``N**-0.75``): at ``K = 4N``, window 3,
    RRC 0.22, ``N0 = 0.1`` and 6 trials it measured 0.10-0.12 at N=16,
    0.064-0.068 at N=32 and 0.038-0.041 at N=64 over three seeds, against
    standard errors of 0.0007-0.006, and a wider window does not close it.
    It is a finite-size effect of the overloaded stack; under-loaded
    systems show no gap beyond their noise.
    """
    system = FiniteSystem(spreading_factor, n_users, oversampling, waveform,
                          np.ones(n_users), delays, noise_density, seed)
    if window < 2:
        raise ValueError("window must be at least 2 symbols")
    if trials < 1:
        raise ValueError("need at least one trial")

    n, r = spreading_factor, oversampling
    whole, deltas, rotated_deltas = _split_delays(waveform, n, r,
                                                  system.delays)
    sigma2 = system.noise_variance
    n_symbols = 2 * window + 1
    win_sinr = np.empty((trials, n_users))
    red_sinr = np.empty((trials, n_users))

    def make_trial():
        draws = np.empty((2, n, n_users, n_symbols))
        spreading = np.empty((n_symbols, n_users, n), dtype=complex)
        centre = np.empty((n_users, r, n), dtype=complex)
        stack = _WindowedStack(whole, n_symbols, r, n)

        def trial(t: int) -> None:
            _draw_spreading(trial_seed(seed, t), draws, spreading)
            coeffs = np.fft.ifft(spreading, axis=-1, out=spreading)
            _circulant_signatures(rotated_deltas, coeffs, stack.top)
            win_sinr[t] = _windowed_sinrs(stack, sigma2)
            _circulant_signatures(deltas, coeffs[window], centre)
            red_sinr[t] = _mmse_sinrs(
                centre.swapaxes(1, 2).reshape(n_users, r * n).T, sigma2)

        return trial

    _run_interleaved(make_trial, trials, _trial_workers(trials))
    windowed, reduced = (
        _summarize(sinrs, efficiency_of_user(sinrs, 1.0, system))
        for sinrs in (win_sinr, red_sinr))
    return PairedSummaries(windowed=windowed, reduced=reduced)
