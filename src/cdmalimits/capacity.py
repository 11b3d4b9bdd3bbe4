"""Capacity per chip and spectral efficiency accounting.

Two routes to total capacity per chip for the large-system limit:

* ``capacity_sync_closed_form`` — the closed-form synchronous expression in
  the load and the per-chip SNR, through the equal-power efficiency;
* ``capacity_constrained`` — the pulse-constrained asynchronous capacity
  in the free-energy closed form (generalizing Verdu-Shamai, IEEE Trans.
  IT 45(2), 1999) of a pulse, a load and power levels (``_capacity``) at
  one scalar-route efficiency root: elementary for the flat and RRC
  pulses, a midpoint rule for tabulated ones.  Two heavier routes are
  kept in the tests as oracles: the I-MMSE route (Guo-Shamai-Verdu, IEEE
  Trans. IT 51(4), 2005), which integrates the per-class MMSE over the
  SNR axis, and the same free energy on a fine midpoint grid.

Time is measured in chips, so the time-bandwidth product is the one-sided
bandwidth ``B`` (cycles per chip) stored on the waveform.  Spectral
efficiency divides capacity per chip by it, and ``snr_for_ebn0`` inverts
the energy-per-bit accounting ``Eb/N0 = load * snr / C(snr)`` with the ITP
bracketed root finder in ``ln snr``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .large_system import (
    SystemLaw,
    _balanced_marginal,
    _band_root,
    _equal_power_root,
)
from .numerics import SolverError, _check_load, bisect
from .waveforms import LOG2_E, ChipWaveform

#: SNR range searched for an Eb/N0 target, and its root's relative tolerance.
_MIN_SNR = 1e-9
_MAX_SNR = 1e18
_EBN0_REL_TOL = 1e-8


def _check_snr(snr: float) -> None:
    """Raises ``ValueError`` unless the per-chip SNR is finite and
    nonnegative."""
    if not 0 <= snr < math.inf:
        raise ValueError("snr must be finite and nonnegative")


def capacity_sync_closed_form(load: float, snr: float) -> float:
    """Synchronous total capacity per chip (bits/chip).

    Verdu-Shamai (IEEE Trans. IT 45(2), 1999) written through the
    equal-power efficiency ``eta`` at ``N_0 = 1/snr``:
    ``log2(e) * [beta*ln(1 + snr*eta) - ln(eta) - (1 - eta)]``, which
    does not cancel at high SNR; returns 0 at zero SNR or zero load.
    Raises ``ValueError`` unless both are finite and nonnegative.
    """
    _check_load(load)
    _check_snr(snr)
    if snr == 0.0 or load == 0.0:
        return 0.0
    eta = _equal_power_root(load, 1.0 / snr)
    return LOG2_E * (load * math.log1p(snr * eta) - math.log(eta)
                     - (1.0 - eta))


def capacity_constrained(sys: SystemLaw, snr: float | None = None) -> float:
    """Pulse-constrained asynchronous capacity per chip (bits/chip) of the
    system's power marginal at per-chip SNR ``snr`` (default ``E/N_0``),
    for a law that passes the gate of ``solve_efficiency_scalar``."""
    if snr is None:
        snr = sys.snr
    _check_snr(snr)
    if sys.load == 0.0 or snr == 0.0:
        return 0.0
    return _capacity(sys.waveform, sys.load, *_balanced_marginal(sys), snr)


def _capacity(waveform: ChipWaveform, load: float, powers: np.ndarray,
              weights: np.ndarray, snr: float) -> float:
    """Capacity per chip of power levels at a positive per-chip SNR.

    Free-energy closed form at the scalar efficiency ``eta`` of the band
    root at ``N_0 = E/snr``: ``C = beta * sum_levels w*log2(1 +
    lam*snr*eta) + F`` with the waveform's free-energy band mean ``F =
    (1/2pi) * integral [log2(1 + x*|Phi|^2) - log2(e) * x*|Phi|^2 / (1 +
    x*|Phi|^2)] dw`` at the root's interference level ``x``.
    """
    _, eta, free_energy = _band_root(waveform, load, powers, weights,
                                     waveform.energy / snr)
    user_term = float(np.sum(weights * np.log1p(powers * snr * eta)))
    return load * LOG2_E * user_term + free_energy


def spectral_efficiency(capacity_per_chip: float,
                        waveform: ChipWaveform) -> float:
    """Bits/s/Hz: capacity per chip over the time-bandwidth product.

    ``C / B`` with the waveform's one-sided bandwidth ``B`` in cycles per
    chip, positive for every constructed waveform.
    """
    return capacity_per_chip / waveform.bandwidth


def snr_for_ebn0(target_ebn0: float, load: float, capacity_fn) -> float:
    """Invert ``Eb/N0 = load * snr / C(snr)`` for the SNR.

    ``capacity_fn`` maps an SNR to bits/chip and must make the ratio
    nondecreasing in SNR.  After a geometric bracket search from
    ``snr = 1`` (down to ``1e-9`` or up to ``1e18``), the ITP root
    finder (``numerics.bisect``) solves ``ln(Eb/N0) = ln(target)`` in
    ``ln snr``, so the result lies within ``1e-8 / 2`` of the root in
    relative terms.  Raises "unreachable Eb/N0" when the target lies below
    the channel's minimum or beyond the searchable range, and
    ``ValueError`` unless the target and the load are finite and positive.
    """
    if not 0 < target_ebn0 < math.inf:
        raise ValueError("target Eb/N0 must be finite and positive")
    if not 0 < load < math.inf:
        raise ValueError("load must be finite and positive")
    log_target = math.log(target_ebn0)

    @functools.cache
    def excess(log_snr: float) -> float:
        """``ln(Eb/N0 / target)`` at ``snr = exp(log_snr)``."""
        snr = math.exp(log_snr)
        c = capacity_fn(snr)
        if c <= 0:
            return -math.inf
        return math.log(load * snr / c) - log_target

    # Step from snr = 1 by factors of 8 toward the root, down to
    # _MIN_SNR or up to _MAX_SNR, and keep the last step as the bracket.
    lo = hi = 1.0
    while excess(math.log(lo)) > 0.0:
        if lo <= _MIN_SNR:
            raise SolverError("unreachable Eb/N0")
        hi, lo = lo, max(lo / 8.0, _MIN_SNR)
    while excess(math.log(hi)) < 0.0:
        lo, hi = hi, hi * 8.0
        if hi > _MAX_SNR:
            raise SolverError("unreachable Eb/N0")
    if lo == hi:
        return hi
    return math.exp(bisect(excess, math.log(lo), math.log(hi),
                           tol=_EBN0_REL_TOL))


def linear_to_decibels(value: float) -> float:
    """``10 * log10(value)``."""
    if value <= 0:
        raise ValueError("decibel conversion needs a positive value")
    return 10.0 * math.log10(value)


def decibels_to_linear(decibels: float) -> float:
    """``10 ** (decibels / 10)``."""
    return 10.0 ** (decibels / 10.0)
