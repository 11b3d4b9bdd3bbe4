"""Closed forms the benchmark checks the program's outputs against.

Everything here is computed apart from the package: the Verdu-Shamai
synchronous capacity (IEEE Trans. IT 45(2), 1999), the free-energy form of
the pulse-constrained capacity fed by an efficiency density solved here
from ``ChipWaveform.power_spectrum``, an Eb/N0 inversion by Brent's method,
the equal-power quadratic root of the flat-pulse efficiency, and the K x K
MMSE identity ``SINR_k = 1/(sigma^2 [(H^H H + sigma^2 I)^-1]_kk) - 1``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

LOG2_E = 1.0 / math.log(2.0)


def capacity_sync(load: float, snr: float) -> float:
    """Verdu-Shamai total capacity per chip of synchronous random CDMA."""
    root = math.sqrt(load)
    f = (math.sqrt(snr * (1.0 + root) ** 2 + 1.0)
         - math.sqrt(snr * (1.0 - root) ** 2 + 1.0)) ** 2
    return (load * math.log2(1.0 + snr - f / 4.0)
            + math.log2(1.0 + load * snr - f / 4.0)
            - LOG2_E * f / (4.0 * snr))


def capacity_free_energy(waveform, load: float, snr: float,
                         density_points: int = 2048) -> float:
    """Pulse-constrained capacity per chip of equal-power users.

    ``C = beta*log2(1 + snr*eta) + (T_c/2pi) * integral [log2(1 + x(w))
    - log2(e) * x(w)/(1 + x(w))] dw`` with ``x = I*|Phi|^2/E``, where the
    interference level ``I = (beta/T_c)/(1/snr + eta)`` and the efficiency
    ``eta = (1/2pi) * integral 1/(E/|Phi|^2 + I) dw`` solve each other.
    The integrals use the midpoint grid over the pulse support.
    """
    energy = waveform.energy
    tc = waveform.chip_interval
    edge = 2.0 * math.pi * waveform.bandwidth
    spacing = 2.0 * edge / density_points
    omegas = -edge + (np.arange(density_points) + 0.5) * spacing
    gain = np.asarray(waveform.power_spectrum(omegas), dtype=float)
    gain = gain[gain > 0] / energy
    weight = spacing / (2.0 * math.pi)

    def interference(eta: float) -> float:
        return load / tc / (1.0 / snr + eta)

    def residual(eta: float) -> float:
        return eta - weight * float(np.sum(gain / (1.0 + interference(eta)
                                                   * gain)))

    eta = brentq(residual, 1e-300, 1.0, xtol=1e-300, rtol=1e-15)
    x = interference(eta) * gain
    penalty = tc * weight * float(np.sum(np.log2(1.0 + x)
                                         - LOG2_E * x / (1.0 + x)))
    return load * math.log2(1.0 + snr * eta) + penalty


def snr_at_ebn0(ebn0: float, load: float, capacity) -> float:
    """SNR where ``load * snr / capacity(snr)`` equals ``ebn0``."""
    return math.exp(brentq(
        lambda u: load * math.exp(u) / capacity(math.exp(u)) - ebn0,
        math.log(1e-6), math.log(1e9), xtol=1e-14, rtol=1e-15))


def gamma_tolerance(capacity, snr: float, capacity_rel_tol: float,
                    inversion_rel_tol: float = 1e-8) -> float:
    """Relative error allowed on a spectral efficiency solved at fixed Eb/N0.

    A relative capacity error ``e`` moves the solved SNR, and with it the
    spectral efficiency, by ``e/(1 - s)`` where ``s = dlnC/dln(snr)`` is the
    capacity's elasticity; the inversion adds its own relative tolerance.
    """
    h = 1e-4
    slope = (math.log(capacity(snr * math.exp(h)))
             - math.log(capacity(snr * math.exp(-h)))) / (2.0 * h)
    return capacity_rel_tol / (1.0 - slope) + inversion_rel_tol


def sinc_efficiency_root(load: float, alpha: float, n0: float) -> float:
    """Positive root of ``eta^2 + eta*(N0 + beta/alpha - 1) - N0 = 0``."""
    b = n0 + load / alpha - 1.0
    return (-b + math.sqrt(b * b + 4.0 * n0)) / 2.0


def kxk_sinrs(signatures: np.ndarray, noise_variance: float) -> np.ndarray:
    """Per-user MMSE SINRs from the K x K Gram matrix."""
    h = np.asarray(signatures)
    gram = h.conj().T @ h + noise_variance * np.eye(h.shape[1])
    diag = np.real(np.diag(np.linalg.inv(gram)))
    return 1.0 / (noise_variance * diag) - 1.0
