"""Large-system (K, N -> infinity at fixed load) performance formulas.

Implements the two solver routes for the limiting MMSE performance of
asynchronous code-division multiple access with random spreading.  Time is
measured in chips (see :mod:`cdmalimits.waveforms`), so delays lie in
``[0, 1)`` and the discrete-time noise variance is ``r * N_0``:

* the matrix route — a frequency-dependent ``r x r`` positive-definite
  field ``Upsilon(Omega)`` solving a fixed-point matrix equation, from
  which every (power, delay) user class gets its SINR as a quadratic-form
  integral over the normalized band;
* the scalar route — valid when the delay-dependent part of
  ``delta delta^H`` averages out over each power level's delays (checked
  from the law's atoms), where a single scalar multiuser efficiency solves
  a one-dimensional fixed point and carries a per-frequency efficiency
  density.

Plus the closed sinc-bandwidth family and the synchronous baseline it
degenerates to.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import FrequencyGrid, bisect, fixed_point
from .waveforms import ChipWaveform, _check_oversampling, _delta_components

TWO_PI = 2.0 * np.pi


class ZeroPowerError(ValueError):
    """Raised when a multiuser efficiency is requested for zero power."""


class HypothesisViolationError(ValueError):
    """Raised when the scalar solver's validity conditions fail."""


@dataclass(frozen=True, eq=False)
class PowerDelayLaw:
    """Discrete joint law of received power and sub-chip delay.

    Atoms are parallel arrays ``(powers, delays, weights)`` with weights
    summing to one; delays are in chips.  The scalar route's validity is
    worked out from the atoms (see :func:`solve_efficiency_scalar`).
    """

    powers: np.ndarray
    delays: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        delays = np.asarray(self.delays, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if not (powers.shape == delays.shape == weights.shape):
            raise ValueError("law atom arrays must share one shape")
        if powers.ndim != 1 or powers.size == 0:
            raise ValueError("law needs at least one atom")
        if np.any(powers < 0):
            raise ValueError("powers must be nonnegative")
        if np.any(delays < 0):
            raise ValueError("delays must be nonnegative")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        for name, arr in (("powers", powers), ("delays", delays),
                          ("weights", weights)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_atoms(self) -> int:
        return self.powers.size

    def power_marginal(self):
        """Distinct power values and their total weights (delays summed out).

        Atoms sharing a power level are merged, so laws built as a power
        law crossed with a dense delay grid cost the scalar solvers one
        term per power level instead of one per atom.
        """
        unique, inverse = np.unique(self.powers, return_inverse=True)
        weights = np.bincount(inverse, weights=self.weights,
                              minlength=unique.size)
        return unique, weights

    def mean_power(self) -> float:
        return float(np.dot(self.weights, self.powers))


def uniform_delay_grid(n_delays: int) -> np.ndarray:
    """Equally spaced delay atoms ``i / n`` on one chip ``[0, 1)``."""
    if n_delays < 1:
        raise ValueError("need at least one delay atom")
    return np.arange(n_delays) / n_delays


def equal_power_uniform_delays(n_delays: int = 64,
                               power: float = 1.0) -> PowerDelayLaw:
    """Unit-weight power atom crossed with a uniform delay grid."""
    delays = uniform_delay_grid(n_delays)
    return PowerDelayLaw(
        powers=np.full(n_delays, float(power)),
        delays=delays,
        weights=np.full(n_delays, 1.0 / n_delays),
    )


def product_law(powers, power_weights, n_delays: int = 64) -> PowerDelayLaw:
    """Independent product of a discrete power law and uniform delays."""
    powers = np.asarray(powers, dtype=float)
    pw = np.asarray(power_weights, dtype=float)
    delays = uniform_delay_grid(n_delays)
    grid_p, grid_t = np.meshgrid(powers, delays, indexing="ij")
    grid_w = np.repeat(pw / n_delays, n_delays)
    return PowerDelayLaw(
        powers=grid_p.ravel(),
        delays=grid_t.ravel(),
        weights=grid_w,
    )


def synchronous_law(powers=(1.0,), power_weights=(1.0,),
                    delay: float = 0.0) -> PowerDelayLaw:
    """All users at one common delay (chip-synchronous when zero)."""
    powers = np.asarray(powers, dtype=float)
    pw = np.asarray(power_weights, dtype=float)
    return PowerDelayLaw(
        powers=powers,
        delays=np.full(powers.shape, float(delay)),
        weights=pw,
    )


@dataclass(frozen=True, eq=False)
class SystemLaw:
    """Asymptotic system description.

    Attributes
    ----------
    load : float
        Users per chip ``beta = K/N``.
    noise_density : float
        One-sided white-noise level ``N_0``; the per-chip SNR at unit
        power is ``E / N_0``.
    oversampling : int
        Receiver samples per chip ``r``.
    waveform : ChipWaveform
    law : PowerDelayLaw
    """

    load: float
    noise_density: float
    oversampling: int
    waveform: ChipWaveform
    law: PowerDelayLaw

    def __post_init__(self):
        if self.load < 0:
            raise ValueError("load must be nonnegative")
        if self.noise_density <= 0:
            raise ValueError("noise density must be positive")
        _check_oversampling(self.waveform, self.oversampling)
        if np.any(self.law.delays >= 1.0):
            raise ValueError("law delays must lie in [0, T_c)")

    @property
    def noise_variance(self) -> float:
        """Discrete-time noise variance ``r * N_0``."""
        return self.oversampling * self.noise_density

    @property
    def snr(self) -> float:
        """Per-chip signal-to-noise ratio ``E / N_0`` at unit power."""
        return self.waveform.energy / self.noise_density


@dataclass(frozen=True, eq=False)
class UpsilonField:
    """The positive-definite matrix field of the matrix solver on a grid."""

    grid: FrequencyGrid
    matrices: np.ndarray  # (grid.count, r, r)


def _quadratic_forms(deltas: np.ndarray, field: np.ndarray) -> np.ndarray:
    """``delta^H Upsilon delta`` for each (atom, frequency): shape (A, M)."""
    return np.real(np.einsum("ams,msk,amk->am", np.conj(deltas), field,
                             deltas, optimize=True))


def solve_upsilon(sys: SystemLaw, grid: FrequencyGrid | None = None):
    """Solve the matrix fixed point for the field ``Upsilon(Omega)``.

    The field satisfies, at every grid frequency,
    ``inv(Upsilon) = sigma^2 I + beta * sum_atoms w * lam * delta delta^H
    / (1 + SINR_atom)`` where ``SINR_atom = (lam/2pi) * integral
    delta^H Upsilon delta`` and ``sigma^2 = r N_0``.  The iteration
    stops at a sup-norm step of 1e-10 or after 10000 steps.

    Returns ``(UpsilonField, FixedPointReport)``; a non-converged run is
    reported, never silent.
    """
    if grid is None:
        grid = FrequencyGrid.midpoints(512)
    r = sys.oversampling
    law = sys.law
    sigma2 = sys.noise_variance
    deltas = _delta_components(sys.waveform, r, grid.points, law.delays)
    eye = np.eye(r, dtype=complex)
    init = np.broadcast_to(eye / sigma2,
                           (grid.count, r, r)).copy()

    quad_scale = grid.spacing / TWO_PI

    def step(field: np.ndarray) -> np.ndarray:
        forms = _quadratic_forms(deltas, field)  # (A, M)
        sinr = law.powers * quad_scale * forms.sum(axis=1)  # (A,)
        coeff = sys.load * law.weights * law.powers / (1.0 + sinr)
        interference = np.einsum("a,ams,amk->msk", coeff, deltas,
                                 np.conj(deltas), optimize=True)
        return np.linalg.inv(sigma2 * eye[None, :, :] + interference)

    state, report = fixed_point(step, init)
    return UpsilonField(grid=grid, matrices=state), report


def sinr_user(field: UpsilonField, sys: SystemLaw,
              power: float | np.ndarray,
              delay: float | np.ndarray) -> float | np.ndarray:
    """Limiting MMSE SINR of a user class with the given power and delay.

    ``SINR = (power/2pi) * integral delta^H(Omega, delay) Upsilon(Omega)
    delta(Omega, delay) dOmega`` over the solved grid.  Delays (in chips)
    outside ``[0, 1)`` are reduced modulo the chip (a whole-chip shift only
    rotates the phase of the delay vector and cancels in the form).

    ``power`` and ``delay`` may be arrays, which broadcast against each
    other: all classes then share one pass over the delay vectors and the
    field, and an array of SINRs is returned.  Scalars give a float.
    """
    power, delay = np.broadcast_arrays(np.asarray(power, dtype=float),
                                       np.asarray(delay, dtype=float))
    taus = np.mod(delay, 1.0)
    deltas = _delta_components(sys.waveform, sys.oversampling,
                               field.grid.points, taus.ravel())
    forms = _quadratic_forms(deltas, field.matrices)
    sinrs = power * field.grid.spacing / TWO_PI * \
        forms.sum(axis=1).reshape(taus.shape)
    return float(sinrs) if sinrs.ndim == 0 else sinrs


def efficiency_of_user(sinr: float | np.ndarray, power: float | np.ndarray,
                       sys: SystemLaw) -> float | np.ndarray:
    """Multiuser efficiency: SINR over the single-user matched-filter SNR.

    ``eta = sinr * N_0 / (power * E)``; raises "zero power" if any
    ``power <= 0``.  ``sinr`` and ``power`` broadcast against each other
    as in :func:`sinr_user`: arrays give an array, scalars a float.
    """
    sinr, power = np.broadcast_arrays(np.asarray(sinr, dtype=float),
                                      np.asarray(power, dtype=float))
    if np.any(power <= 0):
        raise ZeroPowerError("zero power")
    eta = sinr * sys.noise_density / (power * sys.waveform.energy)
    return float(eta) if eta.ndim == 0 else eta


@dataclass(frozen=True, eq=False)
class EfficiencySpectrum:
    """Per-frequency multiuser efficiency density and its integral."""

    frequencies: np.ndarray  # rad per chip over the pulse support
    density: np.ndarray     # eta(omega), dimensionless
    scalar: float           # eta = (1/2pi) * integral density


@functools.lru_cache(maxsize=64)
def _delays_balanced(law: PowerDelayLaw, degree: int) -> bool:
    """Whether each nonzero power level's delay moments of orders
    ``1..degree`` vanish (below 1e-12 of the level's weight); a zero-power
    level adds no interference on either route.  Cached per law object,
    since the capacity inversions re-noise one system many times."""
    levels = np.unique(law.powers[law.powers > 0])[:, None]
    level_weights = (law.powers == levels) * law.weights  # (levels, atoms)
    moments = level_weights @ np.exp(TWO_PI * 1j * np.outer(
        law.delays, np.arange(1, degree + 1)))
    return bool(np.all(np.abs(moments)
                       <= 1e-12 * level_weights.sum(axis=1)[:, None]))


def _support_grid(waveform: ChipWaveform, n_points: int) -> np.ndarray:
    """Midpoint grid over the (symmetric) pulse support in rad per chip."""
    edge = waveform._support_limit()
    spacing = 2.0 * edge / n_points
    return -edge + (np.arange(n_points) + 0.5) * spacing


def _efficiency_density(power_gain: np.ndarray, interference: float,
                        energy: float) -> np.ndarray:
    """Closed-form density: ``1/eta(w) = E/|Phi|^2 + interference``."""
    out = np.zeros_like(power_gain)
    positive = power_gain > 0
    out[positive] = 1.0 / (energy / power_gain[positive] + interference)
    return out


def solve_efficiency_scalar(sys: SystemLaw,
                            n_points: int = 2048) -> EfficiencySpectrum:
    """Scalar-route multiuser efficiency with its spectral density.

    Valid when the oscillating part of ``delta delta^H``, a trigonometric
    polynomial of degree ``d = ceil(2B) - 1`` in the delay for one-sided
    bandwidth ``B``, averages out over each nonzero power level's delays:
    the level's moments ``sum w * exp(2*pi*j*k*tau)`` must vanish for
    ``k = 1..d``.  Any law passes when ``B <= 1/2`` (``d = 0``); an
    equal-weight grid of ``n`` evenly spaced delays passes exactly when
    ``n > d``.  Otherwise raises "corollary hypotheses violated".
    The density obeys ``1/eta(w) = E/|Phi(w)|^2 + beta * sum_atoms w*lam /
    (N_0/E + lam*eta)`` with ``eta = (1/2pi) * integral eta(w) dw``; the
    scalar is the ITP root (``numerics.bisect``) of ``eta - (1/2pi) *
    integral eta(w) dw`` on ``(0, 1]``, where the map is monotone.
    """
    if not _delays_balanced(sys.law, sys.waveform.min_oversampling - 1):
        raise HypothesisViolationError("corollary hypotheses violated")
    waveform = sys.waveform
    energy = waveform.energy
    omegas = _support_grid(waveform, n_points)
    spacing = omegas[1] - omegas[0]
    gain = waveform.power_spectrum(omegas)
    powers, weights = sys.law.power_marginal()
    noise_over_energy = sys.noise_density / energy
    energy_over_gain = energy / gain[gain > 0]

    def integrated(eta: float) -> float:
        interference = sys.load * float(
            np.sum(weights * powers / (noise_over_energy + powers * eta)))
        return float(np.sum(1.0 / (energy_over_gain + interference))) \
            * spacing / TWO_PI

    # Memoized so the eta = 1 shortcut and bisect's upper end share one
    # quadrature pass.
    residual = functools.cache(lambda eta: eta - integrated(eta))
    if sys.load == 0 or residual(1.0) <= 0.0:
        # eta = 1 is exact here; don't launder it through the quadrature.
        interference = sys.load * float(
            np.sum(weights * powers / (noise_over_energy + powers)))
        density = _efficiency_density(gain, interference, energy)
        return EfficiencySpectrum(frequencies=omegas, density=density,
                                  scalar=1.0)
    scalar = bisect(residual, 1e-15, 1.0, tol=1e-12)
    interference = sys.load * float(
        np.sum(weights * powers / (noise_over_energy + powers * scalar)))
    density = _efficiency_density(gain, interference, energy)
    scalar = float(density.sum()) * spacing / TWO_PI
    return EfficiencySpectrum(frequencies=omegas, density=density,
                              scalar=scalar)


def _scalar_root(load: float, bandwidth_scale: float, powers, weights,
                 noise_density: float, tol: float = 1e-13) -> float:
    """Positive root of ``1/eta = 1 + (beta/alpha) sum w*lam/(N0+lam*eta)``."""
    powers = np.asarray(powers, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if load == 0:
        return 1.0

    def residual(eta: float) -> float:
        s = float(np.sum(weights * powers /
                         (noise_density + powers * eta)))
        return 1.0 + (load / bandwidth_scale) * s - 1.0 / eta

    if residual(1.0) == 0.0:
        return 1.0
    return bisect(residual, 1e-300, 1.0, tol=tol)


def solve_efficiency_sinc(load: float, relative_bandwidth: float, powers,
                          weights, noise_density: float) -> float:
    """Multiuser efficiency of the flat bandlimited pulse family.

    Solves ``1/eta = 1 + (beta/alpha) * sum w*lam/(N0 + lam*eta)`` with
    the ITP root finder (``numerics.bisect``) on ``(0, 1]``; the bandwidth
    enters only through the effective load ``beta/alpha``.
    """
    if relative_bandwidth <= 0:
        raise ValueError("relative bandwidth must be positive")
    if load < 0:
        raise ValueError("load must be nonnegative")
    return _scalar_root(load, relative_bandwidth, powers, weights,
                        noise_density)


def solve_efficiency_sync(load: float, powers, weights,
                          noise_density: float) -> float:
    """Synchronous-system multiuser efficiency (unit-bandwidth case)."""
    if load < 0:
        raise ValueError("load must be nonnegative")
    return _scalar_root(load, 1.0, powers, weights, noise_density)

