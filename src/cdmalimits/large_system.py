"""Large-system (K, N -> infinity at fixed load) performance formulas.

Implements the two solver routes for the limiting MMSE performance of
asynchronous code-division multiple access with random spreading.  Time is
measured in chips (see :mod:`cdmalimits.waveforms`), so delays lie in
``[0, 1)`` and the discrete-time noise variance is ``r * N_0``:

* the matrix route — a frequency-dependent ``r x r`` positive-definite
  field ``Upsilon(Omega)`` solving a fixed-point matrix equation, from
  which every (power, delay) user class gets its SINR as a quadratic-form
  integral over the normalized band.  A delay enters that form only
  through the phases ``exp(2*pi*j*nu*tau)`` of the V in-band aliases, so
  the classes are read from the field's alias moments, ``SINR = lam * Re
  sum_{|k| < V} exp(-2*pi*j*k*tau) * S_k`` with ``S_k`` the band mean of
  the entries of ``B^H Upsilon B`` with ``nu - nu' = k``, at O(V) per
  class;
* the scalar route — valid when the delay-dependent part of
  ``delta delta^H`` averages out over each power level's delays (checked
  from the law's atoms), where a single scalar multiuser efficiency solves
  a one-dimensional fixed point and carries a per-frequency efficiency
  density.  The fixed point needs only the band mean of that density,
  which the waveform gives in closed form for the flat and RRC pulses
  (``ChipWaveform._band_means``), so only tabulated pulses and the
  sampled density rows use a midpoint grid over the pulse support.

Plus the closed sinc-bandwidth family and the synchronous baseline it
degenerates to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    SolverError,
    _check_load,
    _check_noise_density,
    _read_only,
    bisect,
)
from .waveforms import (
    TWO_PI,
    ChipWaveform,
    _alias_basis,
    _check_oversampling,
    _delta_components,
    _midpoints,
    sinc_waveform,
)

FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 10000


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
        powers = _read_only(self.powers, float)
        delays = _read_only(self.delays, float)
        weights = _read_only(self.weights, float)
        if not (powers.shape == delays.shape == weights.shape):
            raise ValueError("law atom arrays must share one shape")
        if powers.ndim != 1 or powers.size == 0:
            raise ValueError("law needs at least one atom")
        if not all(np.all(np.isfinite(arr))
                   for arr in (powers, delays, weights)):
            raise ValueError("law atoms must be finite")
        if np.any(powers < 0):
            raise ValueError("powers must be nonnegative")
        if np.any(delays < 0):
            raise ValueError("delays must be nonnegative")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "weights", weights)

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
        _check_load(self.load)
        _check_noise_density(self.noise_density)
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
    """The matrix solver's positive-definite field at its band midpoints."""

    omegas: np.ndarray    # (M,) rad per chip
    matrices: np.ndarray  # (M, r, r)


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the matrix route's plain iteration: the steps taken, the
    last step's residual, and whether it met the stopping rule."""

    iterations: int
    final_residual: float
    converged: bool


def _form_operands(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delay vectors ``(A, M, r)`` laid out for :func:`_quadratic_forms`:
    ``conj(delta)`` as an ``(M, r, A)`` view, and ``delta`` as
    ``(A*M, r, 1)`` columns."""
    n_atoms, n_freq, r = deltas.shape
    return (np.conj(deltas).transpose(1, 2, 0),
            deltas.reshape(n_atoms * n_freq, r, 1))


def _quadratic_forms(field: np.ndarray, conj_rows: np.ndarray,
                     columns: np.ndarray) -> np.ndarray:
    """``delta^H Upsilon delta`` for each (atom, frequency): shape (A, M).

    The two batched products that numpy's ``einsum("ams,msk,amk->am",
    optimize=True)`` makes for ``r >= 2``, on the operands of
    :func:`_form_operands`: ``(M, k, s) @ (M, s, A)`` forms ``delta^H
    Upsilon``, and ``(A*M, 1, r) @ (A*M, r, 1)`` its product with
    ``delta``.  Bit for bit the einsum's result; at ``r = 1``, where
    einsum forms ``|delta|^2`` first, within rounding of it.
    """
    n_freq, r, n_atoms = conj_rows.shape
    rows = np.matmul(field.transpose(0, 2, 1), conj_rows)  # (M, k, A)
    rows = rows.transpose(2, 0, 1).reshape(n_atoms * n_freq, 1, r)
    return np.real(np.matmul(rows, columns).reshape(n_atoms, n_freq))


def _interference(coeff: np.ndarray, deltas: np.ndarray,
                  conj_cols: np.ndarray) -> np.ndarray:
    """``sum_atoms coeff * delta delta^H`` at each frequency: (M, r, r).

    The products that numpy's ``einsum("a,ams,amk->msk", optimize=True)``
    makes for two or more atoms: the vectors scaled by ``coeff``, viewed as
    ``(M, s, A)``, times ``conj(delta)`` as the ``(M, A, k)`` view
    ``conj_cols``.  For a single atom einsum forms the outer product by
    ``multiply``, which this ``matmul`` matches only within rounding.
    """
    scaled = deltas * coeff[:, None, None]
    return np.matmul(scaled.transpose(1, 2, 0), conj_cols)


def _checked_start(start_sinrs, n_atoms: int) -> np.ndarray:
    """``start_sinrs`` as ``n_atoms`` floats; raises ``ValueError``, naming
    it, unless it broadcasts to the atoms and is finite and nonnegative."""
    start = np.asarray(start_sinrs, dtype=float)
    try:
        start = np.broadcast_to(start, (n_atoms,))
    except ValueError:
        raise ValueError(
            f"start_sinrs of shape {start.shape} does not broadcast to the "
            f"law's {n_atoms} atoms") from None
    if not np.all(np.isfinite(start)) or np.any(start < 0):
        raise ValueError("start_sinrs must be finite and nonnegative")
    return start


def solve_upsilon(sys: SystemLaw, grid_size: int = 512, start_sinrs=None):
    """Solve the matrix fixed point for the field ``Upsilon(Omega)``.

    On the midpoints of ``grid_size`` equal cells of ``(-pi, pi]`` (even
    and at least 2, else ``ValueError``) the field satisfies
    ``inv(Upsilon) = sigma^2 I + beta * sum_atoms w * lam * delta delta^H
    / (1 + SINR_atom)`` where ``SINR_atom = (lam/2pi) * integral
    delta^H Upsilon delta`` and ``sigma^2 = r N_0``.

    Each step replaces the field by the right side's inverse.  That map is
    order-preserving (a larger field gives larger SINRs, so less
    interference, so a larger next field: Tse and Hanly's effective
    interference, a standard interference function in Yates' sense), so
    its plain iteration reaches the one fixed point from any start, and
    the start changes only the number of steps.  By default it starts at
    ``I / sigma^2``, which bounds every field the map makes, so from there
    the iterates fall monotonically.  ``start_sinrs``, per-atom SINRs
    that broadcast to the law's atoms (finite and nonnegative, else
    ``ValueError``), starts it instead at the right side's inverse at
    those SINRs, made as a step makes it; from the scalar route's SINRs
    (``lam * E * eta / N_0``) a balanced law needs a step or a few.  Such
    a start need not descend monotonically.  Either way the iteration
    stops once the residual, the sup norm of a step's change, is at most
    ``FIXED_POINT_TOL / E`` (the field scales as ``1/E`` when the pulse and
    ``N_0`` scale together), or after ``FIXED_POINT_MAX_ITER`` steps, and
    raises "divergence" (``SolverError``) on a step that is not finite.
    The stop bounds the last step, not the error, which is about
    ``step / (1 - rho)`` for the map's contraction factor ``rho`` from any
    start.

    The delay vectors are conjugated and laid out once per call; each step
    then makes the batched products of numpy's einsum plans directly
    (:func:`_quadratic_forms`, :func:`_interference`), bit-identical to the
    einsum formulas for ``r >= 2`` and two or more atoms, and within
    rounding of them otherwise.

    Returns ``(UpsilonField, FixedPointReport)``; a non-converged run is
    reported, never silent.
    """
    if grid_size < 2 or grid_size % 2 != 0:
        raise ValueError("grid size must be a positive even integer")
    law = sys.law
    if start_sinrs is not None:
        start_sinrs = _checked_start(start_sinrs, law.n_atoms)
    omegas = _midpoints(-np.pi, np.pi, grid_size)
    r = sys.oversampling
    sigma2 = sys.noise_variance
    deltas = _delta_components(sys.waveform, r, omegas, law.delays)
    conj_rows, columns = _form_operands(deltas)
    conj_cols = conj_rows.transpose(0, 2, 1)  # (M, A, k)
    eye = np.eye(r, dtype=complex)

    def inverse_at(sinr):
        # The right side's inverse at per-atom SINRs: one step's field.
        coeff = sys.load * law.weights * law.powers / (1.0 + sinr)
        interference = _interference(coeff, deltas, conj_cols)
        return np.linalg.inv(sigma2 * eye[None, :, :] + interference)

    if start_sinrs is None:
        field = np.broadcast_to(eye / sigma2, (grid_size, r, r)).copy()
    else:
        field = inverse_at(start_sinrs)
    quad_scale = 2.0 * np.pi / grid_size / TWO_PI
    tol = FIXED_POINT_TOL / sys.waveform.energy
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        forms = _quadratic_forms(field, conj_rows, columns)  # (A, M)
        sinr = law.powers * quad_scale * forms.sum(axis=1)  # (A,)
        stepped = inverse_at(sinr)
        if not np.all(np.isfinite(stepped)):
            raise SolverError("divergence")
        residual = float(np.max(np.abs(stepped - field)))
        field = stepped
        if residual <= tol:
            break
    report = FixedPointReport(iterations=iterations, final_residual=residual,
                              converged=residual <= tol)
    return UpsilonField(omegas=omegas, matrices=field), report


def _alias_moments(field: UpsilonField, sys: SystemLaw) -> np.ndarray:
    """The field's alias moments ``T_k``, ``k = -(V-1) .. V-1``.

    With the delay-free factor ``B(Omega)`` of :func:`_alias_basis`, the
    Gram matrices ``G = B^H Upsilon B``, shape ``(M, V, V)``, are summed
    over the grid, and ``T_k`` collects the total's entries with ``nu -
    nu' = k``, so that ``sum_Omega delta^H Upsilon delta = Re sum_k
    exp(-2*pi*j*k*tau) * T_k`` at delay ``tau``.
    """
    _, basis = _alias_basis(sys.waveform, sys.oversampling, field.omegas)
    rows = np.matmul(np.conj(basis).transpose(0, 2, 1), field.matrices)
    total = np.matmul(rows, basis).sum(axis=0)  # (V, V)
    n_alias = total.shape[0]
    return np.array([np.trace(total, offset=-k)
                     for k in range(1 - n_alias, n_alias)])


def sinr_user(field: UpsilonField, sys: SystemLaw,
              power: float | np.ndarray,
              delay: float | np.ndarray) -> float | np.ndarray:
    """Limiting MMSE SINR of a user class with the given power and delay.

    ``SINR = (power/2pi) * integral delta^H(Omega, delay) Upsilon(Omega)
    delta(Omega, delay) dOmega`` by the midpoint rule on the field's
    samples.  The delay vector factors as ``delta = exp(j*tau*Omega) * B
    e`` with ``e_nu = exp(2*pi*j*nu*tau)`` over the V in-band aliases
    (:func:`_alias_basis`), so a class enters only through the field's
    alias moments ``T_k`` (:func:`_alias_moments`): ``SINR = (power/M) *
    Re sum_{|k| < V} exp(-2*pi*j*k*tau) * T_k`` on ``M`` grid points.  The
    moments cost one pass over the field; each class then costs O(V),
    and no delay vector is built.  Delays (in chips) outside ``[0, 1)``
    are reduced modulo the chip (a whole-chip shift only rotates the
    phase of the delay vector and cancels in the form).

    ``power`` and ``delay`` may be arrays, which broadcast against each
    other: all classes then share the moments, and an array of SINRs is
    returned.  Scalars give a float.
    """
    power, delay = np.broadcast_arrays(np.asarray(power, dtype=float),
                                       np.asarray(delay, dtype=float))
    taus = np.mod(delay, 1.0)
    moments = _alias_moments(field, sys)
    orders = np.arange(moments.size) - moments.size // 2
    forms = np.real(np.exp(-1j * TWO_PI * taus[..., None] * orders)
                    @ moments)
    sinrs = power * (2.0 * np.pi / len(field.omegas)) / TWO_PI * forms
    return float(sinrs) if sinrs.ndim == 0 else sinrs


def efficiency_of_user(sinr: float | np.ndarray, power: float | np.ndarray,
                       sys) -> float | np.ndarray:
    """Multiuser efficiency: SINR over the single-user matched-filter SNR.

    ``eta = sinr * N_0 / (power * E)``; raises "zero power" if any
    ``power <= 0``.  ``sinr`` and ``power`` broadcast against each other
    as in :func:`sinr_user`: arrays give an array, scalars a float.
    ``sys`` may be any system with a ``noise_density`` and a
    ``waveform``: a :class:`SystemLaw` or a finite instance of one.
    """
    sinr, power = np.broadcast_arrays(np.asarray(sinr, dtype=float),
                                      np.asarray(power, dtype=float))
    if np.any(power <= 0):
        raise ValueError("zero power")
    eta = sinr * sys.noise_density / (power * sys.waveform.energy)
    return float(eta) if eta.ndim == 0 else eta


@dataclass(frozen=True, eq=False)
class EfficiencySpectrum:
    """Per-frequency multiuser efficiency density and its integral."""

    frequencies: np.ndarray  # rad per chip over the pulse support
    density: np.ndarray     # eta(omega), dimensionless
    scalar: float           # eta = (1/2pi) * integral density


def _delays_balanced(law: PowerDelayLaw, degree: int) -> bool:
    """Whether each nonzero power level's delay moments of orders
    ``1..degree`` vanish (below 1e-12 of the level's weight); a zero-power
    level adds no interference on either route."""
    levels = np.unique(law.powers[law.powers > 0])[:, None]
    level_weights = (law.powers == levels) * law.weights  # (levels, atoms)
    moments = level_weights @ np.exp(TWO_PI * 1j * np.outer(
        law.delays, np.arange(1, degree + 1)))
    return bool(np.all(np.abs(moments)
                       <= 1e-12 * level_weights.sum(axis=1)[:, None]))


def _efficiency_density(power_gain: np.ndarray, interference: float,
                        energy: float) -> np.ndarray:
    """Closed-form density: ``1/eta(w) = E/|Phi|^2 + interference``."""
    out = np.zeros_like(power_gain)
    positive = power_gain > 0
    out[positive] = 1.0 / (energy / power_gain[positive] + interference)
    return out


def _band_root(waveform: ChipWaveform, load: float, powers: np.ndarray,
               weights: np.ndarray,
               noise_density: float) -> tuple[float, float, float]:
    """Scalar-route fixed point of a power law at ``noise_density``.

    The efficiency is the band mean ``D`` of its own density at the
    interference level ``x = J/E``, which solves ``x = h(x) = (beta/E) *
    sum_levels w*lam / (N_0/E + lam*D(x))``.  As ``0 < D <= 1``, ``h``
    lies between its values at ``D = 1`` and ``D = 0``, whose logarithms
    bracket the ITP root (``numerics.bisect``) of ``ln(h(x)/x)`` in ``u =
    ln x``.  Since ``|d ln D / d ln x| <= 1``, its tolerance 1e-13 is a
    relative one on ``D``.  Returns ``(x, D, F)`` at the root from
    ``ChipWaveform._band_means``.
    """
    coeffs = load * weights * powers / waveform.energy
    if not np.any(coeffs):
        return 0.0, 1.0, 0.0
    noise_over_energy = noise_density / waveform.energy

    def log_gain(u: float) -> float:
        # ln(h(x)/x) from x*D, which stays O(1) however large x grows.
        x = math.exp(u)
        x_mean = x * waveform._band_means(x)[0]
        return math.log(float(np.sum(
            coeffs / (x * noise_over_energy + powers * x_mean))))

    lo = math.log(float(np.sum(coeffs / (noise_over_energy + powers))))
    hi = math.log(float(np.sum(coeffs)) / noise_over_energy)
    # Widened by the tolerance, since at low SNR the root lies within
    # rounding of the lower end.
    tol = 1e-13
    x = math.exp(bisect(log_gain, lo - tol, hi + tol, tol=tol))
    return (x, *waveform._band_means(x))


def _balanced_marginal(sys: SystemLaw) -> tuple[np.ndarray, np.ndarray]:
    """The law's power marginal; raises "corollary hypotheses violated",
    naming the delays it needs, when the law fails the delay gate of
    :func:`solve_efficiency_scalar`."""
    if not _delays_balanced(sys.law, sys.waveform.min_oversampling - 1):
        raise ValueError(
            "corollary hypotheses violated: each power level needs more "
            "than ceil(2B) - 1 uniform, evenly spaced delays over one chip, "
            "for one-sided bandwidth B in cycles per chip")
    return sys.law.power_marginal()


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
    (N_0/E + lam*eta)`` with ``eta = (1/2pi) * integral eta(w) dw``.  The
    scalar solves that equation with the waveform's band mean; the density
    is sampled on ``n_points`` midpoints of the support.
    """
    waveform = sys.waveform
    x, scalar, _ = _band_root(waveform, sys.load, *_balanced_marginal(sys),
                              sys.noise_density)
    omegas = _midpoints(*waveform.support, n_points)
    density = _efficiency_density(waveform.power_spectrum(omegas),
                                  x * waveform.energy, waveform.energy)
    return EfficiencySpectrum(frequencies=omegas, density=density,
                              scalar=scalar)


def _equal_power_root(load: float, noise_density: float) -> float:
    """Positive root of ``eta^2 + b*eta - N0 = 0``, ``b = N0 + beta - 1``
    (the equal-power synchronous efficiency), in the form that does not
    cancel for either sign of ``b``."""
    b = noise_density + load - 1.0
    d = math.sqrt(b * b + 4.0 * noise_density)
    return 2.0 * noise_density / (b + d) if b > 0 else (d - b) / 2.0


def solve_efficiency_sinc(load: float, relative_bandwidth: float, powers,
                          weights, noise_density: float) -> float:
    """Multiuser efficiency of the flat bandlimited pulse family.

    Solves ``1/eta = 1 + (beta/alpha) * sum w*lam/(N0 + lam*eta)`` as the
    scalar route's fixed point (:func:`_band_root`) of the pulse
    ``sinc_waveform(alpha)``, whose band mean is ``alpha / (alpha + x)``;
    the bandwidth enters only through the effective load ``beta/alpha``.
    """
    _check_load(load)
    _check_noise_density(noise_density)
    return _band_root(sinc_waveform(relative_bandwidth), load,
                      np.asarray(powers, dtype=float),
                      np.asarray(weights, dtype=float), noise_density)[1]


def solve_efficiency_sync(load: float, powers, weights,
                          noise_density: float) -> float:
    """Synchronous-system multiuser efficiency (unit-bandwidth case): the
    positive root of ``1/eta = 1 + beta * sum w*lam/(N0 + lam*eta)``.

    The right side's reciprocal ``m(eta)`` increases with ``eta``, so the
    root lies in ``[m(0), 1]``.  ITP finds it in ``ln eta`` to 1e-13, a
    relative tolerance however small the root, from ``m(0)/2``, where the
    residual is at most -1 in floating point too.
    """
    _check_load(load)
    _check_noise_density(noise_density)
    powers = np.asarray(powers, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def residual(log_eta: float) -> float:
        eta = math.exp(log_eta)
        s = float(np.sum(weights * powers /
                         (noise_density + powers * eta)))
        return 1.0 + load * s - 1.0 / eta

    log_floor = -math.log1p(
        load * float(np.sum(weights * powers)) / noise_density)
    return math.exp(bisect(residual, log_floor - math.log(2.0), 0.0,
                           tol=1e-13))
