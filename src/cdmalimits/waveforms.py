"""Chip-pulse spectra and the frequency/delay objects built from them.

Time is measured in chips throughout the package: the chip interval is the
unit, delays are in chips and angular frequencies in rad per chip, so the
chip-rate normalized frequency ``Omega`` and the pulse frequency ``omega``
share one axis.

A :class:`ChipWaveform` models the spectrum ``Phi(omega)`` of the received
chip pulse (transmit pulse convolved with the receive filter).  Energy uses
the convention ``E = (1/2pi) * integral |Phi(omega)|^2 domega`` so that the
built-in unit-energy pulses integrate to one, and ``bandwidth`` is one-sided
in cycles per chip: the spectrum vanishes outside ``ChipWaveform.support``.

From the spectrum the module builds, for an oversampling factor ``r`` and a
sub-chip delay ``tau``:

* the 2*pi-periodic spectrum ``phi(Omega, tau)`` of the pulse sampled once
  per chip, i.e. the alias sum
  ``sum_nu exp(j*tau*(Omega+2*pi*nu)) * conj(Phi(Omega+2*pi*nu))``
  where only aliases inside the pulse support contribute;
* the delay vectors ``delta(Omega, tau)`` stacking the r sub-chip sampling
  phases ``phi(Omega, tau - s/r)`` (``_delta_components``), built from
  separable phases as ``exp(j*tau*Omega) * B(Omega) e_tau``: the
  delay-free factor ``B = P * diag(amps)`` over the in-band aliases
  (``_alias_basis``) times the alias phases ``e_{tau,nu} =
  exp(2*pi*j*nu*tau)``;
* the delay average of ``delta * delta^H``, the Gram ``B * B^H``
  (``_delay_free_q``), which leaves a zero-trace oscillating remainder,
  and its closed-form eigendecomposition ``q_eigendecomposition``, whose
  eigenvectors are ``B``'s sampling phases at the aliases ``0 ... r-1``;
* the two band means of the scalar route and the capacity
  (``ChipWaveform._band_means``), elementary for the flat and RRC pulses.

Alias terms that land exactly on a jump of ``|Phi|`` (the band edge of an
ideally bandlimited flat pulse) are weighted by 1/2 — the Fourier-series
midpoint value of the underlying sample sequence's transform.  This only
matters on a measure-zero set of frequencies, but that set contains DFT grid
points used by the finite-size matrix models, where the halved weight is
what reproduces the exact discrete-time behaviour.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import _read_only

TWO_PI = 2.0 * np.pi
LOG2_E = math.log2(math.e)

#: Relative slack used to decide whether an alias sits exactly on the
#: support edge (and gets the midpoint 1/2 weight) or just outside.
_EDGE_RTOL = 1e-9

#: Midpoints of a table's span in its band means.
_TABLE_POINTS = 2048

#: Accepted range of a table's largest ``|value|``.  Inside it ``|Phi|^2``,
#: the energy and their products with the documented SNRs and noise
#: densities stay far inside the float range.  Scanned with flat and
#: triangular tables over SNR 1e-9 to 1e18 and ``N_0/E`` 1e-14 to 10, the
#: scalar routes first broke near 1e-145 and 1e150.
_TABLE_PEAK_RANGE = (1e-100, 1e100)


@dataclass(frozen=True, eq=False)
class ChipWaveform:
    """Spectrum of the received chip pulse, with time measured in chips.

    Attributes
    ----------
    kind : str
        One of ``"sinc"``, ``"root_raised_cosine"``, ``"tabulated"``.
    bandwidth : float
        One-sided bandwidth in cycles per chip; ``Phi`` vanishes beyond
        ``2*pi*bandwidth`` rad per chip.
    energy : float
        Pulse energy ``(1/2pi) * integral |Phi|^2``.
    relative_bandwidth : float or None
        For ``"sinc"``: the bandwidth in units of half the chip rate.
    roll_off : float or None
        For ``"root_raised_cosine"``: the excess-bandwidth fraction.
    table_omega, table_value : ndarray or None
        For ``"tabulated"``: sample frequencies (rad per chip, increasing)
        and complex spectrum values, linearly interpolated.
    """

    #: The unit of time, kept as a read-only constant for external readers;
    #: the package itself never reads it.
    chip_interval: ClassVar[float] = 1.0

    kind: str
    bandwidth: float
    energy: float
    relative_bandwidth: float | None = None
    roll_off: float | None = None
    table_omega: np.ndarray | None = None
    table_value: np.ndarray | None = None

    # -- evaluation ------------------------------------------------------

    def spectrum(self, omega):
        """Evaluate ``Phi(omega)`` (vectorized; zero outside the support).

        Raises
        ------
        ValueError
            For tabulated pulses queried beyond the sampled range
            ("out of tabulated range").
        """
        w = np.asarray(omega, dtype=float)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        if self.kind == "sinc":
            alpha = self.relative_bandwidth
            out = np.where(np.abs(w) <= np.pi * alpha,
                           math.sqrt(1.0 / alpha), 0.0).astype(complex)
        elif self.kind == "root_raised_cosine":
            out = np.sqrt(self._rrc_power(w)).astype(complex)
        elif self.kind == "tabulated":
            lo = self.table_omega[0]
            hi = self.table_omega[-1]
            if np.any(w < lo) or np.any(w > hi):
                raise ValueError("out of tabulated range")
            out = (np.interp(w, self.table_omega, self.table_value.real)
                   + 1j * np.interp(w, self.table_omega,
                                    self.table_value.imag))
        else:
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        return out[0] if scalar else out

    def power_spectrum(self, omega):
        """``|spectrum(omega)|^2``, with the same conventions and shape."""
        return np.abs(self.spectrum(omega)) ** 2

    def _rrc_power(self, w: np.ndarray) -> np.ndarray:
        rho = self.roll_off
        aw = np.abs(w)
        flat_edge = (1.0 - rho) * np.pi
        outer_edge = (1.0 + rho) * np.pi
        out = np.zeros_like(aw)
        out[aw <= flat_edge] = 1.0
        if rho > 0:
            band = (aw > flat_edge) & (aw <= outer_edge)
            out[band] = 0.5 * (
                1.0 + np.cos((1.0 / (2.0 * rho)) * (aw[band] - flat_edge)))
        return out

    # -- derived quantities ----------------------------------------------

    @property
    def min_oversampling(self) -> int:
        """Smallest ``r`` capturing the full bandwidth (``ceil(2*B)``)."""
        r = math.ceil(2.0 * self.bandwidth - 1e-12)
        return max(r, 1)

    @property
    def support(self) -> tuple[float, float]:
        """Span ``(lo, hi)`` of ``Phi`` in rad per chip: ``+-2*pi*B`` for
        the built-in pulses, the first and last sample of a table."""
        if self.kind == "tabulated":
            return float(self.table_omega[0]), float(self.table_omega[-1])
        edge = TWO_PI * self.bandwidth
        return -edge, edge

    @functools.cached_property
    def _table_gain(self) -> np.ndarray:
        """Nonzero ``|Phi|^2`` on the band-mean grid, sampled once."""
        gain = self.power_spectrum(_midpoints(*self.support, _TABLE_POINTS))
        return gain[gain > 0]

    def _band_means(self, x: float) -> tuple[float, float]:
        """Band averages ``(D, F)`` at the interference level ``x = J/E``.

        With ``g = |Phi|^2``, ``D = (1/2pi) * integral dw / (E/g + J)`` is
        the mean of the efficiency density and ``F = (1/2pi) * integral
        [log2(1 + x*g) - log2(e) * x*g / (1 + x*g)] dw`` the free-energy
        integral of the capacity.  Both are elementary for the built-in
        unit-energy pulses, with ``s = sqrt(1 + x)`` for RRC (from
        ``integral_0^pi dt / (a + b cos t) = pi / sqrt(a^2 - b^2)`` and
        ``integral_0^pi ln(a + b cos t) dt = pi ln((a + sqrt(a^2 - b^2))
        / 2)``); a table takes the ``_TABLE_POINTS``-midpoint rule over its
        span, ``D`` capped at 1, the exact bound the rule can overshoot.
        """
        if self.kind == "sinc":
            alpha = self.relative_bandwidth
            y = x / alpha
            return (alpha / (alpha + x),
                    alpha * LOG2_E * (math.log1p(y) - y / (1.0 + y)))
        if self.kind == "root_raised_cosine":
            rho = self.roll_off
            s = math.sqrt(1.0 + x)
            t = 1.0 / (s * (1.0 + s))  # (1 - 1/s) / x, rationalized
            flat = math.log1p(x) - x / (1.0 + x)
            edges = 2.0 * math.log1p(x / (2.0 * (1.0 + s))) - x * t
            return ((1.0 - rho) / (1.0 + x) + 2.0 * rho * t,
                    LOG2_E * ((1.0 - rho) * flat + 2.0 * rho * edges))
        gain = self._table_gain
        y = x * gain
        lo, hi = self.support
        weight = (hi - lo) / TWO_PI / _TABLE_POINTS  # spacing / 2pi
        return (min(float(np.sum(gain / (1.0 + y))) * weight / self.energy,
                    1.0),
                float(np.sum(np.log1p(y) - y / (1.0 + y))) * weight * LOG2_E)


def _midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    """Midpoints of ``n`` equal cells of ``[lo, hi]``; neither end is one."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def sinc_waveform(relative_bandwidth: float) -> ChipWaveform:
    """Ideal bandlimited pulse, flat over ``|omega| <= pi*alpha``.

    ``|Phi|^2 = 1/alpha`` on the support, giving unit energy for every
    ``alpha``; the one-sided bandwidth is ``alpha/2`` cycles per chip.
    """
    if not 0 < relative_bandwidth < math.inf:
        raise ValueError("relative bandwidth must be finite and positive")
    return ChipWaveform(
        kind="sinc",
        bandwidth=relative_bandwidth / 2.0,
        energy=1.0,
        relative_bandwidth=relative_bandwidth,
    )


def root_raised_cosine_waveform(roll_off: float) -> ChipWaveform:
    """Square-root raised-cosine pulse with zero phase and unit energy.

    ``|Phi|^2`` is flat at 1 up to ``(1-rho)*pi``, falls as a raised
    cosine up to ``(1+rho)*pi`` and vanishes beyond; the one-sided
    bandwidth is ``(1+rho)/2`` cycles per chip.
    """
    if not 0.0 <= roll_off <= 1.0:
        raise ValueError("roll-off must lie in [0, 1]")
    return ChipWaveform(
        kind="root_raised_cosine",
        bandwidth=(1.0 + roll_off) / 2.0,
        energy=1.0,
        roll_off=roll_off,
    )


def tabulated_waveform(omega, values) -> ChipWaveform:
    """Pulse defined by linear interpolation of spectrum samples.

    Parameters
    ----------
    omega : array_like
        Strictly increasing, finite sample frequencies in rad per chip.
    values : array_like
        Finite complex spectrum samples ``Phi(omega)``, not all zero, of
        largest magnitude in ``[1e-100, 1e100]``.

    The bandwidth is half the table's span in cycles per chip,
    ``(omega[-1] - omega[0]) / (4*pi)``, as for a flat pulse over the same
    span, and the energy is the exact ``(1/2pi) * integral |Phi|^2`` of
    the interpolated pulse: ``h * (|p|^2 + Re(p * conj(q)) + |q|^2) / 3``
    on a segment of width ``h`` from ``p`` to ``q``, which is Simpson's
    rule on ``|Phi|^2``.
    """
    om = _read_only(omega, float)
    val = _read_only(values, complex)
    if om.ndim != 1 or om.size < 2:
        raise ValueError("tabulated waveform needs at least two samples")
    if val.shape != om.shape:
        raise ValueError("frequency and value tables must match in length")
    if not np.all(np.isfinite(om)):
        raise ValueError("tabulated frequencies must be finite")
    if not np.all(np.isfinite(val)):
        raise ValueError("tabulated values must be finite")
    if np.any(np.diff(om) <= 0):
        raise ValueError("tabulated frequencies must be strictly increasing")
    peak = np.max(np.abs(val))
    if peak and not _TABLE_PEAK_RANGE[0] <= peak <= _TABLE_PEAK_RANGE[1]:
        raise ValueError("largest tabulated |value| must lie in "
                         "[{:g}, {:g}]".format(*_TABLE_PEAK_RANGE))
    p, q = val[:-1], val[1:]
    segments = np.abs(p) ** 2 + np.real(p * np.conj(q)) + np.abs(q) ** 2
    energy = float(np.sum(np.diff(om) * segments) / (3.0 * TWO_PI))
    if energy == 0.0:
        raise ValueError("tabulated waveform has zero energy")
    return ChipWaveform(
        kind="tabulated",
        bandwidth=float((om[-1] - om[0]) / (2.0 * TWO_PI)),
        energy=energy,
        table_omega=om,
        table_value=val,
    )


def load_tabulated_waveform(path) -> ChipWaveform:
    """Load a tabulated spectrum from CSV.

    The file must have a header row and two or three columns: frequency in
    rad per chip, real part, and optionally imaginary part of ``Phi``.
    """
    omegas: list[float] = []
    values: list[complex] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValueError("tabulated waveform CSV is empty")
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) not in (2, 3):
                raise ValueError(
                    "tabulated waveform CSV needs 2 or 3 columns "
                    f"(got {len(row)})")
            omegas.append(float(row[0]))
            imag = float(row[2]) if len(row) == 3 else 0.0
            values.append(complex(float(row[1]), imag))
    return tabulated_waveform(omegas, values)


# ---------------------------------------------------------------------------
# Alias machinery
# ---------------------------------------------------------------------------

def _alias_table(waveform: ChipWaveform, omegas: np.ndarray):
    """Alias indices, frequencies and weighted amplitudes per frequency.

    For each normalized frequency ``Omega`` in ``omegas`` the contributing
    aliases are the integers ``nu`` with ``Omega + 2*pi*nu`` inside the
    support ``(lo, hi)``.  The table's columns run over the ``nu`` from
    ``ceil((lo - tol - max Omega) / 2pi)`` to ``floor((hi + tol - min
    Omega) / 2pi)``, the aliases that reach the support (within the edge
    slack ``tol``) at some grid frequency, widened by 1e-9 of an alias so
    that one within rounding of an edge stays in.  Returns ``(nus, args,
    amps)``: the column indices ``nu``, shape ``(n_alias,)``, and two
    arrays of shape ``(len(omegas), n_alias)``, ``args`` holding
    ``Omega + 2*pi*nu`` and ``amps`` holding ``weight * conj(Phi(arg))``
    with the midpoint weight 1/2 applied exactly on either end of the
    support; padding entries are zero.
    """
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    lo, hi = waveform.support
    tol = _EDGE_RTOL * max(1.0, -lo, hi)
    nu_lo = math.ceil((lo - tol - float(np.max(om))) / TWO_PI - 1e-9)
    nu_hi = math.floor((hi + tol - float(np.min(om))) / TWO_PI + 1e-9)
    nus = np.arange(nu_lo, nu_hi + 1)
    args = om[:, None] + TWO_PI * nus[None, :]
    # Aliases a hair past an end are evaluated on it.
    inside = (args >= lo - tol) & (args <= hi + tol)
    amps = np.zeros(args.shape, dtype=complex)
    amps[inside] = np.conj(waveform.spectrum(np.clip(args[inside], lo, hi)))
    amps *= np.where((np.abs(args - lo) <= tol) | (np.abs(args - hi) <= tol),
                     0.5, 1.0)
    return nus, args, amps


def _check_oversampling(waveform: ChipWaveform, r: int) -> None:
    if r < 1:
        raise ValueError("oversampling factor must be a positive integer")
    if r < waveform.min_oversampling:
        raise ValueError("undersampled configuration")


def _sampling_phases(args: np.ndarray, r: int) -> np.ndarray:
    """``exp(-j*s*arg/r)`` for ``s = 0 ... r-1``, on a new last axis."""
    return np.exp(1j * args[..., None] * (-np.arange(r) / r))


def _alias_basis(waveform: ChipWaveform, r: int,
                 omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The delay-free factor ``B = P * diag(amps)`` of the delay vectors.

    Returns ``(nus, basis)``: the alias indices of :func:`_alias_table`
    and ``basis`` of shape ``(len(omegas), r, n_alias)`` with entries
    ``amps_nu * exp(-j*s*arg_nu/r)``, the phase evaluated only on the
    in-band aliases (on the padding the entry stays zero).  The delay
    vector at delay ``tau`` is ``basis @ e_tau`` with ``e_{tau,nu} =
    exp(j*tau*Omega) * exp(2*pi*j*nu*tau)``.
    """
    nus, args, amps = _alias_table(waveform, omegas)  # (V,), (M, V)
    inband = amps != 0
    phases = np.zeros((args.shape[0], r, args.shape[1]), dtype=complex)
    phases.transpose(0, 2, 1)[inband] = _sampling_phases(args[inband], r)
    return nus, phases * amps[:, None, :]


def _delta_components(waveform: ChipWaveform, r: int, omegas: np.ndarray,
                      taus: np.ndarray) -> np.ndarray:
    """Delay vectors: shape ``(len(taus), len(omegas), r)``.

    Component ``s`` (0-based) is the sampled spectrum
    ``phi(Omega, tau - s/r) = sum_nu amps_nu * exp(j*(tau - s/r)*arg_nu)``;
    component 0 is ``phi(Omega, tau)``.  The phase separates as
    ``exp(j*tau*Omega) * exp(2*pi*j*nu*tau) * exp(-j*s*arg_nu/r)``, so the
    vectors are ``exp(j*tau*Omega) * (basis @ exp(2*pi*j*nu*tau))`` on the
    factor of :func:`_alias_basis`: exponentials on ``(A, M)``, ``(A, V)``
    and ``(M, r, V)`` for ``A`` delays, ``M`` frequencies and ``V``
    aliases, and one ``(A, V) @ (V, M*r)`` product.
    """
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    nus, basis = _alias_basis(waveform, r, om)
    n_freq, _, n_alias = basis.shape
    alias_phases = np.exp(1j * TWO_PI * np.outer(taus, nus))  # (A, V)
    # (A, r, M) in memory behind the (A, M, r) view: the matrix step's
    # speed depends on these strides, and montecarlo takes that order.
    deltas = (alias_phases @ basis.transpose(2, 1, 0).reshape(
        n_alias, r * n_freq)).reshape(taus.size, r, n_freq)
    deltas *= np.exp(1j * np.outer(taus, om))[:, None, :]  # (A, M) phases
    return deltas.transpose(0, 2, 1)


def _delay_free_q(waveform: ChipWaveform, r: int, omega: float) -> np.ndarray:
    """Delay average of ``delta * delta^H``: the Gram ``B @ B^H`` of the
    factor of :func:`_alias_basis`, entries ``sum_nu w_nu^2 |Phi|^2 *
    exp(-j*(k-l)/r*(Omega+2*pi*nu))`` with the edge weights ``w_nu``."""
    basis = _alias_basis(waveform, r, np.array([float(omega)]))[1][0]
    return basis @ basis.conj().T


def q_eigendecomposition(waveform: ChipWaveform, r: int, omega: float):
    """Closed-form eigendecomposition of the delay-averaged matrix.

    Returns ``(U, D)`` with unitary ``U`` whose column ``j`` is the phase
    vector ``(1/sqrt(r)) * (1, exp(-j*x/r), ..., exp(-j*(r-1)*x/r))`` at
    ``x = Omega + 2*pi*j``, the sampling phases of :func:`_alias_basis` at
    the alias ``j`` (they depend on ``j`` only modulo ``r``), and
    nonnegative diagonal ``D`` collecting
    ``r * sum |Phi(Omega+2*pi*nu)|^2`` over the contributing
    aliases ``nu`` congruent to ``j`` modulo ``r``.  Satisfies
    ``U @ D @ U^H == delay_free`` to machine precision.
    """
    _check_oversampling(waveform, r)
    nus, _, amps = _alias_table(waveform, np.array([float(omega)]))
    diag = np.zeros(r)
    np.add.at(diag, nus % r, np.abs(amps[0]) ** 2)
    diag *= r
    u = _sampling_phases(float(omega) + TWO_PI * np.arange(r), r).T
    return u / math.sqrt(r), np.diag(diag)


def phase_twisted_circulant(coefficients, omega: float) -> np.ndarray:
    """Matrix with entries ``exp(j*(k-l)*Omega/r) * c[(k-l) mod r]``.

    This is the structured family closed under multiplication by the
    delay-averaged matrix and annihilated (in trace) by the oscillating
    part; used by verification suites and property tests.
    """
    c = np.asarray(coefficients, dtype=complex)
    r = c.size
    idx = np.arange(r)
    diff = idx[:, None] - idx[None, :]  # entry (k, l) uses k - l
    return np.exp(1j * diff * omega / r) * c[np.mod(diff, r)]
