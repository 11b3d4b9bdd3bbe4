"""Shared numeric kernel: quadrature, fixed points, ITP roots.

Matrices and vectors are plain ``numpy`` arrays throughout the package,
whose only runtime dependency is ``numpy``; the dense solves of the Monte
Carlo kernels call its stacked LAPACK routines directly.  Frequency grids
over the normalized band ``(-pi, pi]`` store midpoints so that integrands
that are discontinuous at the band edges are never sampled exactly on a
jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Raised when a supposedly positive-definite matrix is singular or
    yields a solution that no positive-definite matrix can."""


class DivergenceError(RuntimeError):
    """Raised when a fixed-point iteration produces non-finite state."""


class BracketError(ValueError):
    """Raised when a root bracket does not contain a sign change."""


@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of a damped fixed-point iteration."""

    iterations: int
    final_residual: float
    converged: bool
    damping_used: float


FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 10000


def fixed_point(step, init):
    """Damped fixed-point iteration ``x <- (1-d)*x + d*step(x)``.

    The damping ``d`` starts at 1.  The residual is the sup norm of
    ``step(x) - x`` (the undamped equation residual, independent of the
    damping factor).  When the residual increases from one iteration to
    the next the damping is halved, which only matters for maps that are
    not contractive out of the box.  The iteration stops once the residual
    is at most ``FIXED_POINT_TOL`` or after ``FIXED_POINT_MAX_ITER`` steps.

    Parameters
    ----------
    step : callable
        Self-map on the state (scalar or ndarray).
    init : array_like or scalar
        Starting state.

    Returns
    -------
    (state, FixedPointReport)

    Raises
    ------
    DivergenceError
        If the state stops being finite ("divergence").
    """
    damping = 1.0
    x = np.asarray(init, dtype=np.result_type(np.asarray(init), np.float64))
    prev_residual = np.inf
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        fx = np.asarray(step(x))
        if not np.all(np.isfinite(fx)):
            raise DivergenceError("divergence")
        residual = float(np.max(np.abs(fx - x))) if fx.size else 0.0
        if residual > prev_residual and damping > 2.0 ** -20:
            damping *= 0.5
        prev_residual = residual
        x = (1.0 - damping) * x + damping * fx
        if residual <= FIXED_POINT_TOL:
            break
    report = FixedPointReport(iterations=iterations,
                              final_residual=residual,
                              converged=residual <= FIXED_POINT_TOL,
                              damping_used=damping)
    if x.ndim == 0:
        return x[()], report
    return x, report


def bisect(fn, lo: float, hi: float, tol: float = 1e-12,
           max_iter: int = 200) -> float:
    """Bracketed root of a scalar function by the ITP method.

    Interpolate, truncate, project (Oliveira & Takahashi, ACM TOMS 47(1),
    2020): each step takes the regula-falsi point of the current bracket,
    nudges it toward the midpoint by ``0.2 * width**2 / (hi - lo)`` and
    projects it onto a ball around the midpoint whose radius is the slack
    left over bisection's step count plus one.  So it never makes more
    than one evaluation beyond bisection's ``ceil(log2((hi - lo) / tol))``
    and converges superlinearly on smooth functions.  A non-finite value
    at either end of the bracket falls back to a bisection step.  Returns
    the midpoint of a sign-change bracket no wider than ``tol``.

    Requires ``fn(lo)`` and ``fn(hi)`` to have opposite signs (or one of
    them to vanish); raises a "bracket" error otherwise.
    """
    if not lo < hi:
        raise ValueError("bracket endpoints must satisfy lo < hi")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise BracketError("bracket")
    truncation = 0.2 / (hi - lo)
    # Steps keep the bracket on bisection's schedule plus one step, aimed
    # a few ulps inside ``tol`` so that the rounding of each step (whose
    # effect on the width halves with every later step) cannot push the
    # last bracket past it.
    half_tol = 0.5 * tol - 2.0 * math.ulp(max(abs(lo), abs(hi)))
    steps = max(math.ceil(math.log2((hi - lo) / tol)), 0) + 1
    for j in range(max_iter):
        width = hi - lo
        if width <= tol:
            break
        mid = 0.5 * (lo + hi)
        x = mid
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            x = lo + width * (f_lo / (f_lo - f_hi))
        sigma = math.copysign(1.0, mid - x)
        delta = truncation * width * width
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        radius = max(math.ldexp(half_tol, steps - j) - 0.5 * width, 0.0)
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if np.sign(f_x) == np.sign(f_lo):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Midpoint grid over the normalized frequency band ``(-pi, pi]``.

    Points are ``-pi + (m + 1/2) * spacing`` for ``m = 0..count-1`` with
    ``spacing = 2*pi/count``, so the band edges and zero are never sampled.
    """

    points: np.ndarray
    spacing: float

    @classmethod
    def midpoints(cls, count: int = 512) -> "FrequencyGrid":
        if count < 2 or count % 2 != 0:
            raise ValueError("grid size must be a positive even integer")
        spacing = 2.0 * np.pi / count
        points = -np.pi + (np.arange(count) + 0.5) * spacing
        points.setflags(write=False)
        return cls(points=points, spacing=spacing)

    @property
    def count(self) -> int:
        return len(self.points)
