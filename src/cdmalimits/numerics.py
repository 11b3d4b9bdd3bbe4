"""What the layers share: the ITP root, the solver error, read-only
copies and the load and noise-density checks.

Matrices and vectors are plain ``numpy`` arrays throughout the package,
whose only runtime dependency is ``numpy``; the dense solves of the Monte
Carlo kernels call its stacked LAPACK routines directly.
"""

from __future__ import annotations

import math

import numpy as np


class SolverError(RuntimeError):
    """The one error of a solver that cannot deliver, its message naming
    why: a fixed point that stops or diverges, a bracket without a sign
    change, an unreachable Eb/N0, or a matrix that is not positive definite.
    Invalid input and violated hypotheses raise ``ValueError`` instead."""


def _read_only(values, dtype) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``: the frozen descriptions
    keep it, so no later write to the caller's array reaches them."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_load(load: float) -> None:
    """Raises ``ValueError`` unless the load is finite and nonnegative."""
    if not 0 <= load < math.inf:
        raise ValueError("load must be finite and nonnegative")


def _check_noise_density(noise_density: float) -> None:
    """Raises ``ValueError`` unless ``N_0`` is finite and positive."""
    if not 0 < noise_density < math.inf:
        raise ValueError("noise density must be finite and positive")


#: Cap on ITP steps, well above the ``ceil(log2(width / tol)) + 1`` it needs.
ITP_MAX_STEPS = 200


def bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bracketed root of a scalar function by the ITP method.

    Interpolate, truncate, project (Oliveira & Takahashi, ACM TOMS 47(1),
    2020): each step takes the regula-falsi point of the current bracket,
    nudges it toward the midpoint by ``0.2 * width**2 / (hi - lo)`` and
    projects it onto a ball around the midpoint whose radius is the slack
    left over bisection's step count plus one, and at least ``tol/2``
    from either end.  So it never makes more than one evaluation beyond
    bisection's ``ceil(log2((hi - lo) / tol))`` and converges
    superlinearly on smooth functions.  A non-finite value
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
        raise SolverError("bracket")
    truncation = 0.2 / (hi - lo)
    # Steps keep the bracket on bisection's schedule plus one step, aimed
    # a few ulps inside ``tol`` so that the rounding of each step (whose
    # effect on the width halves with every later step) cannot push the
    # last bracket past it.
    half_tol = 0.5 * tol - 2.0 * math.ulp(max(abs(lo), abs(hi)))
    steps = max(math.ceil(math.log2((hi - lo) / tol)), 0) + 1
    for j in range(ITP_MAX_STEPS):
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
        # At least half_tol inside the bracket, as Brent's method steps,
        # so an end within rounding of the root is never evaluated again.
        x = min(max(x, lo + half_tol), hi - half_tol)
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if np.sign(f_x) == np.sign(f_lo):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return 0.5 * (lo + hi)

