"""Special functions and adaptive quadrature used by every rate integral.

Everything here runs on numpy alone.  The special functions take a float or
an array and return the same shape; :func:`integrate_adaptive` is an
adaptive 7-point Gauss / 15-point Kronrod rule (Piessens et al., *QUADPACK*,
Springer 1983) over a finite range, at the one tolerance ``QUAD_TOL``, that
evaluates every panel of one refinement round in a single integrand call.

Integrand contract: an integrand passed to :func:`integrate_adaptive` takes a
1-D array of nodes and returns a real array of the same shape.  It is never
called with a scalar.

Units are hbar = c = 1 throughout the package; the environment mass is the
natural energy unit unless a caller rescales its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureResult",
    "AccuracyError",
    "dawson",
    "bose_occupation",
    "gaussian_ft",
    "integrate_adaptive",
]

#: Gaussian damping factors below this are treated as numerically zero when
#: rate integrands are truncated to a finite window.
DAMPING_FLOOR = 1e-18

#: Panel splits a quadrature may make, beyond two per starting panel,
#: before giving up.
MAX_SUBDIVISIONS = 200

#: Relative and absolute tolerance of every :func:`integrate_adaptive` pass.
QUAD_TOL = 1e-10

# integrate_adaptive starts on this many equal panels: one batched call on
# four panels costs about as much as on one, and it saves most of the
# refinement rounds a single starting panel needs
_START_PANELS = 4

# Gauss-Kronrod G7/K15 on [-1, 1]: Kronrod nodes, Kronrod weights, and the
# Gauss weights, which sit on every other Kronrod node
_GK_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_NODES = np.concatenate((-_GK_NODES, [0.0], _GK_NODES[::-1]))
_K_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_K_WEIGHTS = np.concatenate((_K_WEIGHTS, [0.209482141084727828012999174891714], _K_WEIGHTS[::-1]))
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1::2] = [
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]
_EPS = float(np.finfo(float).eps)

# Rybicki's sampling sum for the Dawson integral: step h, and the Gaussian
# weights exp(-((2i - 1) h)^2) of the 13 odd samples on each side that
# matter to double precision
_DAWSON_H = 0.25
_DAWSON_WEIGHTS = [math.exp(-((2 * i - 1) * _DAWSON_H) ** 2) for i in range(1, 14)]


class AccuracyError(ArithmeticError):
    """Quadrature failed to converge; carries the best available estimate."""

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureResult:
    """Value of a definite integral with an absolute error estimate."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


def dawson(z):
    """Dawson integral D(z) = exp(-z^2) * int_0^z exp(t^2) dt.

    Odd in z (exactly); D(z) ~ 1/(2z) + 1/(4z^3) for large z.  For
    |z| >= 0.2 this is Rybicki's sampling-theorem sum (Computers in Physics
    3, 85, 1989), D(z) = pi^-1/2 sum_{n odd} exp(-(z - n h)^2)/n, taken over
    the 26 odd samples nearest z; below 0.2 it is the Taylor series
    sum_n (-2)^n z^(2n+1)/(2n+1)!!.  Both agree with scipy's Faddeeva-based
    dawsn to 2e-14 relative over [-30, 30] and [1e-8, 1e3].
    """
    x = np.asarray(z, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"dawson requires finite input, got {z!r}")
    ax = np.abs(x)
    # sampling sum around the even sample n0 nearest |x|; xp = |x| - n0 h is
    # exact because h is a power of two
    n0 = 2.0 * np.round(0.5 * ax / _DAWSON_H)
    xp = ax - n0 * _DAWSON_H
    e1 = np.exp(2.0 * _DAWSON_H * xp)
    e2 = e1 * e1
    d1, d2 = n0 + 1.0, n0 - 1.0
    total = np.zeros_like(ax)
    for c in _DAWSON_WEIGHTS:
        total += c * (e1 / d1 + 1.0 / (d2 * e1))
        d1, d2, e1 = d1 + 2.0, d2 - 2.0, e1 * e2
    sampled = np.copysign(np.exp(-xp * xp) * total / math.sqrt(math.pi), x)
    # Taylor series on the small arguments only (it overflows far out)
    xs = np.where(ax < 0.2, x, 0.0)
    step = -2.0 * xs * xs
    term = series = xs
    for n in range(1, 10):
        term = term * step / (2 * n + 1)
        series = series + term
    return np.where(ax < 0.2, series, sampled)[()]


def bose_occupation(E, beta: float):
    """Bose-Einstein occupation n_B(E) = 1 / (exp(beta*E) - 1).

    ``beta = inf`` is the vacuum and returns 0.  E must be positive: the
    E -> 0 divergence is excluded by the environment mass gap.
    """
    e = np.asarray(E, dtype=float)
    if not (e > 0.0).all():
        raise ValueError(f"bose_occupation requires E > 0, got {E!r}")
    if beta == math.inf:
        return np.zeros_like(e)[()]
    if not beta > 0.0:
        raise ValueError(f"bose_occupation requires beta > 0, got {beta!r}")
    x = beta * e
    # past x = 36, 1/(e^x - 1) = e^-x (1 + e^-x + ...); the correction is
    # below 1e-31 relative there, and this branch cannot overflow
    return np.where(x > 36.0, np.exp(-x), 1.0 / np.expm1(np.minimum(x, 36.0)))[()]


def gaussian_ft(sigma: float, Omega):
    """Fourier transform of the Gaussian clock kernel exp(-s^2/(2 sigma^2)).

    Returns sqrt(2 pi) * sigma * exp(-sigma^2 Omega^2 / 2), which is even
    and nonnegative in Omega.  Underflow to exactly 0 is allowed.
    """
    if not sigma > 0.0:
        raise ValueError(f"gaussian_ft requires sigma > 0, got {sigma!r}")
    return (math.sqrt(2.0 * math.pi) * sigma * np.exp(-0.5 * (sigma * np.asarray(Omega)) ** 2))[()]


def _gk15(f, lo, hi):
    """Kronrod sums and QUADPACK error estimates of ``f`` on panels [lo, hi]."""
    half = 0.5 * (hi - lo)
    y = f(((lo + half)[:, None] + half[:, None] * _GK_NODES).ravel()).reshape(-1, 15)
    kronrod = y @ _K_WEIGHTS
    err = np.abs(kronrod - y @ _G_WEIGHTS)
    # QUADPACK's scaling: resasc measures the integrand's variation on the
    # panel, and resabs bounds the rounding error of the sum
    resasc = np.abs(y - 0.5 * kronrod[:, None]) @ _K_WEIGHTS
    resabs = np.abs(y) @ _K_WEIGHTS
    ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=200.0 * err < resasc)
    err = np.maximum(resasc * ratio**1.5, 50.0 * _EPS * resabs)
    return kronrod * half, err * np.abs(half)


def _gauss_kronrod(f, edges, epsabs: float, epsrel: float):
    """Adaptive G7/K15 quadrature of ``f`` over the panels between ``edges``.

    Each round splits, in halves, the fewest panels that hold the error above
    the target max(epsabs, epsrel * |value|), largest error first, and
    evaluates all their halves in one call of ``f``.  Returns (value, error
    estimate, evaluations); raises :class:`AccuracyError` after two splits
    per starting panel plus ``MAX_SUBDIVISIONS``, or when a panel is too
    narrow to split.
    """
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    parts, err = _gk15(f, lo, hi)
    evaluations, splits, max_splits = 15 * lo.size, 0, MAX_SUBDIVISIONS + 2 * lo.size
    while True:
        value, total_err = parts.sum(), float(err.sum())
        target = max(epsabs, epsrel * abs(value))
        if total_err <= target:
            return value, total_err, evaluations
        order = np.argsort(err)[::-1]
        n = int(np.searchsorted(np.cumsum(err[order]), total_err - target)) + 1
        pick = order[:n]
        mid = 0.5 * (lo[pick] + hi[pick])
        splits += n
        if splits > max_splits or (np.abs(hi[pick] - lo[pick]) <= 1e3 * _EPS * np.abs(mid)).any():
            raise AccuracyError(
                f"quadrature did not converge: error estimate {total_err:.3e} above "
                f"{target:.3e} after {splits - n} panel splits",
                value, total_err,
            )
        new_lo, new_hi = np.concatenate((lo[pick], mid)), np.concatenate((mid, hi[pick]))
        new_parts, new_err = _gk15(f, new_lo, new_hi)
        evaluations += 15 * new_lo.size
        keep = np.ones(lo.size, dtype=bool)
        keep[pick] = False
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        parts = np.concatenate((parts[keep], new_parts))
        err = np.concatenate((err[keep], new_err))


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over the finite range (a, b).

    ``f`` follows the module's integrand contract: a 1-D node array in, an
    array of the same shape out.  The adaptive pass starts on four equal
    panels and stops once the error estimate is at most
    max(``QUAD_TOL``, ``QUAD_TOL`` * |value|).  Non-convergence raises
    :class:`AccuracyError` carrying the best estimate.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrate_adaptive needs finite limits, got ({a!r}, {b!r})")
    value, abserr, neval = _gauss_kronrod(f, np.linspace(a, b, _START_PANELS + 1), QUAD_TOL, QUAD_TOL)
    return QuadratureResult(value=float(value), error_estimate=abserr, evaluations=neval)
