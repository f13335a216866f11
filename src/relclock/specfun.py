"""Special functions and adaptive quadrature used by every rate integral.

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

#: Maximum number of QUADPACK subdivisions before giving up.
MAX_SUBDIVISIONS = 200

#: scipy.special.dawsn, bound by the first call to :func:`dawson`.
_dawsn = None


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


def dawson(z: float) -> float:
    """Dawson integral D(z) = exp(-z^2) * int_0^z exp(t^2) dt.

    Odd in z; D(z) ~ 1/(2z) + 1/(4z^3) for large z.  Backed by the scalar
    Faddeeva evaluation in scipy, which is accurate to better than 1e-13
    relative over the real line.
    """
    global _dawsn
    if not math.isfinite(z):
        raise ValueError(f"dawson requires finite input, got {z!r}")
    if _dawsn is None:
        from scipy.special import dawsn as _dawsn
    return float(_dawsn(z))


def bose_occupation(E: float, beta: float) -> float:
    """Bose-Einstein occupation n_B(E) = 1 / (exp(beta*E) - 1).

    ``beta = inf`` is the vacuum and returns 0.  E must be positive: the
    E -> 0 divergence is excluded by the environment mass gap.
    """
    if not E > 0.0:
        raise ValueError(f"bose_occupation requires E > 0, got {E!r}")
    if beta == math.inf:
        return 0.0
    if not beta > 0.0:
        raise ValueError(f"bose_occupation requires beta > 0, got {beta!r}")
    x = beta * E
    if x > 36.0:
        # 1/(e^x - 1) = e^-x (1 + e^-x + ...); the correction is below 1e-31
        # relative here, and this branch cannot overflow
        return math.exp(-x) if x < 745.0 else 0.0
    return 1.0 / math.expm1(x)


def gaussian_ft(sigma: float, Omega: float) -> float:
    """Fourier transform of the Gaussian clock kernel exp(-s^2/(2 sigma^2)).

    Returns sqrt(2 pi) * sigma * exp(-sigma^2 Omega^2 / 2), which is even
    and nonnegative in Omega.  Underflow to exactly 0 is allowed.
    """
    if not sigma > 0.0:
        raise ValueError(f"gaussian_ft requires sigma > 0, got {sigma!r}")
    arg = -0.5 * (sigma * Omega) ** 2
    if arg < -745.0:
        return 0.0
    return math.sqrt(2.0 * math.pi) * sigma * math.exp(arg)


def _quad(f, a, b, epsabs, epsrel):
    from scipy import integrate
    out = integrate.quad(
        f, a, b, epsabs=epsabs, epsrel=epsrel, limit=MAX_SUBDIVISIONS, full_output=True
    )
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3:  # QUADPACK warning message present
        raise AccuracyError(
            f"quadrature did not converge: {out[3]}", value, abserr
        )
    return value, abserr, info["neval"]


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> QuadratureResult:
    """Adaptive quadrature of ``f`` over (a, b); ``b`` may be ``inf``.

    Semi-infinite ranges are mapped to the unit interval with
    E = a + t/(1 - t) before the adaptive pass.  ``tol`` is used as both the
    relative and the absolute tolerance.  Non-convergence raises
    :class:`AccuracyError` carrying the best estimate.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if b == math.inf:
        def g(t):
            if t >= 1.0:
                return 0.0
            r = 1.0 / (1.0 - t)
            return f(a + t * r) * r * r

        value, abserr, neval = _quad(g, 0.0, 1.0, tol, tol)
    else:
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("only finite or [a, inf) ranges are supported")
        value, abserr, neval = _quad(f, a, b, tol, tol)
    return QuadratureResult(value=value, error_estimate=abserr, evaluations=neval)
