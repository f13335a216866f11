"""Environment two-point structure: spectral densities and smeared correlators.

The massive scalar bath enters every rate through the on-shell density

    j(E) = g^2 * sqrt(E^2 - m_E^2) / (4 pi^2),   E >= m_E,

which is the reduction of the invariant momentum measure d^3k/((2pi)^3 2E_k).
The coupling enters only as the prefactor g^2: every integral runs over the
unit-coupling density j(E)/g^2 (:func:`_unit_density`), and each public
value is scaled by g^2 once, so it is exactly covariant in g.  Time-domain
correlator values exist only under a clock kernel and the energy cutoff
40 m_E; the bare two-point function is a distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import ClockKernel, GaussianKernel, CoherentReadoutKernel
from .specfun import _gauss_kronrod, bose_occupation

__all__ = [
    "EnvironmentSpec",
    "vacuum_spectral_density",
    "wightman_timelike",
]

#: Energy cutoff of time-domain correlator values, in units of m_E.
CUTOFF_SCALE = 40.0

#: Most periods of e^{-isE} the spectral transform starts panels on (|s| up
#: to about 660 / m_E at the cutoff); this bounds its node arrays to a few
#: megabytes.
_MAX_PERIODS = 2**12


@dataclass(frozen=True)
class EnvironmentSpec:
    """Scalar bath parameters feeding all rate integrals.

    ``beta = inf`` selects the vacuum.  ``rapidity`` is the boost of the
    clock normal relative to the bath rest frame (cosh(rapidity) = n.U).
    """

    mass_E: float = 1.0
    coupling_g: float = 1.0
    beta: float = math.inf
    rapidity: float = 0.0

    def __post_init__(self):
        if not self.mass_E > 0.0:
            raise ValueError(f"mass_E must be > 0, got {self.mass_E!r}")
        if self.coupling_g < 0.0:
            raise ValueError(f"coupling_g must be >= 0, got {self.coupling_g!r}")
        if not (self.beta == math.inf or self.beta > 0.0):
            raise ValueError(f"beta must be > 0 or inf, got {self.beta!r}")
        if not math.isfinite(self.rapidity):
            raise ValueError("rapidity must be finite")

    @property
    def is_vacuum(self) -> bool:
        return self.beta == math.inf


def _unit_density(m: float, E: np.ndarray) -> np.ndarray:
    """j(E) / g^2 = sqrt(E^2 - m^2)/(4 pi^2) on an energy array, 0 below m."""
    return np.sqrt(np.maximum(E * E - m * m, 0.0)) / (4.0 * math.pi**2)


def vacuum_spectral_density(env: EnvironmentSpec, E):
    """On-shell density j(E) = g^2 sqrt(E^2 - m^2)/(4 pi^2) for E >= m, else 0.

    Takes a float or an array of energies.
    """
    x = np.asarray(E, dtype=float)
    if (x < 0.0).any():
        raise ValueError(f"E must be >= 0, got {E!r}")
    return (env.coupling_g**2 * _unit_density(env.mass_E, x))[()]


def _spectral_ft(env: EnvironmentSpec, s: float) -> complex:
    """int_m^L j(E)/g^2 [(1+n_B) e^{-isE} + n_B e^{+isE}] dE, L = 40 m.

    Equals int j(E)/g^2 [(1+2n_B) cos(sE) - i sin(sE)] dE.  The adaptive
    Gauss-Kronrod rule starts on panels one period 2 pi/|s| wide and runs
    in the rapidity E = m cosh(theta), which removes the square-root edge of
    j at E = m.  Panels and decisions depend on |s| only, so C(-s) is
    exactly conj(C(s)).
    """
    m = env.mass_E
    cutoff = CUTOFF_SCALE * m
    periods = abs(s) * (cutoff - m) / (2.0 * math.pi)
    if periods > _MAX_PERIODS:
        raise ValueError(
            f"|s| * (cutoff - mass_E) = {2.0 * math.pi * periods:.3e} spans more than "
            f"{_MAX_PERIODS} periods of the transform"
        )
    if s:
        E_edges = np.append(m + 2.0 * math.pi / abs(s) * np.arange(math.ceil(periods)), cutoff)
    else:
        E_edges = np.array([m, cutoff])

    def f(theta):
        E = m * np.cosh(theta)
        j = _unit_density(m, E) * (m * np.sinh(theta))
        even = j if env.is_vacuum else j * (1.0 + 2.0 * bose_occupation(E, env.beta))
        return even * np.cos(s * E) - 1j * (j * np.sin(s * E))

    value, _, _ = _gauss_kronrod(f, np.arccosh(E_edges / m), 1e-12, 1e-10)
    return complex(value)


def wightman_timelike(env: EnvironmentSpec, kernel: ClockKernel, s: float) -> complex:
    """Clock-smeared timelike correlator C(s) = g^2 w(s) * FT of j/g^2 up to
    the cutoff 40 m_E.

    The value is cutoff-dependent by construction; only smeared, regulated
    evaluations are meaningful.  Hermiticity C(-s) = conj(C(s)) holds
    exactly.
    """
    if kernel is None:
        raise ValueError(
            "unsmeared correlator requested: the bare two-point function is a "
            "distribution, pass a clock kernel"
        )
    if not isinstance(kernel, (GaussianKernel, CoherentReadoutKernel)):
        raise ValueError("wightman_timelike supports gaussian or coherent kernels")
    return env.coupling_g**2 * (kernel.evaluate(s) * _spectral_ft(env, s))
