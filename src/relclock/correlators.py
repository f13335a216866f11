"""Environment two-point structure: spectral densities and smeared correlators.

The massive scalar bath enters every rate through the on-shell density

    j(E) = g^2 * sqrt(E^2 - m_E^2) / (4 pi^2),   E >= m_E,

which is the reduction of the invariant momentum measure d^3k/((2pi)^3 2E_k).
Time-domain correlator values exist only under a clock kernel and an explicit
energy cutoff; the bare two-point function is a distribution.
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

#: Default energy cutoff for time-domain correlator values, in units of m_E.
DEFAULT_CUTOFF_SCALE = 40.0

#: Most periods of e^{-isE} the spectral transform starts panels on (|s| up
#: to about 660 / m_E at the default cutoff); this bounds its node arrays to
#: a few megabytes.
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


def vacuum_spectral_density(env: EnvironmentSpec, E):
    """On-shell density j(E) = g^2 sqrt(E^2 - m^2)/(4 pi^2) for E >= m, else 0.

    Takes a float or an array of energies.
    """
    x = np.asarray(E, dtype=float)
    if (x < 0.0).any():
        raise ValueError(f"E must be >= 0, got {E!r}")
    m = env.mass_E
    return (env.coupling_g**2 * np.sqrt(np.maximum(x * x - m * m, 0.0)) / (4.0 * math.pi**2))[()]


def _spectral_ft(env: EnvironmentSpec, s: float, cutoff: float) -> complex:
    """int_m^cutoff j(E) [(1+n_B) e^{-isE} + n_B e^{+isE}] dE.

    Equals int j(E) [(1+2n_B) cos(sE) - i sin(sE)] dE.  The adaptive
    Gauss-Kronrod rule starts on panels one period 2 pi/|s| wide and runs
    in the rapidity E = m cosh(theta), which removes the square-root edge of
    j at E = m.  Panels and decisions depend on |s| only, so C(-s) is
    exactly conj(C(s)).
    """
    m = env.mass_E
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
        j = vacuum_spectral_density(env, E) * (m * np.sinh(theta))
        even = j if env.is_vacuum else j * (1.0 + 2.0 * bose_occupation(E, env.beta))
        return even * np.cos(s * E) - 1j * (j * np.sin(s * E))

    value, _, _ = _gauss_kronrod(f, np.arccosh(E_edges / m), 1e-12, 1e-10)
    return complex(value)


def wightman_timelike(
    env: EnvironmentSpec,
    kernel: ClockKernel,
    s: float,
    cutoff: float | None = None,
) -> complex:
    """Clock-smeared timelike correlator C(s) = w(s) * FT of j up to a cutoff.

    The value is cutoff-dependent by construction (default 40 m_E); only
    smeared, regulated evaluations are meaningful.  Hermiticity
    C(-s) = conj(C(s)) holds exactly.
    """
    if kernel is None:
        raise ValueError(
            "unsmeared correlator requested: the bare two-point function is a "
            "distribution, pass a clock kernel"
        )
    if not isinstance(kernel, (GaussianKernel, CoherentReadoutKernel)):
        raise ValueError("wightman_timelike supports gaussian or coherent kernels")
    if cutoff is None:
        cutoff = DEFAULT_CUTOFF_SCALE * env.mass_E
    if cutoff <= env.mass_E:
        raise ValueError("cutoff must exceed the environment mass")
    return kernel.evaluate(s) * _spectral_ft(env, s, cutoff)
