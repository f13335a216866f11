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

from .kernels import ClockKernel, GaussianKernel, CoherentReadoutKernel
from .specfun import bose_occupation

__all__ = [
    "EnvironmentSpec",
    "vacuum_spectral_density",
    "kms_rate_weights",
    "wightman_timelike",
]

#: Default energy cutoff for time-domain correlator values, in units of m_E.
DEFAULT_CUTOFF_SCALE = 40.0


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


def vacuum_spectral_density(env: EnvironmentSpec, E: float) -> float:
    """On-shell density j(E) = g^2 sqrt(E^2 - m^2)/(4 pi^2) for E >= m, else 0."""
    if E < 0.0:
        raise ValueError(f"E must be >= 0, got {E!r}")
    m = env.mass_E
    if E <= m:
        return 0.0
    return env.coupling_g**2 * math.sqrt(E * E - m * m) / (4.0 * math.pi**2)


def kms_rate_weights(env: EnvironmentSpec, E: float) -> tuple[float, float]:
    """Thermal emission/absorption weights (1 + n_B(E), n_B(E)).

    Vacuum limit returns (1, 0).  E below the mass gap is rejected.
    """
    if E < env.mass_E:
        raise ValueError(f"E must be >= mass_E, got {E!r}")
    n = bose_occupation(E, env.beta)
    return (1.0 + n, n)


def _spectral_ft(env: EnvironmentSpec, s: float, cutoff: float) -> complex:
    """int_m^cutoff j(E) [(1+n_B) e^{-isE} + n_B e^{+isE}] dE.

    Equals int j(E) (1+2n_B) cos(sE) dE - i int j(E) sin(sE) dE, so each
    piece is a Fourier-weight quadrature (exactly Hermitian in s).
    """
    from scipy import integrate
    m = env.mass_E

    def j_sym(E):
        j = vacuum_spectral_density(env, E)
        if env.is_vacuum:
            return j
        return j * (1.0 + 2.0 * bose_occupation(E, env.beta))

    def j_plain(E):
        return vacuum_spectral_density(env, E)

    kw = dict(epsabs=1e-12, epsrel=1e-10, limit=400)
    if s == 0.0:
        re = integrate.quad(j_sym, m, cutoff, **kw)[0]
        return complex(re, 0.0)
    re = integrate.quad(j_sym, m, cutoff, weight="cos", wvar=s, **kw)[0]
    im = -integrate.quad(j_plain, m, cutoff, weight="sin", wvar=s, **kw)[0]
    return complex(re, im)


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
