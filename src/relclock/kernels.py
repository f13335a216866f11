"""Clock-resolution kernels: evaluation, spectra, and positive-type checks.

A clock kernel w(s) encodes the finite resolution of the physical clock used
to smear bath correlations along the local time direction.  Everything
downstream (rates, noise covariances, Kossakowski blocks) inherits complete
positivity from these kernels being of positive type, so this module carries
the Gram-matrix certificate used to reject bad kernels early.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import gaussian_ft, integrate_adaptive

__all__ = [
    "ClockKernel",
    "GaussianKernel",
    "CoherentReadoutKernel",
    "SpectralMeasure",
    "PositiveTypeVerdict",
    "PositivityError",
    "kernel_spectrum",
    "positivity_gram_check",
]

#: Tolerance on the minimum Gram eigenvalue.  Numerically PSD matrices
#: routinely show eigenvalues around -1e-13.
GRAM_TOLERANCE = 1e-10

#: Dropped Poisson tail weight allowed when truncating the coherent series.
SERIES_TAIL = 1e-12


class PositivityError(ValueError):
    """A kernel, spectrum, or covariance failed its positivity certificate."""


def psd_margin(M: np.ndarray, name: str) -> float:
    """Minimum eigenvalue of the Hermitian matrix ``M``.

    Raises ValueError unless M is Hermitian to 1e-12 * max(|M|, 1), and
    PositivityError when the margin is below -1e-10 * max(tr M, 1).  An empty
    block is trivially PSD, with margin +inf.
    """
    if M.size == 0:
        return math.inf
    if np.abs(M - M.conj().T).max() > 1e-12 * max(np.abs(M).max(), 1.0):
        raise ValueError(f"{name} must be Hermitian")
    margin = float(np.linalg.eigvalsh(M).min())
    if margin < -1e-10 * max(float(np.real(np.trace(M))), 1.0):
        raise PositivityError(f"{name} is not PSD (min eigenvalue {margin:.3e})")
    return margin


@dataclass(frozen=True)
class PositiveTypeVerdict:
    """Outcome of a Gram positivity check."""

    positive_type: bool
    min_eigenvalue: float

    def __bool__(self):
        return self.positive_type


@dataclass(frozen=True)
class SpectralMeasure:
    """Fourier representation of a kernel: point atoms plus an optional density.

    Weights are nonnegative and the total mass equals 2*pi*w(0) by Fourier
    inversion.  Atom rows are (frequency, weight).
    """

    atoms: np.ndarray
    #: array in, array out, as :func:`relclock.specfun.integrate_adaptive` calls it
    density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    density_halfwidth: float = 0.0

    def total_mass(self) -> float:
        """Atom weights plus the density integrated to 1e-9 over its support."""
        mass = float(np.sum(self.atoms[:, 1])) if self.atoms.size else 0.0
        if self.density is not None:
            L = self.density_halfwidth
            mass += integrate_adaptive(self.density, -L, L, 1e-9).value
        return mass


class ClockKernel:
    """Base class for even, positive-type clock-resolution kernels."""

    def evaluate(self, s: float) -> float:
        raise NotImplementedError

    def spectrum(self) -> SpectralMeasure:
        raise NotImplementedError

    @property
    def width(self) -> float:
        """Characteristic time resolution, used for default grids/windows."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(ClockKernel):
    """w(s) = exp(-s^2 / (2 sigma^2)), the canonical resolution kernel."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")

    def evaluate(self, s: float) -> float:
        return math.exp(-0.5 * (s / self.sigma) ** 2)

    def spectrum(self) -> SpectralMeasure:
        sig = self.sigma
        # density support: gaussian_ft falls below any floor past ~13/sigma
        return SpectralMeasure(
            atoms=np.empty((0, 2)),
            density=lambda Omega: gaussian_ft(sig, Omega),
            density_halfwidth=14.0 / sig,
        )

    @property
    def width(self) -> float:
        return self.sigma


@dataclass(frozen=True)
class CoherentReadoutKernel(ClockKernel):
    """Even part of a coherent-state clock readout overlap.

    w(s) = exp(-R^2) * sum_n (R^2)^n / n! * cos(n omega_C s), a convex
    mixture of cosines, hence positive type.  For R >> 1 it approaches a
    Gaussian of width ~ 1/(R omega_C) near s = 0.  The series is truncated
    at the least order whose dropped Poisson tail is below ``SERIES_TAIL``.
    """

    R: float
    omega_C: float

    def __post_init__(self):
        if self.R < 0.0:
            raise ValueError(f"R must be >= 0, got {self.R!r}")
        if not self.omega_C > 0.0:
            raise ValueError(f"omega_C must be > 0, got {self.omega_C!r}")
        object.__setattr__(self, "_weights", self._poisson_weights(self._auto_truncation()))

    def _auto_truncation(self) -> int:
        lam = self.R * self.R
        if lam == 0.0:
            return 0
        # smallest N with P(Poisson(lam) > N) < SERIES_TAIL
        term = math.exp(-lam)
        cdf = term
        n = 0
        while 1.0 - cdf >= SERIES_TAIL and n < 10_000:
            n += 1
            term *= lam / n
            cdf += term
        return n + 1

    def _poisson_weights(self, n_max: int) -> np.ndarray:
        lam = self.R * self.R
        w = np.empty(n_max + 1)
        w[0] = math.exp(-lam)
        for n in range(1, n_max + 1):
            w[n] = w[n - 1] * lam / n
        return w

    def evaluate(self, s: float) -> float:
        n = np.arange(self._weights.size)
        return float(np.dot(self._weights, np.cos(n * self.omega_C * s)))

    def spectrum(self) -> SpectralMeasure:
        # atom at 0 carries 2*pi*e^{-R^2}; atoms at +-n*omega_C carry
        # pi*e^{-R^2}(R^2)^n/n! each
        atoms = [(0.0, 2.0 * math.pi * self._weights[0])]
        for n in range(1, self._weights.size):
            w = math.pi * self._weights[n]
            if w == 0.0:
                continue
            atoms.append((n * self.omega_C, w))
            atoms.append((-n * self.omega_C, w))
        return SpectralMeasure(atoms=np.array(atoms))

    @property
    def width(self) -> float:
        if self.R == 0.0:
            return 1.0 / self.omega_C
        return 1.0 / (self.R * self.omega_C)


@functools.cache
def kernel_spectrum(k: ClockKernel) -> SpectralMeasure:
    """Spectral measure of the kernel (atoms and/or continuous density),
    built once per kernel, as the frozen kernels hash by value; its atoms
    are read-only, since every caller shares them."""
    spec = k.spectrum()
    spec.atoms.flags.writeable = False
    return spec


def positivity_gram_check(k: ClockKernel, times: Sequence[float]) -> PositiveTypeVerdict:
    """Certify positive-typeness of w on a sample grid.

    Builds the Gram matrix M[j, k] = w(t_j - t_k) and reports the minimum
    eigenvalue; the kernel passes iff it is >= -``GRAM_TOLERANCE``.
    """
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise ValueError("need at least 2 sample times")
    diff = t[:, None] - t[None, :]
    M = np.vectorize(k.evaluate)(diff)
    min_eig = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
    return PositiveTypeVerdict(positive_type=min_eig >= -GRAM_TOLERANCE, min_eigenvalue=min_eig)
